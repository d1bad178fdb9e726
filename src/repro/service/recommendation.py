"""Local people recommendation (paper Section 1's second motivating service).

"Many social network platforms also offer local people recommendation, which
can recommend users who are close to and share the same interest with a user
in need."  Given a fitted co-location judge, the recommender scores every
candidate user by blending (a) the probability that the candidate is co-located
with the query user right now and (b) the content similarity between their
recent tweets (the "shared interest" signal), then returns the top-k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.records import Pair, Profile
from repro.errors import ConfigurationError
from repro.eval.ranking import ranking_report
from repro.service._engine import resolve_engine
from repro.text.ngrams import TfidfVectorizer, document_similarity


@dataclass(frozen=True, slots=True)
class Recommendation:
    """One recommended user for a query profile."""

    #: The recommended user's id.
    uid: int
    #: Blended ranking score (higher is better).
    score: float
    #: Co-location probability from the judge.
    colocation_probability: float
    #: Tweet-content cosine similarity (the shared-interest proxy).
    interest_similarity: float
    #: The candidate profile that was scored.
    profile: Profile


class LocalPeopleRecommender:
    """Recommend nearby, like-minded users with a co-location engine.

    Parameters
    ----------
    engine:
        A :class:`repro.api.ColocationEngine`, or any fitted judge exposing
        ``predict_proba(pairs)`` (wrapped into an engine automatically).
    delta_t:
        Only candidates whose recent tweet falls within ``delta_t`` seconds of
        the query profile's tweet are considered (the problem's pairing rule).
    colocation_weight:
        Weight of the co-location probability in the blended score; the
        remaining weight goes to interest similarity.
    vectorizer:
        Optional pre-fitted :class:`TfidfVectorizer` used for the interest
        signal.  When omitted, one is fitted lazily on the candidate contents
        of each request.
    """

    def __init__(
        self,
        engine,
        delta_t: float = 3600.0,
        colocation_weight: float = 0.7,
        vectorizer: TfidfVectorizer | None = None,
    ):
        if delta_t <= 0:
            raise ConfigurationError("delta_t must be positive")
        if not 0.0 <= colocation_weight <= 1.0:
            raise ConfigurationError("colocation_weight must lie in [0, 1]")
        self.engine = resolve_engine(engine)
        self.delta_t = delta_t
        self.colocation_weight = colocation_weight
        self.vectorizer = vectorizer

    @property
    def judge(self):
        """The raw judge behind the engine (legacy accessor)."""
        return self.engine.judge

    # -------------------------------------------------------------- internals
    def _eligible(self, query: Profile, candidates: list[Profile]) -> list[Profile]:
        return [
            candidate
            for candidate in candidates
            if candidate.uid != query.uid and abs(candidate.ts - query.ts) < self.delta_t
        ]

    def _interest_similarities(self, query: Profile, candidates: list[Profile]) -> np.ndarray:
        vectorizer = self.vectorizer
        if vectorizer is None:
            corpus = [query.content] + [c.content for c in candidates]
            try:
                vectorizer = TfidfVectorizer().fit(corpus)
            except Exception:
                # Degenerate corpora (all empty / all stop words) carry no
                # interest signal; fall back to zeros.
                return np.zeros(len(candidates))
        query_vector = vectorizer.transform_one(query.content)
        return np.array(
            [
                document_similarity(query_vector, vectorizer.transform_one(candidate.content))
                for candidate in candidates
            ]
        )

    # ------------------------------------------------------------------- API
    def score_candidates(self, query: Profile, candidates: list[Profile]) -> list[Recommendation]:
        """Score every eligible candidate for a query profile (unsorted)."""
        eligible = self._eligible(query, candidates)
        if not eligible:
            return []
        pairs = [Pair(left=query, right=candidate, co_label=None) for candidate in eligible]
        probabilities = np.asarray(self.engine.predict_proba(pairs), dtype=float)
        interests = self._interest_similarities(query, eligible)
        weight = self.colocation_weight
        recommendations = []
        for candidate, probability, interest in zip(eligible, probabilities, interests):
            score = weight * float(probability) + (1.0 - weight) * float(interest)
            recommendations.append(
                Recommendation(
                    uid=candidate.uid,
                    score=score,
                    colocation_probability=float(probability),
                    interest_similarity=float(interest),
                    profile=candidate,
                )
            )
        return recommendations

    def recommend(
        self,
        query: Profile,
        candidates: list[Profile],
        top_k: int = 10,
        min_score: float = 0.0,
    ) -> list[Recommendation]:
        """Top-k recommended users for ``query`` among ``candidates``."""
        if top_k < 1:
            raise ConfigurationError("top_k must be at least 1")
        scored = [r for r in self.score_candidates(query, candidates) if r.score >= min_score]
        scored.sort(key=lambda r: (-r.score, r.uid))
        return scored[:top_k]

    def recommend_for_all(
        self,
        profiles: list[Profile],
        top_k: int = 10,
    ) -> dict[int, list[Recommendation]]:
        """Recommendations for every profile in a batch, keyed by user id.

        When a user appears with several profiles, the most recent one is used
        as their query profile.
        """
        latest: dict[int, Profile] = {}
        for profile in profiles:
            current = latest.get(profile.uid)
            if current is None or profile.ts > current.ts:
                latest[profile.uid] = profile
        results: dict[int, list[Recommendation]] = {}
        for uid, query in latest.items():
            candidates = [p for p in profiles if p.uid != uid]
            results[uid] = self.recommend(query, candidates, top_k=top_k)
        return results


def evaluate_recommender(
    recommender: LocalPeopleRecommender,
    profiles: list[Profile],
    top_k: int = 10,
    ks: tuple[int, ...] = (1, 5, 10),
) -> dict[str, float]:
    """Rank-quality report of a recommender against ground-truth co-location.

    For every labelled profile whose POI is shared by at least one other
    labelled profile inside the Δt window, the relevant set is "the users
    actually at the same POI at the same time" and the ranking is the
    recommender's output.  Returns the :func:`repro.eval.ranking.ranking_report`
    dictionary (MRR plus precision/recall/hit-rate at each ``k``), or an empty
    dictionary when no profile has a relevant co-located partner.
    """
    labelled = [p for p in profiles if p.is_labeled]
    rankings: list[list[int]] = []
    relevants: list[set[int]] = []
    for query in labelled:
        relevant = {
            other.uid
            for other in labelled
            if other.uid != query.uid
            and other.pid == query.pid
            and abs(other.ts - query.ts) < recommender.delta_t
        }
        if not relevant:
            continue
        candidates = [p for p in profiles if p.uid != query.uid]
        ranked = [r.uid for r in recommender.recommend(query, candidates, top_k=top_k)]
        rankings.append(ranked)
        relevants.append(relevant)
    if not rankings:
        return {}
    return ranking_report(rankings, relevants, ks=ks)
