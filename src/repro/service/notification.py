"""The friends-notification application (paper Section 1's motivating service).

"Friends notification ... notifies a user that one of his/her friends is also
present at the same POI in the same time."  Given a
:class:`repro.api.ColocationEngine` and a friendship graph,
:class:`FriendsNotificationService` consumes a tweet stream and emits a
:class:`Notification` whenever a pair of friends is judged co-located with
probability above a threshold.  Candidate enumeration and scoring ride on
:class:`repro.service.stream.StreamScorer`, so friend pairs are filtered
before the engine is invoked and profile features are cached across pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.records import Pair, Profile, Tweet
from repro.errors import ConfigurationError
from repro.geo.poi import POIRegistry
from repro.service._engine import resolve_engine
from repro.service.stream import StreamScorer


@dataclass(frozen=True)
class Notification:
    """One co-location alert for a pair of friends."""

    #: The two users judged co-located (order follows the friendship pair).
    uid_a: int
    uid_b: int
    #: Co-location probability produced by the judge.
    probability: float
    #: Timestamp of the newer of the two profiles.
    ts: float
    #: The candidate pair the judge scored (kept for downstream inspection).
    pair: Pair


class FriendsNotificationService:
    """Stream tweets in, get friend co-location notifications out.

    Parameters
    ----------
    engine:
        A :class:`repro.api.ColocationEngine`, or any fitted judge exposing
        ``predict_proba(pairs)`` (wrapped into an engine automatically).
    registry:
        The POI set used to label geo-tagged tweets and build histories;
        defaults to the engine's registry.
    friendships:
        Iterable of ``(uid, uid)`` friendship edges (undirected).
    delta_t:
        Co-location window in seconds.
    threshold:
        Minimum co-location probability that triggers a notification.
    max_distance_m:
        Optional spatial gate passed to the sliding window.
    """

    def __init__(
        self,
        engine,
        registry: POIRegistry | None = None,
        friendships=(),
        delta_t: float = 3600.0,
        threshold: float = 0.5,
        max_history: int = 64,
        max_distance_m: float | None = None,
    ):
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("threshold must lie in [0, 1]")
        self.engine = resolve_engine(engine)
        self.threshold = threshold
        self._friends: set[frozenset[int]] = set()
        for a, b in friendships:
            self.add_friendship(a, b)
        self.scorer = StreamScorer(
            self.engine,
            registry=registry,
            delta_t=delta_t,
            max_history=max_history,
            max_distance_m=max_distance_m,
            pair_filter=lambda pair: self.are_friends(pair.left.uid, pair.right.uid),
        )
        self._notifications_sent = 0

    # ------------------------------------------------------------ compat views
    @property
    def judge(self):
        """The raw judge behind the engine (legacy accessor)."""
        return self.engine.judge

    @property
    def builder(self):
        """The online profile builder feeding the sliding window."""
        return self.scorer.builder

    @property
    def window(self):
        """The sliding Δt window of recent profiles."""
        return self.scorer.window

    # ------------------------------------------------------------ friendships
    def add_friendship(self, uid_a: int, uid_b: int) -> None:
        """Register an undirected friendship edge."""
        if uid_a == uid_b:
            raise ConfigurationError("a user cannot befriend themselves")
        self._friends.add(frozenset((uid_a, uid_b)))

    def are_friends(self, uid_a: int, uid_b: int) -> bool:
        """True when the two users are friends."""
        return frozenset((uid_a, uid_b)) in self._friends

    @property
    def num_friendships(self) -> int:
        """Number of registered friendship edges."""
        return len(self._friends)

    @property
    def notifications_sent(self) -> int:
        """Number of notifications emitted so far."""
        return self._notifications_sent

    # ----------------------------------------------------------------- stream
    def process(self, tweet: Tweet) -> list[Notification]:
        """Consume one tweet and return any triggered notifications."""
        notifications: list[Notification] = []
        for scored in self.scorer.process(tweet):
            if scored.probability < self.threshold:
                continue
            pair = scored.pair
            notifications.append(
                Notification(
                    uid_a=pair.left.uid,
                    uid_b=pair.right.uid,
                    probability=scored.probability,
                    ts=max(pair.left.ts, pair.right.ts),
                    pair=pair,
                )
            )
        self._notifications_sent += len(notifications)
        return notifications

    def process_many(self, tweets: list[Tweet]) -> list[Notification]:
        """Consume tweets in timestamp order and collect every notification."""
        notifications: list[Notification] = []
        for tweet in sorted(tweets, key=lambda t: t.ts):
            notifications.extend(self.process(tweet))
        return notifications

    def co_located_profiles(self, profiles: list[Profile]) -> list[tuple[Profile, Profile, float]]:
        """Score every friend pair among a batch of already-built profiles.

        A convenience for batch (non-streaming) use: returns
        ``(profile_a, profile_b, probability)`` for each friend pair within
        Δt whose probability clears the threshold.
        """
        pairs: list[Pair] = []
        for i, left in enumerate(profiles):
            for right in profiles[i + 1 :]:
                if left.uid == right.uid or not self.are_friends(left.uid, right.uid):
                    continue
                if abs(left.ts - right.ts) >= self.scorer.window.delta_t:
                    continue
                pairs.append(Pair(left=left, right=right, co_label=None))
        if not pairs:
            return []
        probabilities = self.engine.predict_proba(pairs)
        return [
            (pair.left, pair.right, float(probability))
            for pair, probability in zip(pairs, probabilities)
            if probability >= self.threshold
        ]
