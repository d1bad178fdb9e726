"""Typed request/response messages of the serving boundary.

The engine's programmatic methods (``predict_proba`` and friends) stay
array-in/array-out for library use; services and RPC-style callers go through
:class:`JudgeRequest` / :class:`JudgeResponse`, which carry the decision
threshold actually applied and the cache statistics of the call — the numbers
an operator needs to reason about latency.

Both messages round-trip through plain dicts (``to_dict`` / ``from_dict``,
built on the :mod:`repro.io.records_json` codecs) so the cluster wire
protocol — and any external RPC layer — can carry them without pickling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.data.records import Pair, Profile


@dataclass(frozen=True)
class JudgeRequest:
    """One batch of candidate pairs to judge.

    ``threshold`` overrides the engine's decision threshold for this request
    only; ``None`` keeps the engine default.
    """

    pairs: tuple[Pair, ...]
    threshold: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.pairs, tuple):
            object.__setattr__(self, "pairs", tuple(self.pairs))

    @classmethod
    def for_profiles(cls, query: Profile, candidates: list[Profile], threshold: float | None = None) -> "JudgeRequest":
        """Pair one query profile against every candidate of a different user."""
        pairs = tuple(
            Pair(left=query, right=candidate, co_label=None)
            for candidate in candidates
            if candidate.uid != query.uid
        )
        return cls(pairs=pairs, threshold=threshold)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (the wire-protocol request body)."""
        from repro.io.records_json import pair_to_dict

        return {
            "pairs": [pair_to_dict(pair) for pair in self.pairs],
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JudgeRequest":
        """Rebuild a request from :meth:`to_dict` output (extra keys ignored)."""
        from repro.io.records_json import pair_from_dict

        return cls(
            pairs=tuple(pair_from_dict(pair) for pair in data.get("pairs", [])),
            threshold=None if data.get("threshold") is None else float(data["threshold"]),
        )

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class JudgeResponse:
    """The engine's answer for one :class:`JudgeRequest`."""

    #: Co-location probability per requested pair.
    probabilities: tuple[float, ...]
    #: Binary decisions.  Cut from the probabilities at ``threshold``, except
    #: for judges with a non-threshold decision rule (Comp2Loc's argmax
    #: equality) when no explicit request threshold was given.
    decisions: tuple[int, ...]
    #: The engine's decision threshold in effect for this request.
    threshold: float
    #: Feature-cache hits/misses incurred by this request (0/0 for judges
    #: without a feature-level interface), each distinct profile counted
    #: once.  Requests coalesced into one ``serve_batch`` share one gather:
    #: a profile it featurized is a miss for the first request, in batch
    #: order, that contains it and a hit for every later one, so the
    #: batch's misses sum to the rows it featurized.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Cache rows dropped by ``invalidate``/``invalidate_stale`` calls this
    #: request's gather observed (invalidation traffic preceding it); in a
    #: coalesced batch they go to the first feature-space request.
    cache_invalidated: int = 0
    #: Wall-clock time spent inside the engine, in milliseconds.
    elapsed_ms: float = 0.0
    #: Per-stage timing report (``{"trace_id", "stages": [[name, ms], ...]}``)
    #: when the request was served under :func:`repro.obs.tracing`; ``None``
    #: otherwise — tracing is off by default and costs nothing here.
    trace: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly representation (the wire-protocol response body)."""
        payload = {
            "probabilities": [float(p) for p in self.probabilities],
            "decisions": [int(d) for d in self.decisions],
            "threshold": self.threshold,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_invalidated": self.cache_invalidated,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.trace is not None:
            payload["trace"] = self.trace
        return payload

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JudgeResponse":
        """Rebuild a response from :meth:`to_dict` output (extra keys ignored)."""
        return cls(
            probabilities=tuple(float(p) for p in data.get("probabilities", [])),
            decisions=tuple(int(d) for d in data.get("decisions", [])),
            threshold=float(data.get("threshold", 0.5)),
            cache_hits=int(data.get("cache_hits", 0)),
            cache_misses=int(data.get("cache_misses", 0)),
            cache_invalidated=int(data.get("cache_invalidated", 0)),
            elapsed_ms=float(data.get("elapsed_ms", 0.0)),
            trace=data.get("trace"),
        )

    def __len__(self) -> int:
        return len(self.probabilities)

    @property
    def num_positive(self) -> int:
        """How many pairs were judged co-located."""
        return int(sum(self.decisions))
