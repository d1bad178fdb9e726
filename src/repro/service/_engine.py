"""Shared engine plumbing of the service layer.

Every application takes a :class:`repro.api.ColocationEngine` — or a
:class:`repro.cluster.ShardedEngine`, which exposes the same serving surface —
as its first argument; raw fitted judges are still accepted (and wrapped on
the fly) so pre-engine call sites keep working.
"""

from __future__ import annotations

from repro.api import ColocationEngine
from repro.errors import ConfigurationError


def resolve_engine(engine):
    """Normalise a service's ``engine`` argument to an engine.

    A partitioned engine (:class:`repro.cluster.ShardedEngine` or
    :class:`repro.cluster.WorkerPool`) or a :class:`repro.cluster.MicroBatcher`
    passes through unchanged — all of them speak the full engine surface
    (``predict_proba`` / ``probability_matrix`` / ``warm`` / ``serve`` /
    ``cache_info`` / ``registry``) — so every service gains the sharded,
    micro-batched and process-worker paths by construction.
    """
    if engine is None:
        raise ConfigurationError("an engine (or fitted judge) is required")
    from repro.cluster.batcher import MicroBatcher
    from repro.cluster.sharded import PartitionedEngine

    if isinstance(engine, (PartitionedEngine, MicroBatcher)):
        return engine
    return ColocationEngine.ensure(engine)
