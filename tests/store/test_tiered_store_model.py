"""Model-based test of :class:`TieredStore` against a plain dict.

A Hypothesis state machine drives a two-row hot tier over an arena cold tier
with random puts, gets, invalidations, stale sweeps and clears, and checks
every returned row and drop count against a dict model.  After each step the
one cache-statistics snapshot must stay self-consistent: every lookup is a
hit or a miss, every hit is answered by exactly one tier, ``invalidated``
equals the drops the calls returned, and the hot tier never exceeds its
bound.

Two rules restart the store over the same arena directory: a clean
``close()`` and a crash (the store is dropped unclosed and the arena is
replayed from its flushed log).  Either way every row the model holds comes
back with exact bytes and every dropped key stays dropped.  The revision
watermarks differ: ``close()`` compacts the log to the live puts, so a clean
reopen rebuilds them from the live keys only, while a crash replays every
put since the last compaction and keeps them.
"""

import shutil
import tempfile

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.protocols import UNREVISIONED
from repro.store import ArenaStore, HotStore, TieredStore

UIDS = st.integers(min_value=0, max_value=3)
#: ``UNREVISIONED`` keys are never stale, so the sweep must skip them.
REVISIONS = st.sampled_from([UNREVISIONED, 0, 1, 2])


def key(uid, revision):
    return (uid, 0.0, "content", 1, revision)


class TieredStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="tiered-model-")
        self.model: dict = {}
        #: Highest revision put per uid since the log was last compacted:
        #: the stale watermark, which survives drops and clears.
        self.latest: dict[int, int] = {}
        self.open_store()

    def open_store(self):
        """A fresh store over the arena directory, with fresh counters."""
        self.store = TieredStore(HotStore(2), ArenaStore(self.directory, capacity=64))
        self.hits = self.misses = self.dropped = 0

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    @rule(uid=UIDS, revision=REVISIONS, value=st.integers(min_value=0, max_value=9))
    def put(self, uid, revision, value):
        self.store.put(key(uid, revision), np.full(3, float(value)))
        self.model[key(uid, revision)] = float(value)
        self.latest[uid] = max(self.latest.get(uid, UNREVISIONED), revision)

    @rule(uid=UIDS, revision=REVISIONS)
    def get(self, uid, revision):
        row = self.store.get(key(uid, revision))
        expected = self.model.get(key(uid, revision))
        if expected is None:
            assert row is None
            self.misses += 1
        else:
            assert np.array_equal(row, np.full(3, expected))
            self.hits += 1

    @rule(uids=st.sets(UIDS, max_size=2))
    def invalidate(self, uids):
        doomed = [k for k in self.model if k[0] in uids]
        dropped = self.store.invalidate(uids)
        assert dropped == len(doomed)
        for k in doomed:
            del self.model[k]
        self.dropped += dropped

    @rule()
    def invalidate_stale(self):
        doomed = [k for k in self.model if 0 <= k[4] < self.latest[k[0]]]
        dropped = self.store.invalidate_stale()
        assert dropped == len(doomed)
        for k in doomed:
            del self.model[k]
        self.dropped += dropped

    @rule()
    def clear(self):
        self.store.clear()
        self.model.clear()

    @rule()
    def close_and_reopen(self):
        self.store.close()
        self.open_store()
        self.latest = {}
        for uid, *_, revision in self.model:
            self.latest[uid] = max(self.latest.get(uid, UNREVISIONED), revision)

    @rule()
    def crash_and_reopen(self):
        self.open_store()  # the old store is dropped unclosed

    @invariant()
    def stats_are_consistent(self):
        stats = self.store.stats()
        assert (stats.hits, stats.misses) == (self.hits, self.misses)
        assert stats.hot_hits + stats.cold_hits == stats.hits
        assert stats.invalidated == self.dropped
        assert stats.size <= stats.maxsize == 2
        assert stats.cold_size == len(self.model)


TieredStoreMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
test_tiered_store_matches_a_dict_model = TieredStoreMachine.TestCase
