"""Model-based test of the MicroBatcher lifecycle with two flushes in flight.

A Hypothesis state machine drives a real :class:`MicroBatcher` over a stub
engine whose ``predict_proba``, ``serve_batch`` and ``invalidate`` calls
each park on a gate until the machine opens it.  A plain-Python model
predicts which calls are parked and which requests are still queued after
every step; the machine waits (bounded, on the stub's condition) until the
batcher agrees, then checks the invariants:

* at most two engine calls are in flight;
* an invalidation call never overlaps another call;
* a request submitted after an invalidation enters the engine only after
  that invalidation returned;
* after close, every future is done, resolved exactly once, with the
  model's answer, and further submits raise.

Derandomized, with every wait bounded and no sleep used for ordering.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api import JudgeRequest
from repro.cluster import MicroBatcher
from repro.data.records import Pair, Profile, Tweet
from repro.errors import ConfigurationError, EngineOverloadError

#: Bound on every wait: a batcher that never reaches the modelled state
#: fails the test instead of hanging it.
WAIT_S = 10.0


@dataclass
class _Call:
    """One engine call: its kind, the request ids it carries, its gate."""

    kind: str
    ids: tuple[int, ...]
    gate: threading.Event = field(default_factory=threading.Event)
    entered: int = -1
    returned: int = -1


class GatedEngine:
    """Stub engine whose every call parks until the test opens its gate.

    Request ids ride the calls: a score or serve request's pair has
    ``left.uid == id`` and an invalidation drops ``[id]``.  Overlap
    violations are recorded at call entry, when they happen.
    """

    def __init__(self):
        self.cond = threading.Condition()
        self.calls: list[_Call] = []  # every call, in entry order
        self.running: list[_Call] = []
        self.violations: list[str] = []
        self.open_all = False
        self._clock = 0

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _park(self, kind: str, ids) -> None:
        call = _Call(kind, tuple(ids))
        with self.cond:
            if len(self.running) >= 2:
                self.violations.append(f"third concurrent call {kind}{call.ids}")
            if kind == "invalidate" and self.running:
                self.violations.append(f"invalidation {call.ids} overlaps a running call")
            if any(other.kind == "invalidate" for other in self.running):
                self.violations.append(f"{kind}{call.ids} overlaps a running invalidation")
            call.entered = self._tick()
            self.calls.append(call)
            self.running.append(call)
            if self.open_all:
                call.gate.set()
            self.cond.notify_all()
        opened = call.gate.wait(WAIT_S)
        with self.cond:
            self.running.remove(call)
            call.returned = self._tick()
            self.cond.notify_all()
        if not opened:
            raise RuntimeError(f"gate of {kind}{call.ids} never opened")

    def parked(self) -> list[_Call]:  # caller holds cond
        return [call for call in self.running if not call.gate.is_set()]

    def release_everything(self) -> None:
        with self.cond:
            self.open_all = True
            for call in self.running:
                call.gate.set()

    # The engine surface the batcher uses.
    def predict_proba(self, pairs):
        self._park("score", [pair.left.uid for pair in pairs])
        return np.array([float(pair.left.uid) for pair in pairs])

    def serve_batch(self, requests):
        requests = list(requests)
        self._park("serve", [request.pairs[0].left.uid for request in requests])
        return requests  # each response is its own request

    def invalidate(self, uids):
        self._park("invalidate", uids)
        return len(uids)


def _pair(request_id: int) -> Pair:
    left = Profile(uid=request_id, tweet=Tweet(uid=request_id, ts=1.0, content="x"))
    right = Profile(uid=-1, tweet=Tweet(uid=-1, ts=1.0, content="y"))
    return Pair(left=left, right=right, co_label=None)


@dataclass
class _Flight:
    """A modelled flush in flight: its remaining calls, head parked."""

    calls: list[tuple[str, tuple[int, ...]]]
    ids: list[int]
    barrier: bool


class BatcherMachine(RuleBasedStateMachine):
    """The batcher against a model of its queue and its two flush slots."""

    def __init__(self):
        super().__init__()
        self.engine = GatedEngine()
        self.batcher: MicroBatcher | None = None
        self.closed = False
        self.kinds: dict[int, str] = {}
        self.futures: dict = {}
        self.resolutions: dict[int, int] = {}
        self.queue: list[int] = []  # modelled queued request ids
        self.flights: list[_Flight] = []
        self.completed: set[int] = set()
        self.failed: set[int] = set()  # failed by a close without drain
        self.max_batch = 1

    # ------------------------------------------------------------- the model
    def _batch(self) -> list[int]:
        batch: list[int] = []
        for request_id in self.queue:
            if batch and len(batch) >= self.max_batch:  # every request weighs 1
                break
            batch.append(request_id)
        return batch

    def _settle(self) -> None:
        """Start every flush the batcher is due to start now."""
        while len(self.flights) < 2 and self.queue:
            if any(flight.barrier for flight in self.flights):
                return
            batch = self._batch()
            barrier = any(self.kinds[i] == "invalidate" for i in batch)
            if barrier and self.flights:
                return
            del self.queue[: len(batch)]
            calls = [("invalidate", (i,)) for i in batch if self.kinds[i] == "invalidate"]
            for kind in ("score", "serve"):
                ids = tuple(i for i in batch if self.kinds[i] == kind)
                if ids:
                    calls.append((kind, ids))
            self.flights.append(_Flight(calls=calls, ids=batch, barrier=barrier))

    def _expected_parked(self) -> list[tuple[str, tuple[int, ...]]]:
        return sorted(flight.calls[0] for flight in self.flights)

    def _await_model(self) -> None:
        """Wait until the batcher reaches the modelled state, then compare."""
        expected = self._expected_parked()
        done = [self.futures[i] for i in self.completed | self.failed]

        def reached() -> bool:
            actual = sorted((call.kind, call.ids) for call in self.engine.parked())
            return actual == expected and all(future.done() for future in done)

        with self.engine.cond:
            self.engine.cond.wait_for(reached, timeout=WAIT_S)
            actual = sorted((call.kind, call.ids) for call in self.engine.parked())
        assert not self.engine.violations, self.engine.violations
        assert actual == expected, f"parked {actual}, model expects {expected}"
        assert self.batcher.queue_depth == len(self.queue)

    def _open_oldest(self) -> None:
        with self.engine.cond:
            parked = self.engine.parked()
            assert parked, "the model has a flush in flight but nothing is parked"
            call = parked[0]
        (flight,) = [f for f in self.flights if f.calls[0] == (call.kind, call.ids)]
        flight.calls.pop(0)
        if not flight.calls:
            self.flights.remove(flight)
            self.completed.update(flight.ids)
        call.gate.set()
        self._settle()
        self._await_model()

    # ------------------------------------------------------------------ rules
    @initialize(max_batch=st.sampled_from([1, 2, 64]))
    def start(self, max_batch):
        self.max_batch = max_batch
        self.batcher = MicroBatcher(
            self.engine, max_batch=max_batch, max_delay_ms=0.0, max_queue=1024
        )

    @precondition(lambda self: not self.closed)
    @rule(kind=st.sampled_from(["score", "serve", "invalidate"]))
    def submit(self, kind):
        request_id = len(self.kinds)
        self.kinds[request_id] = kind
        if kind == "score":
            future = self.batcher.submit_score([_pair(request_id)])
        elif kind == "serve":
            future = self.batcher.submit_serve(JudgeRequest(pairs=(_pair(request_id),)))
        else:
            future = self.batcher.submit_invalidate([request_id])
        self.resolutions[request_id] = 0

        def resolved(_, request_id=request_id):
            with self.engine.cond:
                self.resolutions[request_id] += 1
                self.engine.cond.notify_all()

        future.add_done_callback(resolved)
        self.futures[request_id] = future
        self.queue.append(request_id)
        self._settle()
        self._await_model()

    @precondition(lambda self: not self.closed and self.flights)
    @rule()
    def open_oldest_gate(self):
        self._open_oldest()

    @precondition(lambda self: not self.closed)
    @rule(drain=st.booleans())
    def close(self, drain):
        self.closed = True
        closer = threading.Thread(target=self.batcher.close, kwargs={"drain": drain})
        if not drain:
            self.failed.update(self.queue)
            self.queue.clear()
        closer.start()
        self._await_model()
        while self.flights:
            self._open_oldest()
        closer.join(WAIT_S)
        assert not closer.is_alive(), "close() did not return once every flush finished"
        self._check_answers()

    @precondition(lambda self: self.closed)
    @rule()
    def submit_after_close(self):
        with pytest.raises(ConfigurationError, match="closed"):
            self.batcher.submit_score([_pair(len(self.kinds))])

    def _check_answers(self) -> None:
        for request_id, future in self.futures.items():
            assert future.done(), f"request {request_id} left pending"
            with self.engine.cond:
                assert self.resolutions[request_id] == 1, f"request {request_id} resolved twice"
            if request_id in self.failed:
                assert isinstance(future.exception(), EngineOverloadError)
                continue
            kind = self.kinds[request_id]
            if kind == "score":
                np.testing.assert_array_equal(future.result(), [float(request_id)])
            elif kind == "serve":
                assert future.result().pairs[0].left.uid == request_id
            else:
                assert future.result() == 1

    # ------------------------------------------------------------- invariants
    @invariant()
    def invalidations_win_over_later_requests(self):
        with self.engine.cond:
            calls = list(self.engine.calls)
            violations = list(self.engine.violations)
        assert not violations, violations
        returned = {
            call.ids[0]: call.returned for call in calls if call.kind == "invalidate"
        }
        invalidations = [i for i, kind in self.kinds.items() if kind == "invalidate"]
        for call in calls:
            if call.kind == "invalidate":
                continue
            for request_id in call.ids:
                for earlier in invalidations:
                    if earlier >= request_id:
                        break
                    finished = returned.get(earlier, -1)
                    assert 0 < finished < call.entered, (
                        f"{call.kind} request {request_id} entered the engine before "
                        f"invalidation {earlier} returned"
                    )

    def teardown(self):
        self.engine.release_everything()
        if self.batcher is not None:
            self.batcher.close(drain=False)


BatcherMachine.TestCase.settings = settings(
    derandomize=True,
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestBatcherModel = BatcherMachine.TestCase
