"""A stateful model of the one front door, ``EngineWorker``.

Hypothesis drives one worker over a real engine with a result store
through random sequences of: submits (duplicates and a content-equal twin
included), cancels, ``answer_stored`` probes, releases of one held drain,
and ``close``.  The engine is gated, so drains pile up and requests join
running groups in every order the rules allow.  Checked throughout:

* every future that is not cancelled resolves exactly once, with the wire
  bytes of its own table (a twin gets its own ``table_id`` back), and so
  does every store hit;
* ``completed + failed <= submitted`` in every snapshot, and no counter
  ever goes down;
* after ``close`` every future is resolved, the worker thread has been
  joined, and submitting raises.
"""

from __future__ import annotations

import tempfile
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.datasets.tables import Table
from repro.serving import (
    AnnotationEngine,
    AnnotationOptions,
    AnnotationRequest,
    EngineWorker,
    FabricCache,
    QueueConfig,
    protocol,
)
from repro.serving.diskcache import encode_annotation, request_identity

OPTIONS = AnnotationOptions(with_embeddings=False, top_k=3)
HOT = 2  # pool entries the store holds before the first step


def _line(result) -> bytes:
    return protocol.encode_line(protocol.encode_result(result)).encode("utf-8")


class _Gate:
    """Holds each engine call until one permit is released."""

    TIMEOUT = 30.0

    def __init__(self, engine) -> None:
        self.permits = threading.Semaphore(0)
        inner = engine.annotate_batch

        def gated(requests, *args, **kwargs):
            assert self.permits.acquire(timeout=self.TIMEOUT), "drain never released"
            return inner(requests, *args, **kwargs)

        engine.annotate_batch = gated

    def open(self) -> None:
        self.permits.release(10_000)


@pytest.fixture(scope="module")
def pool(shared_tiny_annotator):
    """Four tables plus a content-equal twin of the first, with each one's
    reference wire line and store entry — all computed before any worker
    thread shares the trainer."""
    tables = list(shared_tiny_annotator.trainer.dataset.tables[:4])
    tables.append(Table(columns=tables[0].columns, table_id="the-twin"))
    engine = AnnotationEngine(shared_tiny_annotator.trainer)
    requests = [AnnotationRequest(table=t, options=OPTIONS) for t in tables]
    results = engine.annotate_batch(requests)
    lines = [_line(result) for result in results]
    entries = [
        (request_identity(engine.model_fingerprint, r).cache_key, encode_annotation(x))
        for r, x in zip(requests[:HOT], results[:HOT])
    ]
    return tables, lines, entries


@pytest.mark.smoke
def test_the_front_door_under_random_traffic(shared_tiny_annotator, pool):
    tables, lines, entries = pool
    trainer = shared_tiny_annotator.trainer

    class FrontDoor(RuleBasedStateMachine):
        def __init__(self) -> None:
            super().__init__()
            self.directory = tempfile.TemporaryDirectory()
            store = FabricCache(self.directory.name, refresh_interval=0.0)
            for key, payload in entries:
                store.put(key, payload)
            self.engine = AnnotationEngine(trainer, result_cache=store)
            self.gate = _Gate(self.engine)
            self.worker = EngineWorker(self.engine, QueueConfig(max_batch=2))
            self.futures = []  # (future, pool index, resolutions)
            self.closed = False
            self.last = self.worker.stats_snapshot()
            self.routed = 0

        def _request(self, which):
            return AnnotationRequest(table=tables[which], options=OPTIONS)

        @rule(which=st.integers(0, len(tables) - 1))
        def submit(self, which):
            if self.closed:
                with pytest.raises(RuntimeError, match="closed"):
                    self.worker.submit(self._request(which))
                return
            future = self.worker.submit(self._request(which))
            resolutions = []
            future.add_done_callback(resolutions.append)
            self.futures.append((future, which, resolutions))

        @precondition(lambda self: self.futures)
        @rule(data=st.data())
        def cancel(self, data):
            future, _, _ = data.draw(st.sampled_from(self.futures))
            future.cancel()

        @rule(which=st.integers(0, len(tables) - 1))
        def answer_stored(self, which):
            request = self._request(which)

            def render(payload):
                answer = protocol.encode_stored(payload, request.table)
                return protocol.encode_line(answer).encode("utf-8")

            answer, identity = self.worker.answer_stored(request, render)
            assert identity is not None  # an admitted route is always hashed
            if answer is not None:
                assert not self.closed
                assert answer == lines[which]

        @rule()
        def release(self):
            self.gate.permits.release()

        @precondition(lambda self: not self.closed)
        @rule()
        def close(self):
            thread = self.worker._worker
            self.gate.open()
            self.worker.close()
            self.closed = True
            assert thread is None or not thread.is_alive()
            for future, _, _ in self.futures:
                assert future.done()

        @invariant()
        def counters_hold(self):
            snapshot = self.worker.stats_snapshot()
            assert snapshot.completed + snapshot.failed <= snapshot.submitted
            for name in type(snapshot).COUNTERS:
                assert getattr(snapshot, name) >= getattr(self.last, name), name
            routed = self.worker.stats_sections()["registry"].routed
            assert routed >= self.routed
            self.last, self.routed = snapshot, routed

        def teardown(self):
            if not self.closed:
                self.close()
            for future, which, resolutions in self.futures:
                if future.cancelled():
                    continue
                assert len(resolutions) == 1
                result = future.result()
                assert result.table is tables[which]
                assert _line(result) == lines[which]
            final = self.worker.stats_snapshot()
            assert final.failed == 0
            assert final.completed == final.submitted - sum(
                future.cancelled() for future, _, _ in self.futures
            )
            self.directory.cleanup()

    run_state_machine_as_test(
        FrontDoor,
        settings=settings(
            max_examples=30, stateful_step_count=20, deadline=None,
            derandomize=True,
        ),
    )
