"""The async request-queue front-end: batching, dedup, equivalence.

The load-bearing guarantees:

* queued + deduped + disk-cached annotation is **byte-identical** to a
  direct ``engine.annotate`` call (the ISSUE-2 acceptance criterion);
* concurrent content-identical requests share one annotation and every
  waiter receives the *same* result object;
* drains are work-conserving (what is queued now, up to ``max_batch``, never
  a wait), dedup is single-flight from submit until the answer exists, the
  worker serves everything pending at close, and engine exceptions reach
  each waiter.

Scheduling tests gate the engine with an ``Event`` (``helpers.EngineGate``)
instead of sleeping or leaning on a linger, so timing cannot matter.
"""

from __future__ import annotations

import math
import queue as _queue
import sys
import threading

import numpy as np
import pytest
from helpers import EngineGate, StubEngine

from repro.core import DoduoConfig, DoduoTrainer
from repro.datasets import Column, Table, generate_wikitable_dataset
from repro.nn import TransformerConfig
from repro.serving import (
    AnnotationEngine,
    AnnotationOptions,
    AnnotationRequest,
    AnnotationService,
    EngineConfig,
    EngineWorker,
    QueueConfig,
)
from repro.text import train_wordpiece


@pytest.fixture(scope="module")
def trainer():
    dataset = generate_wikitable_dataset(num_tables=20, seed=13, max_rows=4)
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=600)
    encoder_config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        hidden_dim=32,
        num_layers=2,
        num_heads=2,
        ffn_dim=64,
        max_position=160,
        num_segments=8,
        dropout=0.0,
    )
    config = DoduoConfig(epochs=1, batch_size=8, keep_best_checkpoint=False)
    t = DoduoTrainer(dataset, tokenizer, encoder_config, config)
    t.train()
    return t


def _service(trainer, queue_config=None, engine_config=None, result_cache=None):
    engine = AnnotationEngine(
        trainer, engine_config or EngineConfig(), result_cache=result_cache
    )
    return AnnotationService(engine, queue_config)


def _distinct(n, prefix="t"):
    """``n`` cheap content-distinct tables (for the model-free stub engine)."""
    return [
        Table(
            columns=[Column(values=[f"{prefix}{i}"], header="h")],
            table_id=f"{prefix}{i}",
        )
        for i in range(n)
    ]


@pytest.mark.smoke
class TestQueueEquivalence:
    def test_queued_byte_identical_to_direct(self, trainer, tmp_path):
        """The acceptance regression: queue + dedup + disk cache, three ways
        of answering, all byte-identical to direct engine.annotate."""
        tables = trainer.dataset.tables[:6]
        direct_engine = AnnotationEngine(trainer)
        direct = [direct_engine.annotate(t) for t in tables]

        cache_dir = str(tmp_path / "cache")
        workload = tables * 3  # duplicates exercise dedup fan-out
        with _service(
            trainer, engine_config=EngineConfig(cache_dir=cache_dir)
        ) as service:
            futures = [service.submit(t) for t in workload]
            queued = [f.result() for f in futures]
        # Second service over the same directory: every answer from disk.
        with _service(
            trainer, engine_config=EngineConfig(cache_dir=cache_dir)
        ) as restarted:
            passes_before = trainer.model.encode_calls
            from_disk = [restarted.annotate(t) for t in tables]
            assert trainer.model.encode_calls == passes_before

        for i, want in enumerate(direct):
            for got in (queued[i], queued[i + 6], queued[i + 12], from_disk[i]):
                assert got.coltypes == want.coltypes
                assert got.type_scores == want.type_scores  # exact floats
                assert got.colrels == want.colrels
                assert (
                    got.annotated.requested_pairs == want.annotated.requested_pairs
                )
                assert np.array_equal(got.colemb, want.colemb)
        assert all(r.from_disk for r in from_disk)


@pytest.mark.smoke
class TestDedup:
    @pytest.mark.parametrize("arrive_while", ["queued", "running"])
    def test_waiters_share_one_result_object(self, trainer, arrive_while):
        """8 identical submits = 1 annotation, 7 dedup hits, one shared
        object — whether the group is still queued or already running."""
        blocker, table = trainer.dataset.tables[:2]
        engine = AnnotationEngine(trainer, EngineConfig(cache_size=0))
        gate = EngineGate(engine)
        with AnnotationService(engine) as service:
            # The gate holds the first drain: the 8 twins either all queue
            # behind another table's drain, or 7 attach to their own.
            head = [service.submit(blocker if arrive_while == "queued" else table)]
            gate.wait_entered()
            futures = [service.submit(table) for _ in range(7)]
            futures += head if arrive_while == "running" else [service.submit(table)]
            gate.open()
            results = [f.result(timeout=30) for f in futures]
            head[0].result(timeout=30)
        blockers = 1 if arrive_while == "queued" else 0
        assert all(r is results[0] for r in results)
        assert service.stats.dedup_hits == 7
        assert service.stats.unique_annotated == 1 + blockers
        assert service.stats.completed == 8 + blockers
        assert engine.stats.encoder_passes == 1 + blockers
        assert gate.drains.count([table.table_id]) == 1

    def test_dedup_is_content_based(self, trainer):
        source = trainer.dataset.tables[0]
        twin = Table(columns=source.columns, table_id="different-id")
        engine = AnnotationEngine(trainer)
        gate = EngineGate(engine)
        with AnnotationService(engine) as service:
            first = service.submit(source)
            gate.wait_entered()
            second = service.submit(twin)
            gate.open()
            a, b = first.result(timeout=30), second.result(timeout=30)
        # Content-identical tables share the annotation work...
        assert service.stats.unique_annotated == 1
        assert a.type_scores == b.type_scores
        # ...but every waiter keeps its *own* table identity: the twin's
        # answer must carry the twin's table_id, not the representative's.
        assert a.table.table_id == source.table_id
        assert b.table.table_id == "different-id"
        assert b.to_dict()["table_id"] == "different-id"

    def test_different_options_not_deduped(self, trainer):
        table = trainer.dataset.tables[0]
        with _service(trainer) as service:
            full = service.submit(table)
            trimmed = service.submit(table, AnnotationOptions(top_k=1))
            assert len(full.result().type_scores[0]) > 1
            assert len(trimmed.result().type_scores[0]) == 1
        assert service.stats.dedup_hits == 0
        assert service.stats.unique_annotated == 2

    def test_window_closes_when_the_answer_exists(self):
        """A request submitted after its twin was answered is new work."""
        (table,) = _distinct(1)
        with EngineWorker(StubEngine()) as worker:
            first = worker.annotate(table)
            second = worker.annotate(table)
        assert first is not second
        assert worker.stats.dedup_hits == 0
        assert worker.stats.unique_annotated == 2


@pytest.mark.smoke
class TestScheduler:
    """Work-conserving drains + single-flight groups, on a gated stub."""

    @pytest.mark.parametrize("max_latency", [0.0, 0.01, 60.0])
    def test_backlog_drains_full_fifo_batches(self, max_latency):
        """N distinct requests queued behind a running drain start in
        submit order, ``max_batch`` at a time — whatever ``max_latency``
        says (it is ignored; 0 used to mean drains of one, 60 a minute's
        linger)."""
        blocker, *backlog = _distinct(21)
        engine = StubEngine()
        gate = EngineGate(engine)
        config = QueueConfig(max_batch=8, max_latency=max_latency)
        with EngineWorker(engine, config) as worker:
            futures = [worker.submit(blocker)]
            gate.wait_entered()
            futures += [worker.submit(t) for t in backlog]
            gate.open()
            for future in futures:
                future.result(timeout=30)
        ids = [t.table_id for t in backlog]
        assert gate.drains == [
            [blocker.table_id], ids[:8], ids[8:16], ids[16:]
        ]
        assert worker.stats.batches == math.ceil(len(backlog) / 8) + 1

    def test_idle_worker_serves_a_lone_request_at_once(self):
        """No linger: with a minute of ``max_latency`` a lone request is
        still answered (the 30 s result timeout is the assertion)."""
        (table,) = _distinct(1)
        config = QueueConfig(max_batch=64, max_latency=60.0)
        with EngineWorker(StubEngine(), config) as worker:
            assert worker.submit(table).result(timeout=30).coltypes
        assert worker.stats.batches == 1

    def test_cancelled_waiter_leaves_siblings_answered(self):
        (table,) = _distinct(1)
        engine = StubEngine()
        gate = EngineGate(engine)
        with EngineWorker(engine) as worker:
            futures = [worker.submit(table)]
            gate.wait_entered()
            futures += [worker.submit(table) for _ in range(3)]
            assert futures[0].cancel() and futures[2].cancel()
            gate.open()
            assert futures[1].result(timeout=30) is futures[3].result(timeout=30)
        assert worker.stats.completed == 2
        assert worker.stats.failed == 0
        assert gate.drains == [[table.table_id]]

    def test_group_abandoned_while_queued_costs_no_engine_call(self):
        blocker, table = _distinct(2)
        engine = StubEngine()
        gate = EngineGate(engine)
        with EngineWorker(engine) as worker:
            first = worker.submit(blocker)
            gate.wait_entered()
            abandoned = [worker.submit(table) for _ in range(2)]
            assert all(f.cancel() for f in abandoned)
            gate.open()
            first.result(timeout=30)
            # The window closed with the group: a fresh submit is new work.
            assert worker.annotate(table).coltypes
        assert gate.drains == [[blocker.table_id], [table.table_id]]

    def test_engine_error_reaches_every_attached_waiter(self):
        """A poisoned request fails all ITS waiters; the rest of its
        drain is retried alone and answered."""
        blocker, bad, good = _distinct(3)
        engine = StubEngine(poison={bad.table_id})
        gate = EngineGate(engine)
        with EngineWorker(engine) as worker:
            first = worker.submit(blocker)
            gate.wait_entered()
            failing = [worker.submit(bad) for _ in range(3)]
            healthy = [worker.submit(good) for _ in range(2)]
            gate.open()
            first.result(timeout=30)
            for future in failing:
                with pytest.raises(ValueError, match="poisoned"):
                    future.result(timeout=30)
            assert healthy[0].result(timeout=30) is healthy[1].result(timeout=30)
            # The worker survived.
            assert worker.annotate(good).coltypes
        assert worker.stats.failed == 3
        assert worker.stats.completed + worker.stats.failed == worker.stats.submitted

    def test_close_resolves_queued_and_attached_futures(self):
        blocker, queued = _distinct(2)
        engine = StubEngine()
        gate = EngineGate(engine)
        worker = EngineWorker(engine)
        futures = [worker.submit(blocker)]
        gate.wait_entered()
        futures += [worker.submit(blocker), worker.submit(queued), worker.submit(queued)]
        closer = threading.Thread(target=worker.close)
        closer.start()  # blocks until everything pending is served
        gate.open()
        closer.join(timeout=30)
        assert not closer.is_alive()
        assert all(f.done() and f.result().coltypes for f in futures)
        with pytest.raises(RuntimeError, match="closed"):
            worker.submit(queued)
        worker.close()  # idempotent

    def test_backpressure_bounds_unanswered_futures(self):
        """``max_queue_size`` bounds every future handed out and not yet
        answered — running, queued, and attached waiters alike."""
        running, queued, extra = _distinct(3)
        engine = StubEngine()
        gate = EngineGate(engine)
        config = QueueConfig(max_queue_size=4, submit_timeout=0.01)
        with EngineWorker(engine, config) as worker:
            futures = [worker.submit(running)]
            gate.wait_entered()
            futures += [
                worker.submit(running),  # attached to the running group
                worker.submit(queued),
                worker.submit(queued),  # attached to the queued group
            ]
            for item in (extra, running):  # new group or attach: no room
                with pytest.raises(_queue.Full):
                    worker.submit(item, block=False)
                with pytest.raises(_queue.Full):
                    worker.submit(item)  # blocks for submit_timeout first
            assert sum(not f.done() for f in futures) == 4
            gate.open()
            for future in futures:
                future.result(timeout=30)
            assert worker.submit(extra, block=False).result(timeout=30).coltypes

    def test_blocked_submitter_proceeds_when_room_appears(self):
        running, waiting = _distinct(2)
        engine = StubEngine()
        gate = EngineGate(engine)
        results = []
        with EngineWorker(engine, QueueConfig(max_queue_size=1)) as worker:
            first = worker.submit(running)
            gate.wait_entered()
            submitter = threading.Thread(
                target=lambda: results.append(worker.annotate(waiting))
            )
            submitter.start()  # parks on the full queue (no timeout)
            gate.open()
            submitter.join(timeout=30)
            assert not submitter.is_alive()
            assert first.result(timeout=30).coltypes
        assert results and results[0].table is waiting

    def test_completed_never_exceeds_submitted_in_any_snapshot(self, trainer):
        """The blocking-submit ordering bug: ``submitted`` used to be
        counted after (and outside) the enqueue, so a stats snapshot could
        show more answers than requests."""
        tables = trainer.dataset.tables[:10]
        service = _service(trainer, QueueConfig(max_batch=4))
        worker = service.gateway.worker()
        violations = []
        done = threading.Event()

        def watch():
            while not done.is_set():
                for stats in (worker.stats_snapshot(), service.gateway.stats):
                    if stats.completed + stats.failed > stats.submitted:
                        violations.append(stats)

        def client(offset):
            for i in range(30):
                service.submit(tables[(offset + i) % len(tables)]).result(timeout=30)

        watcher = threading.Thread(target=watch)
        clients = [threading.Thread(target=client, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with service:
                watcher.start()
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=60)
                done.set()
                watcher.join(timeout=30)
                assert not watcher.is_alive()
                assert not any(thread.is_alive() for thread in clients)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert violations == []
        assert service.stats.submitted == service.stats.completed == 6 * 30


@pytest.mark.smoke
class TestQueuePolicy:
    def test_close_serves_pending_then_rejects(self, trainer):
        service = _service(trainer)
        future = service.submit(trainer.dataset.tables[0])
        service.close()
        assert future.result(timeout=5).coltypes  # resolved before shutdown
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(trainer.dataset.tables[0])
        service.close()  # idempotent

    def test_submit_from_many_threads(self, trainer):
        tables = trainer.dataset.tables[:10]
        results = {}
        with _service(trainer, QueueConfig(max_batch=4)) as service:

            def client(index):
                results[index] = service.submit(tables[index]).result(timeout=30)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(tables))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        reference = AnnotationEngine(trainer)
        for i, table in enumerate(tables):
            assert results[i].type_scores == reference.annotate(table).type_scores

    def test_annotate_stream_preserves_order(self, trainer):
        tables = trainer.dataset.tables[:9]
        with _service(trainer, QueueConfig(max_batch=4)) as service:
            streamed = list(service.annotate_stream(iter(tables), window=3))
        assert [r.table.table_id for r in streamed] == [
            t.table_id for t in tables
        ]

    def test_engine_errors_reach_every_waiter(self, trainer):
        bad = Table(
            columns=[Column(values=["x"], header="h")] * 2, table_id="bad-pair"
        )
        with _service(trainer, QueueConfig(max_batch=4)) as service:
            futures = [service.submit(bad) for _ in range(2)]
            # Out-of-range explicit pairs make the engine raise.
            broken = AnnotationRequest(table=bad, pairs=((0, 5),))
            failing = [service.submit(broken) for _ in range(2)]
            for future in futures:
                assert future.result(timeout=10)
            for future in failing:
                with pytest.raises(ValueError, match="out of range"):
                    future.result(timeout=10)
        assert service.stats.failed == 2

    def test_malformed_request_fails_alone_and_worker_survives(self, trainer):
        """A request that breaks the content hash (non-string cells) must
        fail its own future — and only its own — without killing the
        worker thread (a dead worker strands every later future)."""
        poison = Table(
            columns=[Column(values=["3.14", "2.71"], header="nums")],
            table_id="poison",
        )
        # Column coerces constructor values to str; simulate malformed data
        # sneaking in post-construction (the hash hits it first).
        poison.columns[0].values[0] = 3.14
        good = trainer.dataset.tables[0]
        with _service(trainer, QueueConfig(max_batch=4)) as service:
            bad_future = service.submit(poison)
            good_future = service.submit(good)
            assert good_future.result(timeout=10).coltypes
            with pytest.raises(AttributeError):
                bad_future.result(timeout=10)
            # The worker is still alive and serving.
            assert service.annotate(good).coltypes
        assert service.stats.failed == 1
        assert service.stats.submitted == 3

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            QueueConfig(max_batch=0)
        with pytest.raises(ValueError, match="max_latency"):
            QueueConfig(max_latency=-1)
        with pytest.raises(ValueError, match="max_queue_size"):
            QueueConfig(max_queue_size=0)
