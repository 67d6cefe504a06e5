"""The serving front door over its one model: routes, the loader, asyncio.

The load-bearing guarantees:

* every :class:`~repro.serving.EngineWorker` answer is **byte-identical**
  to the single-engine ``engine.annotate`` output — from the thread
  ``submit()`` path *and* the asyncio ``asubmit()`` path;
* a route — a request's ``model`` field — is ``None``, ``"default"`` or
  the model fingerprint, and any other route (another model's
  fingerprint included) is refused by ``submit``, ``asubmit`` and
  ``answer_stored`` before it costs an encoder pass;
* ``load_engine`` roots the result store at ``cache_dir/<fingerprint>``,
  so a fresh process answers from disk;
* the ``ModelRegistry`` shim holds one model: a second ``register`` raises.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core import Doduo, DoduoConfig, DoduoTrainer, save_annotator
from repro.datasets import generate_wikitable_dataset
from repro.nn import TransformerConfig
from repro.serving import (
    AnnotationEngine,
    AnnotationRequest,
    EngineConfig,
    EngineWorker,
    ModelRegistry,
    QueueConfig,
    load_engine,
)
from repro.text import train_wordpiece


def _make_trainer(seed: int) -> DoduoTrainer:
    dataset = generate_wikitable_dataset(num_tables=14, seed=seed, max_rows=3)
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=500)
    encoder_config = TransformerConfig(
        vocab_size=tokenizer.vocab_size,
        hidden_dim=16,
        num_layers=1,
        num_heads=2,
        ffn_dim=32,
        max_position=160,
        num_segments=8,
        dropout=0.0,
    )
    config = DoduoConfig(epochs=1, batch_size=4, keep_best_checkpoint=False)
    trainer = DoduoTrainer(dataset, tokenizer, encoder_config, config)
    trainer.train()
    return trainer


@pytest.fixture(scope="module")
def trainer_a():
    return _make_trainer(31)


@pytest.fixture(scope="module")
def trainer_b():
    return _make_trainer(47)


@pytest.fixture(scope="module")
def bundle(trainer_a, tmp_path_factory):
    root = tmp_path_factory.mktemp("gateway-bundle")
    save_annotator(Doduo(trainer_a), root / "a")
    return root / "a"


def _direct(trainer, tables):
    engine = AnnotationEngine(trainer)
    return [engine.annotate(t) for t in tables]


def _assert_same_annotation(got, want):
    assert got.coltypes == want.coltypes
    assert got.type_scores == want.type_scores  # exact floats
    assert got.colrels == want.colrels
    assert np.array_equal(got.colemb, want.colemb)


def _routed(table, route):
    return AnnotationRequest(table=table, model=route)


@pytest.mark.smoke
class TestRouting:
    def test_mixed_corpus_byte_identical_per_model(self, trainer_a):
        """A corpus mixing the three admitted routes — none, the name,
        the fingerprint — interleaved: every answer is byte-identical to
        the dedicated single-engine output."""
        tables = trainer_a.dataset.tables[:5]
        want = _direct(trainer_a, tables)
        routes = (None, "default", trainer_a.annotation_fingerprint())
        with EngineWorker(AnnotationEngine(trainer_a)) as worker:
            futures = [
                [worker.submit(_routed(table, route)) for route in routes]
                for table in tables
            ]
            for i, per_route in enumerate(futures):
                for future in per_route:
                    _assert_same_annotation(future.result(), want[i])

    def test_default_route_and_request_field_priority(self, trainer_a):
        """The request's own ``model`` field is the route: a bare table and
        ``"default"`` are served, anything else is refused."""
        table = trainer_a.dataset.tables[0]
        want = _direct(trainer_a, [table])[0]
        with EngineWorker(AnnotationEngine(trainer_a)) as worker:
            _assert_same_annotation(worker.annotate(table), want)
            _assert_same_annotation(worker.annotate(_routed(table, "default")), want)
            with pytest.raises(KeyError, match="no model registered"):
                worker.submit(_routed(table, "nope"))

    def test_fingerprint_route(self, trainer_a):
        table = trainer_a.dataset.tables[0]
        want = _direct(trainer_a, [table])[0]
        engine = AnnotationEngine(trainer_a)
        fingerprint = engine.model_fingerprint
        assert fingerprint == trainer_a.annotation_fingerprint()
        with EngineWorker(engine) as worker:
            assert worker.admits(fingerprint)
            _assert_same_annotation(
                worker.annotate(_routed(table, fingerprint)), want
            )

    def test_unknown_route_raises(self, trainer_a, trainer_b, tmp_path):
        """A route naming neither the model nor its fingerprint — another
        model's fingerprint included — is refused by ``submit``,
        ``asubmit`` and ``answer_stored`` before it costs an encoder pass
        (or a count), even with the table stored, and the worker keeps
        serving."""
        engine = AnnotationEngine(
            trainer_a, EngineConfig(cache_dir=str(tmp_path / "cache"))
        )
        table = trainer_a.dataset.tables[0]
        with EngineWorker(engine) as worker:
            assert worker.annotate(table).coltypes
            passes = engine.stats.encoder_passes
            before = worker.stats_sections()
            for route in ("nope", trainer_b.annotation_fingerprint()):
                assert not worker.admits(route)
                with pytest.raises(KeyError, match="no model registered"):
                    worker.submit(_routed(table, route))
                with pytest.raises(KeyError, match="no model registered"):
                    asyncio.run(worker.asubmit(_routed(table, route)))
                assert worker.answer_stored(
                    _routed(table, route), lambda payload: payload
                ) == (None, None)
            assert engine.stats.encoder_passes == passes
            after = worker.stats_sections()
            for section in ("gateway", "registry"):
                assert after[section].to_dict() == before[section].to_dict()
            assert worker.annotate(table).coltypes

    def test_closed_gateway_rejects(self, trainer_a):
        worker = EngineWorker(AnnotationEngine(trainer_a))
        table = trainer_a.dataset.tables[0]
        assert worker.annotate(table).coltypes
        worker.close()
        with pytest.raises(RuntimeError, match="closed"):
            worker.submit(table)
        worker.close()  # idempotent

    def test_stats_to_dict_round_trips_json(self, trainer_a):
        import json as _json

        with EngineWorker(AnnotationEngine(trainer_a)) as worker:
            worker.annotate(trainer_a.dataset.tables[0])
            sections = {
                name: counters.to_dict()
                for name, counters in worker.stats_sections().items()
            }
            payload = _json.loads(_json.dumps(sections))
        gateway = payload["gateway"]
        assert gateway["completed"] == 1
        assert gateway["models"]["default"]["completed"] == 1
        assert gateway["engines"]["default"]["encoder_passes"] >= 1
        assert "padding_waste" in gateway["engines"]["default"]
        # An in-memory model was never loaded from a checkpoint.
        assert payload["registry"]["registered"] == 1
        assert payload["registry"]["loads"] == 0
        assert payload["registry"]["routed"] == 1


@pytest.mark.smoke
class TestRegistration:
    @pytest.mark.parametrize("second", ["same-object", "engine", "bundle"])
    def test_a_second_register_raises(self, trainer_a, bundle, second):
        """The registry shim holds one model: registering anything under a
        second name — the live trainer, an engine over it, or the bundle
        again — raises, and the first registration keeps serving."""
        registry = ModelRegistry()
        registry.register("a", bundle)
        source = {
            "same-object": trainer_a,
            "engine": AnnotationEngine(trainer_a),
            "bundle": bundle,
        }[second]
        with pytest.raises(ValueError, match="already registered"):
            registry.register("alias", source)
        name, engine = registry.acquire()
        assert name == "a"
        assert engine.model_fingerprint == trainer_a.annotation_fingerprint()


@pytest.mark.smoke
class TestIsolation:
    def test_disk_cache_partitioned_per_fingerprint(self, trainer_a, bundle, tmp_path):
        cache_root = tmp_path / "cache"
        tables = trainer_a.dataset.tables[:3]

        def build():
            engine = load_engine(bundle, EngineConfig(), cache_dir=cache_root)
            return EngineWorker(engine)

        with build() as cold:
            for table in tables:
                cold.annotate(table)
        assert cold.stats_sections()["gateway"].disk_hits == 0
        # The store lives in the fingerprint's segment directory.
        fingerprint = trainer_a.annotation_fingerprint()
        assert list((cache_root / fingerprint).glob("segment-*.jsonl"))
        # A fresh worker over the same root answers everything from disk,
        # byte-identically.
        want = _direct(trainer_a, tables)
        with build() as warm:
            for i, table in enumerate(tables):
                _assert_same_annotation(warm.annotate(table), want[i])
            assert warm.engine.stats.encoder_passes == 0
            warm_stats = warm.stats_sections()["gateway"]
        assert warm_stats.disk_hits == len(tables)
        assert warm_stats.engines["default"].disk_hits == len(tables)


@pytest.mark.smoke
class TestAnswerStored:
    """``answer_stored``: the non-blocking store probe a front-end that
    renders payloads itself (the socket server) asks before ``asubmit``."""

    @staticmethod
    def _render(payload):
        return payload["coltypes"]

    def test_hit_miss_and_what_each_counts(
        self, bundle, trainer_a, trainer_b, tmp_path
    ):
        engine = load_engine(bundle, EngineConfig(), cache_dir=tmp_path / "cache")
        table, other = trainer_a.dataset.tables[:2]
        with EngineWorker(engine) as worker:
            request = AnnotationRequest(table=table, model="default")
            # The model is loaded before the first request: a cold store
            # is a miss, hashed and handed back, counting nothing.
            answer, identity = worker.answer_stored(request, self._render)
            assert answer is None
            assert identity.cache_key == engine.identify(request).cache_key
            assert worker.stats_snapshot().submitted == 0
            # The miss's hash rides into submit; the drain computes and stores.
            want = worker.submit(request, identity=identity).result()
            routed = worker.stats_sections()["registry"].routed
            answer, identity = worker.answer_stored(request, self._render)
            assert answer == want.coltypes
            assert identity.cache_key == engine.identify(request).cache_key
            sections = worker.stats_sections()
            stats = sections["gateway"]
            assert (stats.submitted, stats.completed, stats.batches) == (2, 2, 1)
            assert (stats.disk_hits, stats.disk_misses) == (1, 1)
            assert stats.engines["default"].requests == 2
            # The hit skipped the queue, and with it the route count.
            assert sections["registry"].routed == routed == 1
            assert (sections["registry"].loads, sections["registry"].arena_remaps) == (1, 0)
            # A miss hands back the identity and counts nothing...
            miss = AnnotationRequest(table=other, model="default")
            answer, identity = worker.answer_stored(miss, self._render)
            assert answer is None and identity is not None
            # ...and so does a payload the renderer declines, or chokes on.
            assert worker.answer_stored(request, lambda payload: None)[0] is None
            with pytest.raises(ZeroDivisionError):
                worker.answer_stored(request, lambda payload: 1 // 0)
            after = worker.stats_sections()["gateway"]
            assert (after.submitted, after.completed) == (2, 2)
            assert (after.disk_hits, after.disk_misses) == (1, 1)
            # Refused routes are asubmit's to report: a stored answer of
            # these weights never answers a request pinned to others.
            for route in ("ghost", trainer_b.annotation_fingerprint()):
                pinned = AnnotationRequest(table=table, model=route)
                assert worker.answer_stored(pinned, self._render) == (None, None)
        # Closed: hashed, but never answered.
        assert worker.answer_stored(request, self._render)[0] is None

    def test_no_store_means_no_hashing(self, trainer_a, walks):
        with EngineWorker(AnnotationEngine(trainer_a)) as worker:
            table = trainer_a.dataset.tables[0]
            worker.annotate(table)
            del walks[:]
            request = AnnotationRequest(table=table)
            assert worker.answer_stored(request, self._render) == (None, None)
            assert walks == []


@pytest.mark.smoke
class TestAsyncio:
    def test_asubmit_byte_identical_to_submit(self, trainer_a):
        tables = trainer_a.dataset.tables[:4]
        with EngineWorker(AnnotationEngine(trainer_a)) as worker:
            threaded = [worker.annotate(t) for t in tables]

            async def run():
                return [await worker.asubmit(t) for t in tables]

            awaited = asyncio.run(run())
        for got, want in zip(awaited, threaded):
            _assert_same_annotation(got, want)

    def test_asubmit_backpressure_yields_not_blocks(self, trainer_a):
        """With a tiny queue and no worker yet started, asubmit must retry
        via the event loop (other coroutines keep running) instead of
        blocking the loop thread."""
        worker = EngineWorker(
            AnnotationEngine(trainer_a),
            QueueConfig(max_queue_size=1, submit_timeout=5.0),
        )
        table = trainer_a.dataset.tables[0]
        ticks = []

        async def ticker():
            for _ in range(5):
                ticks.append(1)
                await asyncio.sleep(0.002)

        async def run():
            submits = [worker.asubmit(table) for _ in range(6)]
            results, _ = await asyncio.gather(
                asyncio.gather(*submits), ticker()
            )
            return results

        with worker:
            results = asyncio.run(run())
        assert len(results) == 6
        assert len(ticks) == 5  # the loop stayed responsive throughout


@pytest.mark.smoke
class TestCompatibilityWrappers:
    def test_doduo_gateway_property(self, trainer_a):
        annotator = Doduo(trainer_a)
        assert isinstance(annotator.gateway, EngineWorker)
        # The sync wrapper and the worker share one engine object.
        assert annotator.engine is annotator.gateway.engine
        assert annotator.gateway is annotator.gateway  # memoized

    def test_submit_from_many_threads_across_routes(self, trainer_a):
        tables = trainer_a.dataset.tables[:8]
        fingerprint = trainer_a.annotation_fingerprint()
        results = {}
        with EngineWorker(
            AnnotationEngine(trainer_a), QueueConfig(max_batch=4)
        ) as worker:

            def client(index):
                route = "default" if index % 2 == 0 else fingerprint
                results[index] = worker.submit(
                    _routed(tables[index], route)
                ).result(timeout=30)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(tables))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        reference = AnnotationEngine(trainer_a)
        assert sorted(results) == list(range(len(tables)))
        for index, result in results.items():
            _assert_same_annotation(result, reference.annotate(tables[index]))
