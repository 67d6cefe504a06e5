"""The serving gateway over its one model: registry, routes, asyncio.

The load-bearing guarantees:

* every gateway answer is **byte-identical** to the single-engine
  ``engine.annotate`` output — from the thread ``submit()`` path *and*
  the asyncio ``asubmit()``/``astream()`` path;
* a route is ``None``, the registered name or the model fingerprint, a
  request's own ``model`` field wins over call-site defaults, and any
  other route — another model's fingerprint included — is refused before
  it costs an encoder pass;
* a registry holds one model: a second ``register`` raises;
* the registry roots the result store at ``cache_dir/<fingerprint>``, so
  a fresh process answers from disk.
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
    AnnotationGateway,
    AnnotationRequest,
    AnnotationService,
    EngineConfig,
    ModelRegistry,
    QueueConfig,
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


@pytest.mark.smoke
class TestRouting:
    def test_mixed_corpus_byte_identical_per_model(self, trainer_a):
        """A corpus mixing the three admitted routes — none, the name,
        the fingerprint — interleaved: every answer is byte-identical to
        the dedicated single-engine output."""
        tables = trainer_a.dataset.tables[:5]
        want = _direct(trainer_a, tables)
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        routes = (None, "a", trainer_a.annotation_fingerprint())
        with AnnotationGateway(registry) as gateway:
            futures = [
                [gateway.submit(table, model=route) for route in routes]
                for table in tables
            ]
            for i, per_route in enumerate(futures):
                for future in per_route:
                    _assert_same_annotation(future.result(), want[i])

    def test_default_route_and_request_field_priority(self, trainer_a):
        table = trainer_a.dataset.tables[0]
        want = _direct(trainer_a, [table])[0]
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        with AnnotationGateway(registry) as gateway:
            _assert_same_annotation(gateway.annotate(table), want)
            # The request's own model field wins over the call-site route,
            # whether it admits the request or refuses it.
            routed = AnnotationRequest(table=table, model="a")
            _assert_same_annotation(gateway.annotate(routed, model="nope"), want)
            elsewhere = AnnotationRequest(table=table, model="nope")
            with pytest.raises(KeyError, match="no model registered"):
                gateway.submit(elsewhere, model="a")

    def test_fingerprint_route(self, trainer_a):
        table = trainer_a.dataset.tables[0]
        want = _direct(trainer_a, [table])[0]
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        fingerprint = registry.get().model_fingerprint
        assert fingerprint == trainer_a.annotation_fingerprint()
        with AnnotationGateway(registry) as gateway:
            _assert_same_annotation(
                gateway.annotate(table, model=fingerprint), want
            )

    def test_unknown_route_raises(self, trainer_a, trainer_b):
        """A route naming neither the model nor its fingerprint — another
        model's fingerprint included — is refused before it costs an
        encoder pass, and the gateway keeps serving."""
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        table = trainer_a.dataset.tables[0]
        with AnnotationGateway(registry) as gateway:
            assert gateway.annotate(table).coltypes
            passes = gateway.stats.encoder_passes
            for route in ("nope", trainer_b.annotation_fingerprint()):
                with pytest.raises(KeyError, match="no model registered"):
                    gateway.submit(table, model=route)
            assert gateway.stats.encoder_passes == passes
            assert gateway.annotate(table).coltypes

    def test_closed_gateway_rejects(self, trainer_a):
        gateway = AnnotationGateway.for_engine(AnnotationEngine(trainer_a))
        table = trainer_a.dataset.tables[0]
        assert gateway.annotate(table).coltypes
        gateway.close()
        with pytest.raises(RuntimeError, match="closed"):
            gateway.submit(table)
        gateway.close()  # idempotent

    def test_stats_to_dict_round_trips_json(self, trainer_a):
        import json as _json

        gateway = AnnotationGateway.for_engine(AnnotationEngine(trainer_a))
        with gateway:
            gateway.annotate(trainer_a.dataset.tables[0])
            payload = _json.loads(_json.dumps(gateway.stats.to_dict()))
        assert payload["completed"] == 1
        assert payload["models"]["default"]["completed"] == 1
        assert payload["engines"]["default"]["encoder_passes"] >= 1
        assert "padding_waste" in payload["engines"]["default"]


@pytest.mark.smoke
class TestRegistration:
    @pytest.mark.parametrize("second", ["same-object", "engine", "bundle"])
    def test_a_second_register_raises(self, trainer_a, bundle, second):
        """A registry holds one model: registering anything under a second
        name — the same live object, an engine over it, or a bundle —
        raises, and the first registration keeps serving."""
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        source = {
            "same-object": trainer_a,
            "engine": AnnotationEngine(trainer_a),
            "bundle": bundle,
        }[second]
        with pytest.raises(ValueError, match="already registered"):
            registry.register("alias", source)
        assert registry.default_name == "a"
        assert registry.stats.registered == 1
        assert registry.get().trainer is trainer_a


@pytest.mark.smoke
class TestIsolation:
    def test_disk_cache_partitioned_per_fingerprint(self, trainer_a, tmp_path):
        cache_root = tmp_path / "cache"
        tables = trainer_a.dataset.tables[:3]

        def build():
            registry = ModelRegistry(cache_dir=cache_root)
            registry.register("a", trainer_a)
            return AnnotationGateway(registry)

        with build() as gateway:
            for table in tables:
                gateway.annotate(table)
            cold = gateway.stats
        assert cold.disk_hits == 0
        # The store lives in the fingerprint's segment directory.
        fingerprint = trainer_a.annotation_fingerprint()
        assert list((cache_root / fingerprint).glob("segment-*.jsonl"))
        # A fresh gateway over the same root answers everything from disk,
        # byte-identically.
        want = _direct(trainer_a, tables)
        with build() as warm:
            passes_before = trainer_a.model.encode_calls
            for i, table in enumerate(tables):
                _assert_same_annotation(warm.annotate(table), want[i])
            assert trainer_a.model.encode_calls == passes_before
            warm_stats = warm.stats
        assert warm_stats.disk_hits == len(tables)
        assert warm_stats.engines["a"].disk_hits == len(tables)


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
        registry = ModelRegistry(cache_dir=tmp_path / "cache")
        registry.register("a", bundle)
        table, other = trainer_a.dataset.tables[:2]
        with AnnotationGateway(registry) as gateway:
            request = AnnotationRequest(table=table, model="a")
            # No worker yet: nothing is loaded, hashed or counted.
            assert gateway.answer_stored(request, self._render) == (None, None)
            assert registry.stats.loads == 0
            want = gateway.annotate(request)  # loads, computes, stores
            routed = registry.stats.routed
            answer, identity = gateway.answer_stored(request, self._render)
            assert answer == want.coltypes
            assert identity.cache_key == gateway.worker("a").engine.identify(
                request
            ).cache_key
            stats = gateway.stats
            assert (stats.submitted, stats.completed, stats.batches) == (2, 2, 1)
            assert (stats.disk_hits, stats.disk_misses) == (1, 1)
            assert stats.engines["a"].requests == 2
            # The hit never asked the registry; .worker() did, once.
            assert registry.stats.routed == routed + 1
            # A miss hands back the identity and counts nothing...
            miss = AnnotationRequest(table=other, model="a")
            answer, identity = gateway.answer_stored(miss, self._render)
            assert answer is None and identity is not None
            # ...and so does a payload the renderer declines, or chokes on.
            assert gateway.answer_stored(request, lambda payload: None)[0] is None
            with pytest.raises(ZeroDivisionError):
                gateway.answer_stored(request, lambda payload: 1 // 0)
            after = gateway.stats
            assert (after.submitted, after.completed) == (2, 2)
            assert (after.disk_hits, after.disk_misses) == (1, 1)
            # Refused routes are asubmit's to report: a stored answer of
            # these weights never answers a request pinned to others.
            for route in ("ghost", trainer_b.annotation_fingerprint()):
                pinned = AnnotationRequest(table=table, model=route)
                assert gateway.answer_stored(pinned, self._render) == (None, None)
        assert gateway.answer_stored(request, self._render) == (None, None)

    def test_no_store_means_no_hashing(self, trainer_a, walks):
        with AnnotationGateway.for_engine(AnnotationEngine(trainer_a)) as gateway:
            table = trainer_a.dataset.tables[0]
            gateway.annotate(table)
            del walks[:]
            request = AnnotationRequest(table=table)
            assert gateway.answer_stored(request, self._render) == (None, None)
            assert walks == []

    def test_acquire_without_load_leaves_a_cold_route_cold(self, bundle):
        registry = ModelRegistry()
        registry.register("a", bundle)
        assert registry.acquire("a", load=False) == ("a", None)
        assert (registry.stats.loads, registry.stats.routed) == (0, 0)
        engine = registry.get("a")
        assert registry.acquire("a", load=False) == ("a", engine)


@pytest.mark.smoke
class TestAsyncio:
    def test_asubmit_byte_identical_to_submit(self, trainer_a):
        tables = trainer_a.dataset.tables[:4]
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        with AnnotationGateway(registry) as gateway:
            threaded = [gateway.annotate(t) for t in tables]

            async def run():
                return [await gateway.asubmit(t) for t in tables]

            awaited = asyncio.run(run())
        for got, want in zip(awaited, threaded):
            _assert_same_annotation(got, want)

    def test_astream_preserves_order_across_routes(self, trainer_a):
        tables = trainer_a.dataset.tables[:6]
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        # Alternate admitted routes via the request's own model field.
        fingerprint = trainer_a.annotation_fingerprint()
        requests = [
            AnnotationRequest(table=t, model=("a" if i % 2 == 0 else fingerprint))
            for i, t in enumerate(tables)
        ]
        with AnnotationGateway(registry) as gateway:

            async def run():
                results = []
                async for result in gateway.astream(requests, window=3):
                    results.append(result)
                return results

            streamed = asyncio.run(run())
        assert [r.table.table_id for r in streamed] == [
            t.table_id for t in tables
        ]
        for got, want in zip(streamed, _direct(trainer_a, tables)):
            _assert_same_annotation(got, want)

    def test_asubmit_backpressure_yields_not_blocks(self, trainer_a):
        """With a tiny queue and no worker yet started, asubmit must retry
        via the event loop (other coroutines keep running) instead of
        blocking the loop thread."""
        gateway = AnnotationGateway.for_engine(
            AnnotationEngine(trainer_a),
            queue_config=QueueConfig(max_queue_size=1, submit_timeout=5.0),
        )
        table = trainer_a.dataset.tables[0]
        ticks = []

        async def ticker():
            for _ in range(5):
                ticks.append(1)
                await asyncio.sleep(0.002)

        async def run():
            submits = [gateway.asubmit(table) for _ in range(6)]
            results, _ = await asyncio.gather(
                asyncio.gather(*submits), ticker()
            )
            return results

        with gateway:
            results = asyncio.run(run())
        assert len(results) == 6
        assert len(ticks) == 5  # the loop stayed responsive throughout


@pytest.mark.smoke
class TestCompatibilityWrappers:
    def test_service_is_a_single_entry_gateway(self, trainer_a):
        service = AnnotationService(AnnotationEngine(trainer_a))
        assert isinstance(service.gateway, AnnotationGateway)
        assert service.gateway.registry.default_name == AnnotationService.MODEL_NAME
        with service:
            result = service.annotate(trainer_a.dataset.tables[0])
        want = _direct(trainer_a, [trainer_a.dataset.tables[0]])[0]
        _assert_same_annotation(result, want)
        assert service.stats.completed == 1

    def test_doduo_gateway_property(self, trainer_a):
        annotator = Doduo(trainer_a)
        assert isinstance(annotator.gateway, AnnotationGateway)
        # The sync wrapper and the gateway route to the same engine object.
        assert annotator.engine is annotator.gateway.registry.get()

    def test_submit_from_many_threads_across_routes(self, trainer_a):
        tables = trainer_a.dataset.tables[:8]
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        fingerprint = trainer_a.annotation_fingerprint()
        results = {}
        with AnnotationGateway(registry, QueueConfig(max_batch=4)) as gateway:

            def client(index):
                route = "a" if index % 2 == 0 else fingerprint
                results[index] = gateway.submit(
                    tables[index], model=route
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
