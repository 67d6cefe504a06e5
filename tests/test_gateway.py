"""The multi-model serving gateway: registry, routing, isolation, asyncio.

The load-bearing guarantees (the ISSUE-4 acceptance criteria):

* a gateway with two registered models serves a mixed corpus where every
  result is **byte-identical** to the corresponding single-engine
  ``engine.annotate`` output — from the thread ``submit()`` path *and*
  the asyncio ``asubmit()``/``astream()`` path;
* dedup and disk-cache state never leak across models: keys embed each
  model's fingerprint, and the registry roots one disk-cache directory
  per fingerprint;
* LRU eviction of idle engines is invisible to correctness — an evicted
  model transparently reloads from its checkpoint and answers
  byte-identically;
* routes resolve by registered name or model fingerprint, and a request's
  own ``model`` field wins over call-site defaults.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest
from helpers import EngineGate

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
def bundles(trainer_a, trainer_b, tmp_path_factory):
    root = tmp_path_factory.mktemp("gateway-bundles")
    save_annotator(Doduo(trainer_a), root / "a")
    save_annotator(Doduo(trainer_b), root / "b")
    return {"a": root / "a", "b": root / "b"}


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
    def test_mixed_corpus_byte_identical_per_model(self, trainer_a, trainer_b):
        """The acceptance regression: two models behind one gateway, an
        interleaved corpus, every answer byte-identical to the dedicated
        single-engine output of the model that served it."""
        tables = trainer_a.dataset.tables[:5]
        want_a = _direct(trainer_a, tables)
        want_b = _direct(trainer_b, tables)
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        registry.register("b", trainer_b)
        with AnnotationGateway(registry) as gateway:
            futures = []
            for table in tables:  # interleaved submission order
                futures.append(("a", gateway.submit(table, model="a")))
                futures.append(("b", gateway.submit(table, model="b")))
            results = {"a": [], "b": []}
            for route, future in futures:
                results[route].append(future.result())
        for i in range(len(tables)):
            _assert_same_annotation(results["a"][i], want_a[i])
            _assert_same_annotation(results["b"][i], want_b[i])
        # Different weights genuinely answered: the scores differ.
        assert results["a"][0].type_scores != results["b"][0].type_scores

    def test_default_route_and_request_field_priority(
        self, trainer_a, trainer_b
    ):
        table = trainer_a.dataset.tables[0]
        want_a = _direct(trainer_a, [table])[0]
        want_b = _direct(trainer_b, [table])[0]
        registry = ModelRegistry()
        registry.register("a", trainer_a)  # first registered = default
        registry.register("b", trainer_b)
        with AnnotationGateway(registry) as gateway:
            _assert_same_annotation(gateway.annotate(table), want_a)
            # The request's own model field wins over the call-site route.
            request = AnnotationRequest(table=table, model="b")
            _assert_same_annotation(
                gateway.annotate(request, model="a"), want_b
            )

    def test_fingerprint_route(self, trainer_a, trainer_b):
        table = trainer_a.dataset.tables[0]
        want_b = _direct(trainer_b, [table])[0]
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        registry.register("b", trainer_b)
        fingerprint = registry.fingerprint_of("b", load=True)
        assert fingerprint is not None
        with AnnotationGateway(registry) as gateway:
            _assert_same_annotation(
                gateway.annotate(table, model=fingerprint), want_b
            )

    def test_unknown_route_raises(self, trainer_a):
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        with AnnotationGateway(registry) as gateway:
            with pytest.raises(KeyError, match="no model registered"):
                gateway.submit(trainer_a.dataset.tables[0], model="nope")

    def test_closed_gateway_rejects(self, trainer_a):
        gateway = AnnotationGateway.for_engine(AnnotationEngine(trainer_a))
        table = trainer_a.dataset.tables[0]
        assert gateway.annotate(table).coltypes
        gateway.close()
        with pytest.raises(RuntimeError, match="closed"):
            gateway.submit(table)
        gateway.close()  # idempotent


@pytest.mark.smoke
class TestIsolation:
    def test_dedup_never_crosses_models(self, trainer_a, trainer_b):
        """One popular table asked of both models: each model's worker
        dedups its own duplicates, but the two models never share an
        annotation (their fingerprints differ, so their keys differ)."""
        table = trainer_a.dataset.tables[0]
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        registry.register("b", trainer_b)
        with AnnotationGateway(registry) as gateway:
            # No answer can exist before its gate opens, so every twin
            # lands inside its route's single-flight window.
            gates = [EngineGate(registry.get(route)) for route in ("a", "b")]
            futures = [
                gateway.submit(table, model=route)
                for _ in range(4)
                for route in ("a", "b")
            ]
            for gate in gates:
                gate.open()
            results = [f.result(timeout=30) for f in futures]
        stats = gateway.stats
        # 8 submissions collapse to exactly TWO annotations — one per model,
        # never one shared across them.
        assert stats.submitted == 8
        assert stats.unique_annotated == 2
        assert stats.dedup_hits == 6
        assert stats.models["a"].unique_annotated == 1
        assert stats.models["b"].unique_annotated == 1
        a_scores = [r.type_scores for r in results[0::2]]
        b_scores = [r.type_scores for r in results[1::2]]
        assert all(s == a_scores[0] for s in a_scores)
        assert all(s == b_scores[0] for s in b_scores)
        assert a_scores[0] != b_scores[0]  # different models really answered

    def test_disk_cache_partitioned_per_fingerprint(
        self, trainer_a, trainer_b, tmp_path
    ):
        cache_root = tmp_path / "cache"
        tables = trainer_a.dataset.tables[:3]

        def build():
            registry = ModelRegistry(cache_dir=cache_root)
            registry.register("a", trainer_a)
            registry.register("b", trainer_b)
            return AnnotationGateway(registry)

        with build() as gateway:
            for table in tables:
                gateway.annotate(table, model="a")
                gateway.annotate(table, model="b")
            cold = gateway.stats
        assert cold.disk_hits == 0
        # One segment directory per model fingerprint, and they differ.
        fp_a = trainer_a.annotation_fingerprint()
        fp_b = trainer_b.annotation_fingerprint()
        assert fp_a != fp_b
        assert list((cache_root / fp_a).glob("segment-*.jsonl"))
        assert list((cache_root / fp_b).glob("segment-*.jsonl"))
        # A fresh gateway over the same root answers everything from disk,
        # each model from its own partition, byte-identically.
        want_a = _direct(trainer_a, tables)
        want_b = _direct(trainer_b, tables)
        with build() as warm:
            passes_before = (
                trainer_a.model.encode_calls + trainer_b.model.encode_calls
            )
            for i, table in enumerate(tables):
                _assert_same_annotation(warm.annotate(table, model="a"), want_a[i])
                _assert_same_annotation(warm.annotate(table, model="b"), want_b[i])
            assert (
                trainer_a.model.encode_calls + trainer_b.model.encode_calls
                == passes_before
            )
            warm_stats = warm.stats
        assert warm_stats.disk_hits == 2 * len(tables)
        assert warm_stats.engines["a"].disk_hits == len(tables)
        assert warm_stats.engines["b"].disk_hits == len(tables)


    def test_same_weights_two_names_share_one_cache_handle(
        self, bundles, trainer_a, tmp_path
    ):
        """Two registrations of the same bundle share ONE DiskCache handle
        (the one-writer-per-directory contract) — and therefore share
        cached work: what one name computes, the other serves from disk."""
        registry = ModelRegistry(cache_dir=tmp_path / "cache")
        registry.register("x", bundles["a"])
        registry.register("y", bundles["a"])
        engine_x, engine_y = registry.get("x"), registry.get("y")
        assert engine_x is not engine_y
        assert engine_x.result_cache is engine_y.result_cache
        table = trainer_a.dataset.tables[0]
        with AnnotationGateway(registry) as gateway:
            via_x = gateway.annotate(table, model="x")
            via_y = gateway.annotate(table, model="y")
        _assert_same_annotation(via_y, via_x)
        assert via_y.from_disk  # y answered from x's cached annotation
        assert engine_y.stats.encoder_passes == 0


@pytest.mark.smoke
class TestEviction:
    def test_lru_eviction_reloads_byte_identically(self, bundles, trainer_a):
        registry = ModelRegistry(max_live=1)
        registry.register("a", bundles["a"])
        registry.register("b", bundles["b"])
        with AnnotationGateway(registry) as gateway:
            # Load A lazily and capture its answer.
            table_a = trainer_a.dataset.tables[0]
            first = gateway.annotate(table_a, model="a")
            # Routing to B exceeds max_live=1 and evicts idle A.
            gateway.annotate(table_a, model="b")
            assert registry.live_names() == ["b"]
            assert registry.stats.evictions >= 1
            # A still resolves (fingerprints survive eviction), reloads,
            # and answers byte-identically to its pre-eviction self.
            again = gateway.annotate(table_a, model="a")
            _assert_same_annotation(again, first)
        assert registry.stats.reloads >= 1

    def test_pinned_floor_never_evicted(self, bundles):
        registry = ModelRegistry(max_live=1)
        registry.register("a", bundles["a"], pinned=True)
        registry.register("b", bundles["b"])
        engine_a = registry.get("a")
        registry.get("b")  # overshoots max_live, but A is the pinned floor
        assert sorted(registry.live_names()) == ["a", "b"]
        assert registry.get("a") is engine_a  # same object: never dropped
        # B (unpinned) is the one evicted once something else needs room.
        registry.evict("b")
        assert registry.live_names() == ["a"]

    def test_in_memory_registrations_cannot_evict(self, trainer_a):
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        with pytest.raises(ValueError, match="in-memory"):
            registry.evict("a")
        with pytest.raises(ValueError, match="in-memory"):
            registry.unpin("a")

    def test_same_live_object_under_two_names_rejected(self, trainer_a):
        """One engine/trainer object = one serving thread; aliasing the
        same live object under two names would race two workers over one
        un-locked pipeline.  Aliases must go through bundle paths."""
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        with pytest.raises(ValueError, match="already serves"):
            registry.register("alias", trainer_a)
        with pytest.raises(ValueError, match="already serves"):
            registry.register("alias", AnnotationEngine(trainer_a))

    def test_explicit_evict_closes_stale_worker_on_reap(self, bundles, trainer_a):
        registry = ModelRegistry()
        registry.register("a", bundles["a"])
        with AnnotationGateway(registry) as gateway:
            table = trainer_a.dataset.tables[0]
            before = gateway.annotate(table, model="a")
            registry.evict("a")
            assert gateway.reap() == 1
            # The route transparently reloads and keeps answering.
            _assert_same_annotation(gateway.annotate(table, model="a"), before)
            # Retired worker stats still count toward gateway totals: one
            # completion before eviction (on the reaped worker) plus one
            # after the reload — and the retired ENGINE's passes stay in
            # the totals too (totals never regress across evict/reload).
            stats = gateway.stats
            assert stats.completed == 2
            assert stats.encoder_passes >= 2
            assert stats.encoder_passes > stats.engines["a"].encoder_passes


@pytest.mark.smoke
class TestAnswerStored:
    """``answer_stored``: the non-blocking store probe a front-end that
    renders payloads itself (the socket server) asks before ``asubmit``."""

    @staticmethod
    def _render(payload):
        return payload["coltypes"]

    def test_hit_miss_and_what_each_counts(self, bundles, trainer_a, tmp_path):
        registry = ModelRegistry(cache_dir=tmp_path / "cache")
        registry.register("a", bundles["a"])
        table, other = trainer_a.dataset.tables[:2]
        with AnnotationGateway(registry) as gateway:
            request = AnnotationRequest(table=table, model="a")
            # Cold route: nothing is loaded, hashed or counted.
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
            assert registry.stats.routed == routed + 1 + 1  # the hit; .worker()
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
            # Unknown routes are asubmit's to report.
            ghost = AnnotationRequest(table=table, model="ghost")
            assert gateway.answer_stored(ghost, self._render) == (None, None)
        assert gateway.answer_stored(request, self._render) == (None, None)

    def test_no_store_means_no_hashing(self, trainer_a, walks):
        with AnnotationGateway.for_engine(AnnotationEngine(trainer_a)) as gateway:
            table = trainer_a.dataset.tables[0]
            gateway.annotate(table)
            del walks[:]
            request = AnnotationRequest(table=table)
            assert gateway.answer_stored(request, self._render) == (None, None)
            assert walks == []

    def test_hits_keep_a_route_recent(self, bundles, trainer_a, tmp_path):
        """A route that only ever hits must not look idle to the LRU."""
        registry = ModelRegistry(max_live=2, cache_dir=tmp_path / "cache")
        for name in ("a", "b"):
            registry.register(name, bundles[name])
        registry.register("c", bundles["a"])
        table = trainer_a.dataset.tables[0]
        with AnnotationGateway(registry) as gateway:
            gateway.annotate(table, model="a")
            gateway.annotate(table, model="b")
            request = AnnotationRequest(table=table, model="a")
            assert gateway.answer_stored(request, self._render)[0] is not None
            gateway.annotate(table, model="c")  # one of a, b has to go
            assert sorted(registry.live_names()) == ["a", "c"]

    def test_acquire_without_load_leaves_a_cold_route_cold(self, bundles):
        registry = ModelRegistry()
        registry.register("a", bundles["a"])
        assert registry.acquire("a", load=False) == ("a", None)
        assert (registry.stats.loads, registry.stats.routed) == (0, 0)
        engine = registry.get("a")
        assert registry.acquire("a", load=False) == ("a", engine)


class TestHotMutation:
    """PR-5 registry mutation: repoint/unregister on a live gateway."""

    def test_repoint_swaps_weights_without_restart(
        self, bundles, trainer_a, trainer_b
    ):
        registry = ModelRegistry()
        registry.register("live", bundles["a"])
        table = trainer_a.dataset.tables[0]
        want_a = _direct(trainer_a, [table])[0]
        want_b = _direct(trainer_b, [table])[0]
        with AnnotationGateway(registry) as gateway:
            _assert_same_annotation(gateway.annotate(table, model="live"), want_a)
            gateway.repoint("live", bundles["b"])
            _assert_same_annotation(gateway.annotate(table, model="live"), want_b)
        assert registry.stats.repoints == 1
        # The retired worker's completions still count toward totals.
        assert gateway.stats.completed == 2

    def test_repoint_preserves_default_and_order(self, bundles):
        registry = ModelRegistry()
        registry.register("first", bundles["a"])
        registry.register("second", bundles["b"])
        registry.repoint("first", bundles["b"])
        assert registry.default_name == "first"
        assert registry.names() == ["first", "second"]

    def test_repoint_drops_old_fingerprint_route(self, bundles, trainer_a):
        registry = ModelRegistry()
        registry.register("only", bundles["a"])
        fingerprint = registry.fingerprint_of("only", load=True)
        assert registry.resolve(fingerprint) == "only"
        registry.repoint("only", bundles["b"])
        # Content-addressed clients pinned to the OLD weights must miss
        # cleanly now — nothing serves them anymore.
        with pytest.raises(KeyError):
            registry.resolve(fingerprint)
        # The new weights' fingerprint resolves once loaded.
        new_fingerprint = registry.fingerprint_of("only", load=True)
        assert new_fingerprint != fingerprint
        assert registry.resolve(new_fingerprint) == "only"

    def test_repoint_validation_leaves_old_binding_untouched(
        self, bundles, trainer_a, tmp_path
    ):
        registry = ModelRegistry()
        registry.register("live", bundles["a"])
        with pytest.raises(KeyError, match="no model registered"):
            registry.repoint("ghost", bundles["b"])
        with pytest.raises(ValueError, match="not a bundle directory"):
            registry.repoint("live", tmp_path)
        # Still serving the original weights.
        engine = registry.get("live")
        assert engine.annotate(trainer_a.dataset.tables[0]).coltypes
        assert registry.stats.repoints == 0

    def test_churn_releases_unreferenced_cache_handles(
        self, bundles, trainer_a, trainer_b, tmp_path
    ):
        """Repoint/unregister over unique models must not accumulate
        dead per-fingerprint DiskCache handles (their in-memory indexes
        live as long as the dict entry does)."""
        registry = ModelRegistry(cache_dir=tmp_path / "cache")
        fp_a = trainer_a.annotation_fingerprint()
        fp_b = trainer_b.annotation_fingerprint()
        registry.register("live", bundles["a"])
        registry.get("live")  # load: opens fp_a's handle
        assert fp_a in registry._disk_caches
        registry.repoint("live", bundles["b"])
        assert fp_a not in registry._disk_caches  # old handle released
        registry.get("live")
        assert fp_b in registry._disk_caches
        registry.unregister("live")
        assert registry._disk_caches == {}
        # Shared fingerprints survive: two names over one bundle keep
        # the handle until the LAST reference goes.
        registry.register("x", bundles["a"])
        registry.register("y", bundles["a"])
        registry.get("x"), registry.get("y")
        registry.unregister("x")
        assert fp_a in registry._disk_caches
        registry.unregister("y")
        assert fp_a not in registry._disk_caches

    def test_repoint_to_in_memory_source_is_pinned(self, bundles, trainer_a):
        registry = ModelRegistry()
        registry.register("live", bundles["b"])
        registry.repoint("live", trainer_a)
        entry = registry._entries["live"]
        assert entry.pinned and entry.path is None
        assert registry.get("live").trainer is trainer_a

    def test_gateway_unregister_rejects_then_keyerrors(self, trainer_a, trainer_b):
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        registry.register("b", trainer_b)
        table = trainer_a.dataset.tables[0]
        with AnnotationGateway(registry) as gateway:
            assert gateway.annotate(table, model="b").coltypes
            gateway.unregister("b")
            with pytest.raises(KeyError, match="no model registered"):
                gateway.submit(table, model="b")
            # The other route is untouched.
            assert gateway.annotate(table, model="a").coltypes
        assert registry.names() == ["a"]
        # The unregistered route leaves the per-name stats maps (bounded
        # under register/unregister churn) but its history stays in the
        # scalar totals (they never deflate).
        stats = gateway.stats
        assert "b" not in stats.models
        assert "b" not in stats.engines
        assert stats.completed == 2
        assert stats.encoder_passes >= 2

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
class TestAsyncio:
    def test_asubmit_byte_identical_to_submit(self, trainer_a, trainer_b):
        tables = trainer_a.dataset.tables[:4]
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        registry.register("b", trainer_b)
        with AnnotationGateway(registry) as gateway:
            threaded = {
                route: [gateway.annotate(t, model=route) for t in tables]
                for route in ("a", "b")
            }

            async def run():
                out = {}
                for route in ("a", "b"):
                    out[route] = [
                        await gateway.asubmit(t, model=route) for t in tables
                    ]
                return out

            awaited = asyncio.run(run())
        for route in ("a", "b"):
            for got, want in zip(awaited[route], threaded[route]):
                _assert_same_annotation(got, want)

    def test_astream_preserves_order_across_models(self, trainer_a, trainer_b):
        tables = trainer_a.dataset.tables[:6]
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        registry.register("b", trainer_b)
        # Alternate routes via the request's own model field.
        requests = [
            AnnotationRequest(table=t, model=("a" if i % 2 == 0 else "b"))
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
        want_a = _direct(trainer_a, tables[0::2])
        want_b = _direct(trainer_b, tables[1::2])
        for got, want in zip(streamed[0::2], want_a):
            _assert_same_annotation(got, want)
        for got, want in zip(streamed[1::2], want_b):
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
        assert service.gateway.registry.names() == [AnnotationService.MODEL_NAME]
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

    def test_submit_from_many_threads_across_models(
        self, trainer_a, trainer_b
    ):
        tables = trainer_a.dataset.tables[:8]
        registry = ModelRegistry()
        registry.register("a", trainer_a)
        registry.register("b", trainer_b)
        results = {}
        with AnnotationGateway(registry, QueueConfig(max_batch=4)) as gateway:

            def client(index):
                route = "a" if index % 2 == 0 else "b"
                results[index] = (
                    route,
                    gateway.submit(tables[index], model=route).result(timeout=30),
                )

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(tables))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        reference = {
            "a": AnnotationEngine(trainer_a),
            "b": AnnotationEngine(trainer_b),
        }
        for index, (route, result) in results.items():
            want = reference[route].annotate(tables[index])
            _assert_same_annotation(result, want)
