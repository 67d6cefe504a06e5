"""The shared weight arena.

The **arena** is byte-neutral: an arena-backed model serves exactly the
bytes of the npz-loaded one and does not change the annotation
fingerprint.  An arena that records any precision but ``float32`` is
refused at attach.

Plus the machinery it leans on: arena file round-trip/corruption
handling, deferred parameter init for full-overwrite load paths, pool
stats merging of the arena counters, and the bounded column-profile memo.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Doduo, DoduoConfig, DoduoTrainer, load_annotator, save_annotator
from repro.core.persistence import ensure_model_arena
from repro.core.wide import profile_cache_stats
from repro.datasets import generate_wikitable_dataset
from repro.encoding.cache import LRUCache, publish
from repro.nn import TransformerConfig, deferred_init
from repro.nn import layers as nn_layers
from repro.nn.arena import (
    Arena,
    attach_arena,
    model_arena,
    model_arena_tensors,
    write_arena,
    write_model_arena,
)
from repro.serving import GatewayStats, RegistryStats, ServerStats
from repro.serving.engine import AnnotationEngine, EngineConfig, EngineStats
from repro.serving.pool import merge_sections
from repro.text import train_wordpiece


@pytest.fixture(scope="module")
def trainer():
    dataset = generate_wikitable_dataset(num_tables=20, seed=11, max_rows=4)
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=600)
    encoder = TransformerConfig(
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
    t = DoduoTrainer(dataset, tokenizer, encoder, config)
    t.train()
    return t


@pytest.fixture(scope="module")
def bundle(trainer, tmp_path_factory):
    return save_annotator(Doduo(trainer), tmp_path_factory.mktemp("bundle"))


def _annotation_bytes(trainer, tables, **kwargs):
    raw = trainer.annotate_batch(tables, with_embeddings=True, **kwargs)
    return [(r.type_probs, dict(r.relation_probs), r.embeddings) for r in raw]


def _assert_bitwise(a, b):
    for (at, ar, ae), (bt, br, be) in zip(a, b):
        assert (at == bt).all()
        assert ar.keys() == br.keys()
        for pair in ar:
            assert (ar[pair] == br[pair]).all()
        assert (ae == be).all()


# ---------------------------------------------------------------------------
# Arena file format
# ---------------------------------------------------------------------------


class TestArenaFile:
    def _tensors(self):
        rng = np.random.default_rng(2)
        return {
            "a": rng.standard_normal((5, 3)).astype(np.float32),
            "b": rng.integers(-127, 128, size=(4, 4), dtype=np.int8),
            "c": rng.standard_normal(7).astype(np.float64),
        }

    def test_round_trip_and_verify(self, tmp_path):
        tensors = self._tensors()
        path = write_arena(tmp_path / "t.rpwa", tensors, meta={"precision": "float32"})
        arena = Arena(path)
        assert arena.names() == list(tensors)
        assert arena.precision == "float32"
        for name, array in tensors.items():
            view = arena[name]
            assert view.dtype == array.dtype
            assert (view == array).all()
            assert not view.flags.writeable
        assert arena.verify()

    def test_rejects_corruption(self, tmp_path):
        path = write_arena(tmp_path / "t.rpwa", self._tensors())
        raw = bytearray(path.read_bytes())

        bad_magic = tmp_path / "magic.rpwa"
        bad_magic.write_bytes(b"NOPE" + bytes(raw[4:]))
        with pytest.raises(ValueError, match="bad magic"):
            Arena(bad_magic)

        bad_version = tmp_path / "version.rpwa"
        bad_version.write_bytes(bytes(raw[:4]) + b"\xff" + bytes(raw[5:]))
        with pytest.raises(ValueError, match="version"):
            Arena(bad_version)

        truncated = tmp_path / "trunc.rpwa"
        truncated.write_bytes(bytes(raw[:10]))
        with pytest.raises(ValueError, match="too short"):
            Arena(truncated)

    def test_flipped_payload_fails_verify(self, tmp_path):
        path = write_arena(tmp_path / "t.rpwa", self._tensors())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # last tensor byte
        path.write_bytes(bytes(raw))
        assert not Arena(path).verify()

    def test_another_builders_temporary_is_left_alone(self, tmp_path):
        """Each write publishes through its own temporary: a concurrent
        builder's half-written file is neither truncated nor renamed into
        place, and nothing of ours is left beside the arena."""
        path = tmp_path / "arena-float32.rpwa"
        other = tmp_path / "arena-float32.rpwa.tmp"
        other.write_bytes(b"another builder's half-written arena")
        write_arena(path, self._tensors())
        assert other.read_bytes() == b"another builder's half-written arena"
        assert Arena(path).verify()
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, other.name]

    def test_a_failed_write_keeps_the_old_file_and_no_temporary(self, tmp_path):
        path = write_arena(tmp_path / "t.rpwa", self._tensors())
        before = path.read_bytes()

        def torn():
            yield b"half an arena"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            publish(path, torn())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


# ---------------------------------------------------------------------------
# Model arenas: byte-neutral, float32 only
# ---------------------------------------------------------------------------


class TestModelArena:
    def test_float32_arena_stores_exact_bytes(self, trainer, tmp_path):
        model = trainer.model
        path = write_model_arena(model, tmp_path / "m.rpwa")
        arena = Arena(path)
        assert arena.meta["source_fingerprint"] == model.fingerprint()
        for name, param in model.named_parameters():
            assert (arena[name] == param.data).all()

    def test_attach_rejects_a_quantized_arena(self, trainer, tmp_path):
        """An arena a quantizing build wrote carries the model's names and
        shapes, but its weights are not the model's: refused, never served
        under a new fingerprint."""
        model = trainer.model
        path = write_arena(
            tmp_path / "arena-int8.rpwa",
            model_arena_tensors(model),
            meta={"precision": "int8"},
        )
        with pytest.raises(ValueError, match="precision 'int8'"):
            attach_arena(model, Arena(path))
        assert model_arena(model) is None

    def test_attach_rejects_incomplete_arena(self, trainer, tmp_path):
        model = trainer.model
        tensors = model_arena_tensors(model)
        dropped = next(iter(tensors))
        partial = {k: v for k, v in tensors.items() if k != dropped}
        path = write_arena(tmp_path / "partial.rpwa", partial)
        with pytest.raises(KeyError, match="missing tensor"):
            attach_arena(model, Arena(path))


class TestBundleArena:
    def test_arena_backed_load_is_bitwise(self, trainer, bundle):
        tables = trainer.dataset.tables[:4]
        plain = load_annotator(bundle)
        arena_path = ensure_model_arena(bundle)
        backed = load_annotator(bundle, weight_arena=arena_path)
        assert model_arena(backed.trainer.model) is not None
        assert model_arena(plain.trainer.model) is None
        # npz load == original == arena-backed, down to the last bit.
        reference = _annotation_bytes(trainer, tables, kernels="fast")
        _assert_bitwise(_annotation_bytes(plain.trainer, tables, kernels="fast"), reference)
        _assert_bitwise(_annotation_bytes(backed.trainer, tables, kernels="fast"), reference)
        # Same weights → same fingerprint → same cache partition.
        assert backed.trainer.annotation_fingerprint() == trainer.annotation_fingerprint()

    def test_ensure_model_arena_reuses_until_weights_change(self, bundle):
        path = ensure_model_arena(bundle)
        stamp = path.stat().st_mtime_ns
        assert ensure_model_arena(bundle) == path
        assert path.stat().st_mtime_ns == stamp  # reused, not rebuilt
        # Re-saving the bundle invalidates the arena's source signature.
        weights = bundle / "weights.npz"
        weights.write_bytes(weights.read_bytes())
        rebuilt = ensure_model_arena(bundle)
        assert rebuilt == path
        assert path.stat().st_mtime_ns != stamp

    def test_arena_views_are_read_only(self, trainer, bundle):
        backed = load_annotator(bundle, weight_arena=ensure_model_arena(bundle))
        param = next(iter(backed.trainer.model.parameters()))
        with pytest.raises((ValueError, RuntimeError)):
            param.data[...] = 0.0


# ---------------------------------------------------------------------------
# Deferred init
# ---------------------------------------------------------------------------


class TestDeferredInit:
    def test_deferred_layers_are_zero(self):
        rng = np.random.default_rng(3)
        with deferred_init():
            linear = nn_layers.Linear(4, 3, rng)
            embedding = nn_layers.Embedding(6, 5, rng)
        assert linear.weight.data.dtype == np.float32
        assert linear.weight.data.shape == (4, 3)
        assert (linear.weight.data == 0.0).all()
        assert (embedding.weight.data == 0.0).all()
        # Outside the context, random init is back.
        assert nn_layers.Linear(4, 3, rng).weight.data.any()

    def test_flag_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with deferred_init():
                assert nn_layers._DEFER_INIT
                raise RuntimeError("boom")
        assert not nn_layers._DEFER_INIT

    def test_nested_contexts(self):
        with deferred_init():
            with deferred_init():
                assert nn_layers._DEFER_INIT
            assert nn_layers._DEFER_INIT
        assert not nn_layers._DEFER_INIT


# ---------------------------------------------------------------------------
# Pool stats plumbing for the engine and arena counters
# ---------------------------------------------------------------------------


class TestMergedCounters:
    def test_engine_and_arena_counters_sum(self):
        def worker(remaps, padded, real):
            engine = EngineStats(padded_tokens=padded, real_tokens=real)
            # What a live worker reports: its totals fold its engine's.
            gateway = GatewayStats().merge(engine)
            gateway.engines["m"] = engine
            return {
                "worker": 0,
                "server": ServerStats(),
                "gateway": gateway,
                "registry": RegistryStats(arena_remaps=remaps),
            }

        merged = merge_sections([worker(1, 100, 80), worker(1, 300, 120)])
        gateway = merged["gateway"].to_dict()
        assert gateway["engines"]["m"]["padded_tokens"] == 400
        assert merged["registry"].arena_remaps == 2
        # Ratios derive from merged raw counters, not from the workers'
        # ratios (0.2 and 0.6: their sum is 0.8, their mean 0.4).
        assert gateway["engines"]["m"]["padding_waste"] == pytest.approx(200 / 400)


# ---------------------------------------------------------------------------
# Bounded column-profile memo (satellite regression)
# ---------------------------------------------------------------------------


class TestProfileCacheBound:
    def test_lru_eviction_counter(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert cache.evictions == 1
        assert cache.get("a") is None
        assert cache.get("c") == 3

    def test_profile_cache_stats_shape(self):
        stats = profile_cache_stats()
        assert set(stats) == {"size", "capacity", "hits", "misses", "evictions"}
        assert stats["capacity"] == 4096
