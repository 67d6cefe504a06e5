"""Int8 quantization and the shared weight arena (PR 10).

Two serving-side weight representations, two contracts:

* the **float32 arena** is byte-neutral: an arena-backed model serves
  exactly the bytes of the npz-loaded one, the ``precision="float32"``
  engine serves exactly the default engine's bytes, and neither changes
  the annotation fingerprint;
* the **int8 path** is deliberately lossy and must be loudly partitioned:
  a distinct fingerprint (never sharing a cache partition with float),
  an accuracy gate that calibrates drift into the proof cache, and a
  counted float32 fallback when the gate disproves quantization.

Plus the machinery both lean on: arena file round-trip/corruption
handling, deferred parameter init for full-overwrite load paths, pool
stats merging of the new counters, and the bounded column-profile memo.
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
from repro.nn import quant
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
# Quantization recipe
# ---------------------------------------------------------------------------


class TestQuantizeWeight:
    def test_round_trip_bounds(self):
        rng = np.random.default_rng(0)
        w = (rng.standard_normal((16, 8)) * 3.0).astype(np.float32)
        qw = quant.quantize_weight(w)
        assert qw.q.dtype == np.int8
        assert qw.scale.dtype == np.float32
        assert qw.scale.shape == (8,)
        assert np.abs(qw.q.astype(np.int32)).max() <= 127
        # Rounding error is at most half a quantization step per channel.
        err = np.abs(w - quant.quantize_dequantize(w))
        assert (err <= qw.scale / 2 + 1e-7).all()

    def test_zero_channel_is_exact(self):
        w = np.zeros((4, 3), dtype=np.float32)
        w[:, 0] = [1.0, -2.0, 0.5, 0.0]
        qw = quant.quantize_weight(w)
        assert qw.scale[1] == 1.0 and qw.scale[2] == 1.0
        assert (quant.dequantize_weight(qw)[:, 1:] == 0.0).all()

    def test_commutes_with_column_concat(self):
        """Per-channel quantization of Q|K|V packed == packing the per-matrix
        quantizations — the property the fused QKV projection relies on."""
        rng = np.random.default_rng(1)
        parts = [
            (rng.standard_normal((8, 6)) * (i + 1)).astype(np.float32)
            for i in range(3)
        ]
        packed = quant.quantize_weight(np.concatenate(parts, axis=1))
        separate = [quant.quantize_weight(p) for p in parts]
        assert (packed.q == np.concatenate([s.q for s in separate], axis=1)).all()
        assert (packed.scale == np.concatenate([s.scale for s in separate])).all()

    def test_named_linear_weights_matches_state_dict(self, trainer):
        model = trainer.model
        state = model.state_dict()
        names = quant.quantizable_weight_names(model)
        assert names  # every Linear in the model qualifies
        for name in names:
            assert name in state
            assert state[name].ndim == 2


# ---------------------------------------------------------------------------
# Arena file format
# ---------------------------------------------------------------------------


class TestArenaFile:
    def _tensors(self):
        rng = np.random.default_rng(2)
        return {
            "a": rng.standard_normal((5, 3)).astype(np.float32),
            "b::q": rng.integers(-127, 128, size=(4, 4), dtype=np.int8),
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
# Model arenas: float32 byte-neutral, int8 partitioned
# ---------------------------------------------------------------------------


class TestModelArena:
    def test_float32_arena_stores_exact_bytes(self, trainer, tmp_path):
        model = trainer.model
        path = write_model_arena(model, tmp_path / "m.rpwa")
        arena = Arena(path)
        assert arena.meta["source_fingerprint"] == model.fingerprint()
        for name, param in model.named_parameters():
            assert (arena[name] == param.data).all()

    def test_int8_arena_stores_quantized_and_compute(self, trainer):
        model = trainer.model
        tensors = model_arena_tensors(model, precision="int8")
        quantized = quant.quantizable_weight_names(model)
        state = model.state_dict()
        for name in quantized:
            qw = quant.quantize_weight(state[name])
            assert (tensors[f"{name}::q"] == qw.q).all()
            assert (tensors[f"{name}::scale"] == qw.scale).all()
            # The compute array is the dequantized round-trip, not the
            # original floats.
            assert (tensors[name] == quant.dequantize_weight(qw)).all()
        for name, param in model.named_parameters():
            if name not in quantized:
                assert (tensors[name] == param.data).all()

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
# Fingerprint partitioning and the precision knob
# ---------------------------------------------------------------------------


class TestPrecisionFingerprint:
    @staticmethod
    def _fingerprint(trainer, precision):
        return AnnotationEngine(
            trainer, EngineConfig(precision=precision)
        ).model_fingerprint

    def test_float_defaults_share_a_digest(self, trainer):
        base = trainer.annotation_fingerprint()
        assert self._fingerprint(trainer, "float32") == base

    def test_int8_never_shares_a_partition(self, trainer):
        int8 = self._fingerprint(trainer, "int8")
        assert int8 != trainer.annotation_fingerprint()
        assert int8 != self._fingerprint(trainer, "float64")

    def test_engine_folds_precision(self, trainer):
        default = AnnotationEngine(trainer).model_fingerprint
        f32 = AnnotationEngine(
            trainer, EngineConfig(precision="float32")
        ).model_fingerprint
        int8 = AnnotationEngine(
            trainer, EngineConfig(precision="int8")
        ).model_fingerprint
        assert f32 == default
        assert int8 != default

    def test_precision_validation(self):
        with pytest.raises(ValueError, match="precision"):
            EngineConfig(precision="int4")
        with pytest.raises(ValueError, match="kernels"):
            EngineConfig(precision="int8", kernels="reference")


# ---------------------------------------------------------------------------
# The accuracy gate
# ---------------------------------------------------------------------------


class TestAccuracyGate:
    def test_calibration_passes_and_records_drift(self, trainer):
        trainer.model.invalidate_sessions()
        engine = AnnotationEngine(trainer, EngineConfig(precision="int8"))
        tables = trainer.dataset.tables[:4]
        results = engine.annotate_batch(tables)
        assert len(results) == len(tables)
        assert engine.stats.quant_fallbacks == 0
        proofs = trainer.model.inference_session("int8").workspace.proofs
        assert proofs.verdict(quant.GATE_KEY) is True
        drift_keys = [
            key for key in proofs.drifts if key[0] == quant.DRIFT_KEY_PREFIX
        ]
        assert drift_keys
        tolerance = max(
            quant.HIDDEN_DRIFT_TOLERANCE, quant.LOGIT_DRIFT_TOLERANCE
        )
        for key in drift_keys:
            assert proofs.drifts[key] <= tolerance

    def test_first_mixed_width_drain_proves_nothing(self, trainer, monkeypatch):
        """Calibration pads its sample to one width on both sessions, and
        the quantized pass is ungated: an int8 cold start never pays the
        float session's row-stability proof."""
        tables = trainer.dataset.tables[:6]
        assert len({trainer.encoding.encode_table(t).length for t in tables}) > 1

        def no_proof(*args, **kwargs):
            raise AssertionError("an int8 drain ran a row-stability proof")

        monkeypatch.setattr("repro.core.inference.prove_row_stable", no_proof)
        trainer.model.invalidate_sessions()
        engine = AnnotationEngine(trainer, EngineConfig(precision="int8"))
        engine.annotate_batch(tables)
        assert engine.stats.encoder_passes == 3  # calibration's two + the drain
        assert engine.stats.quant_fallbacks == 0

    def test_disproven_gate_falls_back_to_float_bytes(self, trainer, monkeypatch):
        tables = trainer.dataset.tables[:7]
        assert len({trainer.encoding.encode_table(t).length for t in tables}) > 1
        reference = [
            r.annotated for r in AnnotationEngine(trainer).annotate_batch(tables)
        ]
        # No drift is tolerated, so the session's own calibration disproves
        # the gate: it must permanently delegate to the float32 path,
        # counting each call.
        monkeypatch.setattr(quant, "HIDDEN_DRIFT_TOLERANCE", 0.0)
        monkeypatch.setattr(quant, "LOGIT_DRIFT_TOLERANCE", 0.0)
        trainer.model.invalidate_sessions()
        before = trainer.model.quant_fallbacks
        engine = AnnotationEngine(
            trainer, EngineConfig(precision="int8", batch_size=3)
        )
        results = engine.annotate_batch(tables)
        proofs = trainer.model.inference_session("int8").workspace.proofs
        assert proofs.verdict(quant.GATE_KEY) is False
        assert max(proofs.drifts.values()) > 0.0
        assert trainer.model.quant_fallbacks > before
        assert engine.stats.quant_fallbacks == trainer.model.quant_fallbacks - before
        # Calibration's two passes, then the float session's ragged pass:
        # one per chunk, not one per width bucket.
        assert engine.stats.encoder_passes == 2 + 3
        for got, want in zip(results, reference):
            assert got.annotated.type_scores == want.type_scores
            assert got.annotated.colrels == want.colrels
            assert np.array_equal(got.annotated.colemb, want.colemb)
        trainer.model.invalidate_sessions()  # drop the disproven session

    def test_explicit_float32_precision_is_byte_identical(self, trainer):
        tables = trainer.dataset.tables[:4]
        default = AnnotationEngine(trainer).annotate_batch(tables)
        explicit = AnnotationEngine(
            trainer, EngineConfig(precision="float32")
        ).annotate_batch(tables)
        for d, e in zip(default, explicit):
            assert d.annotated.type_scores == e.annotated.type_scores
            assert d.annotated.colrels == e.annotated.colrels


# ---------------------------------------------------------------------------
# Pool stats plumbing for the new counters
# ---------------------------------------------------------------------------


class TestMergedCounters:
    def test_quant_and_arena_counters_sum(self):
        def worker(fallbacks, remaps, padded, real):
            engine = EngineStats(
                quant_fallbacks=fallbacks, padded_tokens=padded, real_tokens=real
            )
            # What a live worker reports: its totals fold its engine's.
            gateway = GatewayStats().merge(engine)
            gateway.engines["m"] = engine
            return {
                "worker": 0,
                "server": ServerStats(),
                "gateway": gateway,
                "registry": RegistryStats(arena_remaps=remaps),
            }

        merged = merge_sections([worker(2, 1, 100, 80), worker(3, 1, 300, 120)])
        gateway = merged["gateway"].to_dict()
        assert gateway["quant_fallbacks"] == 5
        assert gateway["engines"]["m"]["quant_fallbacks"] == 5
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
