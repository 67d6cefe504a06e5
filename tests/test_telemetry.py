"""Declared counters (repro.telemetry) and the stats answer built from them.

* a property over random snapshots of **every** declaration: ``merge`` is
  commutative and associative, a ratio after any merge order is the ratio
  of the summed counters, renderings survive JSON and snapshots survive
  pickle, undeclared names raise, a zero denominator reads 0.0 — the
  run-time replacement of the deleted ``stats-merge`` lint rule;
* the golden **wire shape** of ``{"op": "stats"}`` — recursive key set and
  leaf types, captured from the commit before the port — for one process
  and for a two-worker pool;
* ``docs/server.md``'s counter reference lists exactly the declared keys.
"""

from __future__ import annotations

import json
import pickle
import re
import socket
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Doduo, DoduoConfig, DoduoTrainer, save_annotator
from repro.datasets import generate_wikitable_dataset
from repro.encoding import EncodingStats
from repro.io import table_to_dict
from repro.nn import TransformerConfig
from repro.serving import (
    AnnotationGateway,
    AnnotationOptions,
    EngineConfig,
    EngineStats,
    FabricStats,
    GatewayStats,
    ModelRegistry,
    RegistryStats,
    ServerStats,
    ServerThread,
    ServiceStats,
)
from repro.serving.pool import PoolConfig, ServingPool
from repro.telemetry import Counters, Ratio, declare
from repro.text import train_wordpiece

DECLARATIONS = [
    EngineStats,
    ServiceStats,
    GatewayStats,
    RegistryStats,
    ServerStats,
    FabricStats,
    EncodingStats,
]


# ----------------------------------------------------------------------
# The core, over every declaration
# ----------------------------------------------------------------------


def snapshots(declaration):
    """Random instances of ``declaration``, named groups included."""
    counts = st.integers(min_value=0, max_value=10**9)

    def build(values, groups):
        snapshot = declaration(**values)
        for group, members in groups.items():
            getattr(snapshot, group).update(members)
        return snapshot

    return st.builds(
        build,
        st.fixed_dictionaries({name: counts for name in declaration.COUNTERS}),
        st.fixed_dictionaries(
            {
                group: st.dictionaries(
                    st.sampled_from(["a", "b", "c"]), snapshots(member), max_size=3
                )
                for group, member in declaration.GROUPS.items()
            }
        ),
    )


def triples():
    return st.sampled_from(DECLARATIONS).flatmap(
        lambda declaration: st.tuples(*[snapshots(declaration)] * 3)
    )


def total(rendered, terms):
    return sum(
        -rendered[term[1:]] if term.startswith("-") else rendered[term]
        for term in terms
    )


def summed(*snapshots_):
    merged = snapshots_[0].copy()
    for other in snapshots_[1:]:
        merged.merge(other)
    return merged


class TestCore:
    @settings(max_examples=60, deadline=None)
    @given(triples())
    def test_merge_commutes_associates_and_never_sums_a_ratio(self, triple):
        a, b, c = triple
        before = [x.to_dict() for x in triple]
        merged = summed(a, b, c).to_dict()
        assert merged == summed(c, a, b).to_dict() == summed(b, c, a).to_dict()
        assert merged == a.copy().merge(b.copy().merge(c)).to_dict()
        assert [x.to_dict() for x in triple] == before  # inputs untouched
        declaration = type(a)
        for name in declaration.COUNTERS:
            assert merged[name] == sum(x[name] for x in before)
        for name, ratio in declaration.RATIOS.items():
            below = total(merged, ratio.denominator)
            want = total(merged, ratio.numerator) / below if below else 0.0
            assert merged[name] == round(want, 6)

    @settings(max_examples=40, deadline=None)
    @given(triples())
    def test_renderings_survive_json_and_snapshots_survive_pickle(self, triple):
        snapshot = triple[0]
        rendered = snapshot.to_dict()
        assert json.loads(json.dumps(rendered)) == rendered
        restored = pickle.loads(pickle.dumps(snapshot))
        assert type(restored) is type(snapshot)
        assert restored.to_dict() == rendered
        copied = snapshot.copy()
        assert copied is not snapshot and copied.to_dict() == rendered

    @pytest.mark.parametrize("declaration", DECLARATIONS, ids=lambda d: d.__name__)
    def test_undeclared_names_raise(self, declaration):
        stats = declaration()
        assert not hasattr(stats, "__dict__")
        with pytest.raises(AttributeError):
            stats.no_such_counter
        with pytest.raises(AttributeError):
            stats.no_such_counter += 1
        with pytest.raises(AttributeError):
            stats.no_such_counter = 1
        with pytest.raises(TypeError, match="no_such_counter"):
            declaration(no_such_counter=1)
        for name in declaration.RATIOS:  # derived, never stored
            with pytest.raises(AttributeError):
                setattr(stats, name, 0.5)

    @pytest.mark.parametrize("declaration", DECLARATIONS, ids=lambda d: d.__name__)
    def test_zero_denominator_reads_zero(self, declaration):
        rendered = declaration().to_dict()
        for name in declaration.RATIOS:
            assert rendered[name] == 0.0 and getattr(declaration(), name) == 0.0

    def test_each_ratio_is_its_declared_formula(self):
        stats = EngineStats(
            padded_tokens=410, real_tokens=382, column_hits=1, column_misses=2,
            pairs_planned=6, pairs_pruned=18,
        )
        assert stats.padding_waste == (410 - 382) / 410
        assert stats.column_hit_rate == 1 / 3
        assert stats.probe_prune_rate == 18 / 24
        rendered = stats.to_dict()
        assert rendered["padding_waste"] == 0.068293
        assert rendered["column_hit_rate"] == 0.333333
        assert rendered["probe_prune_rate"] == 0.75

    def test_merge_takes_declared_parts_and_nothing_else(self):
        totals = GatewayStats()
        totals.merge(ServiceStats(submitted=2, completed=1))
        totals.merge(EngineStats(encoder_passes=3, disk_hits=4, requests=9))
        rendered = totals.to_dict()
        assert (rendered["submitted"], rendered["completed"]) == (2, 1)
        assert (rendered["encoder_passes"], rendered["disk_hits"]) == (3, 4)
        assert "requests" not in rendered  # not one of the four it takes
        # `hits` is declared by both; sharing a name is not a declaration.
        with pytest.raises(TypeError, match="FabricStats"):
            EncodingStats().merge(FabricStats(hits=1))
        with pytest.raises(TypeError):
            ServiceStats().merge(GatewayStats())

    def test_declare_rejects_a_ratio_over_undeclared_counters(self):
        with pytest.raises(ValueError, match="misses"):
            declare(
                "Broken", "", {"hits": ""},
                ratios={"rate": Ratio("", ("hits",), ("hits", "misses"))},
            )

    def test_bumps_are_native_attribute_stores(self):
        """No hook sits between ``stats.x += 1`` and the slot."""
        for declaration in DECLARATIONS:
            for cls in declaration.__mro__[:-1]:
                assert not {"__setattr__", "__getattr__", "__getattribute__"} & set(
                    vars(cls)
                )
            assert issubclass(declaration, Counters)
            assert set(declaration.__slots__) == (
                set(declaration.COUNTERS) | set(declaration.GROUPS)
            )


# ----------------------------------------------------------------------
# The wire shape of {"op": "stats"}
# ----------------------------------------------------------------------

SERVICE_SHAPE = {
    "submitted": "int", "completed": "int", "failed": "int", "batches": "int",
    "dedup_hits": "int", "unique_annotated": "int",
}

#: Captured from the parent of the port (one process, single-column model,
#: ``--probe-mode planned --cache-dir``): every key, every leaf type.
STATS_SHAPE = {
    "ok": "bool",
    "op": "str",
    "server": {
        "connections": "int", "requests": "int", "admin_ops": "int",
        "errors": "int", "ready": "int", "answered": "int",
    },
    "gateway": {
        **SERVICE_SHAPE,
        "encoder_passes": "int", "disk_hits": "int", "disk_misses": "int",
        "models": {"default": SERVICE_SHAPE},
        "engines": {
            "default": {
                "requests": "int", "batches": "int", "encoder_passes": "int",
                "cache_hits": "int", "cache_misses": "int",
                "disk_hits": "int", "disk_misses": "int",
                "column_hits": "int", "column_misses": "int",
                "segment_hits": "int", "segment_misses": "int",
                "real_tokens": "int", "padded_tokens": "int",
                "last_block_rows": "int",
                "pairs_planned": "int", "pairs_pruned": "int",
                "pairs_probed": "int",
                "padding_waste": "float", "last_block_share": "float",
                "column_hit_rate": "float", "probe_prune_rate": "float",
            }
        },
        "disk_tiers": {
            "default": {
                "hits": "int", "misses": "int", "writes": "int",
                "remote_hits": "int", "refreshes": "int",
                "corrupt_records": "int",
            }
        },
    },
    "registry": {
        "registered": "int", "loads": "int", "reloads": "int",
        "evictions": "int", "routed": "int", "repoints": "int",
        "arena_remaps": "int",
    },
}

#: What ``--workers 2`` adds to it (same capture).
POOL_SHAPE = {
    "workers": "int", "live": "int", "answered": "int", "restarts": "int",
    "per_worker": [
        {
            "worker": "int", "pid": "int", "connections": "int",
            "requests": "int", "completed": "int",
        }
    ],
}


def shape(node):
    if isinstance(node, dict):
        return {key: shape(value) for key, value in node.items()}
    if isinstance(node, list):
        return [shape(node[0])]
    return type(node).__name__


@pytest.fixture(scope="module")
def sc_bundle(tmp_path_factory):
    """An (untrained) single-column bundle plus a few of its tables."""
    dataset = generate_wikitable_dataset(num_tables=12, seed=3, max_rows=4)
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=400)
    encoder = TransformerConfig(
        vocab_size=tokenizer.vocab_size, hidden_dim=16, num_layers=1,
        num_heads=2, ffn_dim=32, max_position=160, num_segments=8, dropout=0.0,
    )
    trainer = DoduoTrainer(
        dataset, tokenizer, encoder,
        DoduoConfig(epochs=1, batch_size=8, keep_best_checkpoint=False,
                    single_column=True),
    )
    bundle = tmp_path_factory.mktemp("telemetry-bundle") / "model"
    save_annotator(Doduo(trainer), bundle)
    return bundle, dataset.tables[:3]


def _session(address, tables):
    """Three tables, two of them again (store hits), then the stats op."""
    records = [table_to_dict(table) for table in tables]
    with socket.create_connection(address, timeout=60) as sock:
        stream = sock.makefile("rw", encoding="utf-8", newline="\n")
        for record in records + records[:2] + [{"op": "stats"}]:
            stream.write(json.dumps(record) + "\n")
            stream.flush()
            answer = json.loads(stream.readline())
            assert "error" not in answer
    return answer


def _assert_ratios_rounded_once(stats):
    engine = stats["gateway"]["engines"]["default"]
    assert engine["padding_waste"] > 0  # single-column: intra-table padding
    for name in EngineStats.RATIOS:
        assert engine[name] == round(engine[name], 6)
    assert engine["padding_waste"] == round(
        (engine["padded_tokens"] - engine["real_tokens"]) / engine["padded_tokens"], 6
    )


class TestWireShape:
    def test_single_process_planned_with_cache_dir(self, sc_bundle, tmp_path):
        bundle, tables = sc_bundle
        registry = ModelRegistry(
            engine_config=EngineConfig(probe_mode="planned"),
            cache_dir=str(tmp_path / "cache"),
        )
        registry.register("default", bundle)
        with AnnotationGateway(registry) as gateway:
            with ServerThread(
                gateway, AnnotationOptions(with_embeddings=False)
            ) as address:
                stats = _session(address, tables)
        assert shape(stats) == STATS_SHAPE
        assert stats["gateway"]["completed"] == 5
        assert stats["gateway"]["disk_hits"] == 2
        _assert_ratios_rounded_once(stats)

    def test_two_worker_pool(self, sc_bundle, tmp_path):
        bundle, tables = sc_bundle
        config = PoolConfig(
            bundle=str(bundle), host="127.0.0.1", port=0,
            workers=2, cache_dir=str(tmp_path / "cache"),
            engine=EngineConfig(probe_mode="planned"),
        )
        with ServingPool(config) as pool:
            stats = _session(pool.address, tables)
        assert shape(stats) == {**STATS_SHAPE, "pool": POOL_SHAPE}
        assert stats["gateway"]["completed"] == 5
        # The pooled ratio is rendered like the single-process one (it
        # was the bare quotient, 0.06829268292682927, before the port).
        _assert_ratios_rounded_once(stats)


# ----------------------------------------------------------------------
# docs/server.md "Counter reference" cannot drift
# ----------------------------------------------------------------------


def _formula(ratio):
    def side(terms):
        text = terms[0]
        for term in terms[1:]:
            text += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return f"({text})" if len(terms) > 1 else text

    return f"{side(ratio.numerator)} / {side(ratio.denominator)}"


def test_counter_reference_lists_exactly_the_declared_keys():
    text = (Path(__file__).resolve().parents[1] / "docs" / "server.md").read_text(
        encoding="utf-8"
    )
    reference = text.split("\n## Counter reference\n", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for section in reference.split("\n### ")[1:]:
        title = section.split("\n", 1)[0].strip("`")
        documented[title] = dict(
            re.findall(r"^\| `(\w+)` \| (.+) \|$", section, flags=re.MULTILINE)
        )
    declared = {
        "server": ServerStats,
        "gateway": GatewayStats,
        "gateway.models.*": ServiceStats,
        "gateway.engines.*": EngineStats,
        "gateway.disk_tiers.*": FabricStats,
        "registry": RegistryStats,
    }
    assert list(documented) == [*declared, "pool"]
    for title, declaration in declared.items():
        assert list(documented[title]) == [
            *declaration.COUNTERS, *declaration.RATIOS, *declaration.GROUPS
        ], title
        for name, ratio in declaration.RATIOS.items():
            assert f"`{_formula(ratio)}`" in documented[title][name]
    assert list(documented["pool"]) == list(POOL_SHAPE)
