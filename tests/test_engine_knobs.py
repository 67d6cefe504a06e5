"""One declaration per engine knob (``repro.serving.engine.knob``), and
what reads it.

* **Lattice.**  Every ``EngineConfig`` field declares whether it changes
  annotation bytes.  ``same`` is a claim about every configuration at once
  — a stored annotation may be served under any configuration that differs
  in ``same`` knobs alone — so hypothesis draws configurations from the
  declared ``values`` and holds each to the everything-off oracle of its
  ``changes`` class: wire bytes ``==``, fingerprints ``==``; fingerprints
  ``!=`` across classes.
* **Registry and pool legs.**  ``weight_arena`` and the store a registry
  attaches after construction are invisible to an in-memory engine; they
  are served through ``ModelRegistry`` over a saved bundle, and once
  through a two-worker pool.
* **Fold oracle.**  The fingerprint of every precision × probe policy
  equals the formula of the release before the declarations existed, kept
  here verbatim: stored keys stay valid.
* **Hygiene.**  A field that is not declared, or declares an untestable
  or unfolded claim, fails at class creation — at import, for the real
  class.
* **Flags** are generated from the declarations.
"""

from __future__ import annotations

import hashlib
import json
import socket
from dataclasses import dataclass, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _engine_config, build_parser
from repro.core import Doduo, DoduoConfig, DoduoTrainer, ProbeBudget, ProbePlanner
from repro.core.persistence import save_annotator
from repro.datasets import Table, generate_wikitable_dataset
from repro.io import table_to_dict
from repro.nn import TransformerConfig
from repro.serving import (
    AnnotationEngine,
    AnnotationOptions,
    AnnotationRequest,
    EngineConfig,
    ModelRegistry,
    protocol,
)
from repro.serving.engine import knob
from repro.serving.pool import PoolConfig, ServingPool
from repro.text import train_wordpiece

KNOBS = fields(EngineConfig)
CHANGES = [k.name for k in KNOBS if k.metadata["bytes"] == "changes"]
OPTIONS = AnnotationOptions(with_embeddings=True, top_k=3)


@pytest.fixture(scope="module")
def dataset():
    return generate_wikitable_dataset(num_tables=20, seed=5, max_rows=4)


@pytest.fixture(scope="module")
def trainers(dataset):
    """A table-wise and a single-column model, both with a relation head."""
    tokenizer = train_wordpiece(dataset.all_cell_text(), vocab_size=600)
    encoder = TransformerConfig(
        vocab_size=tokenizer.vocab_size, hidden_dim=32, num_layers=2, num_heads=2,
        ffn_dim=64, max_position=160, num_segments=8, dropout=0.0,
    )
    built = {}
    for name in ("table", "scol"):
        trainer = DoduoTrainer(
            dataset, tokenizer, encoder,
            DoduoConfig(
                epochs=1, batch_size=8, single_column=name == "scol",
                keep_best_checkpoint=False,
            ),
        )
        trainer.train()
        built[name] = trainer
    return built


@pytest.fixture(scope="module")
def corpus(dataset):
    """Thirteen requests: gold-pair tables, unlabeled ones (whose pairs the
    probe policy decides), a wide stitched table that shares its columns
    with them, and repeats."""
    t = dataset.tables
    unlabeled = [
        Table(columns=list(table.columns), table_id=f"bare-{i}")
        for i, table in enumerate(t[5:9])
    ]
    stitched = Table(
        columns=[column for table in t[:3] for column in table.columns][:6],
        table_id="stitched",
    )
    tables = t[:5] + unlabeled + [stitched, t[0], unlabeled[1], stitched]
    assert len(tables) == 13
    return [AnnotationRequest(table=table, options=OPTIONS) for table in tables]


def wire(results):
    return [
        protocol.encode_line(protocol.encode_result(r, with_embeddings=True))
        for r in results
    ]


def serve(trainer, config, requests):
    engine = AnnotationEngine(trainer, config)
    try:
        return wire(engine.annotate_batch(requests))
    finally:
        if engine.result_cache is not None:
            engine.result_cache.close()


def fingerprint(trainer, config):
    return AnnotationEngine(trainer, replace(config, cache_dir=None)).model_fingerprint


def changes_of(config):
    return tuple(getattr(config, name) for name in CHANGES)


def oracle_of(config):
    """``config``'s ``changes`` knobs with every tier off: one table per
    pass, no caches, no store — on the Tensor path where it can run."""
    quiet = dict(zip(CHANGES, changes_of(config)), batch_size=1, cache_size=0,
                 column_cache_size=0)
    try:
        return EngineConfig(kernels="reference", **quiet)
    except ValueError:  # the Tensor path is float32-only
        return EngineConfig(**quiet)


def _config(drawn):
    try:
        return EngineConfig(**drawn)
    except ValueError:  # a cross-field rule refuses the combination
        return None


#: A valid configuration drawn from the declared values.
configs = (
    st.fixed_dictionaries(
        {k.name: st.sampled_from(k.metadata["values"]) for k in KNOBS}
    )
    .map(_config)
    .filter(lambda config: config is not None)
)


# ----------------------------------------------------------------------
# (a) the lattice
# ----------------------------------------------------------------------


class TestLattice:
    @pytest.fixture(scope="class")
    def oracles(self):
        return {}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        model=st.sampled_from(["table", "scol"]),
        config=configs,
        other=configs,
        reread=st.booleans(),
    )
    def test_same_knobs_serve_the_oracle_bytes(
        self, trainers, corpus, oracles, tmp_path_factory, model, config, other,
        reread,
    ):
        trainer = trainers[model]
        oracle = oracle_of(config)
        differing = [
            k for k in KNOBS if getattr(config, k.name) != getattr(oracle, k.name)
        ]
        assert all(k.metadata["bytes"] == "same" for k in differing)
        assert fingerprint(trainer, config) == fingerprint(trainer, oracle)
        assert (fingerprint(trainer, config) == fingerprint(trainer, other)) == (
            changes_of(config) == changes_of(other)
        )
        if config.cache_dir is not None:
            root = tmp_path_factory.mktemp("lattice")
            config = replace(config, cache_dir=str(root / config.cache_dir))
        key = (model, changes_of(config))
        if key not in oracles:
            oracles[key] = serve(trainer, oracle, corpus)
        if reread and config.cache_dir is not None:
            # A first engine stores half the corpus (and, persisting,
            # its column states); a second one re-reads them.
            assert serve(trainer, config, corpus[:7]) == oracles[key][:7]
        assert serve(trainer, config, corpus) == oracles[key]


# ----------------------------------------------------------------------
# (b) the registry and pool legs
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def bundle(trainers, tmp_path_factory):
    directory = tmp_path_factory.mktemp("knobs-bundle")
    save_annotator(Doduo(trainers["scol"]), directory)
    return directory


class TestRegistryLeg:
    @pytest.mark.parametrize("persist", [False, True])
    @pytest.mark.parametrize("weight_arena", [False, True])
    def test_arena_and_store_serve_the_oracle_bytes(
        self, trainers, corpus, bundle, tmp_path, weight_arena, persist
    ):
        config = EngineConfig(weight_arena=weight_arena, column_cache_persist=persist)
        expected = serve(trainers["scol"], oracle_of(config), corpus)

        def through_registry(requests):
            with ModelRegistry(engine_config=config, cache_dir=tmp_path) as registry:
                registry.register("default", bundle)
                engine = registry.get()
                return wire(engine.annotate_batch(requests)), engine

        first, engine = through_registry(corpus[:7])
        assert first == expected[:7]
        assert engine.model_fingerprint == fingerprint(trainers["scol"], config)
        # A second process over the same root: the first seven (and the two
        # later repeats of them) are stored answers, and the rest share
        # columns with them.
        second, engine = through_registry(corpus)
        assert second == expected
        assert engine.stats.disk_hits == 9
        assert (engine.column_cache.persisted_hits >= 1) == persist

    def test_a_detached_store_detaches_for_column_states_too(
        self, corpus, bundle, tmp_path
    ):
        config = EngineConfig(column_cache_persist=True)
        registry = ModelRegistry(engine_config=config, cache_dir=tmp_path)
        registry.register("default", bundle)
        engine = registry.get()
        engine.annotate_batch(corpus[:2])
        assert engine.column_cache.disk is engine.result_cache is not None
        registry.close()
        engine.annotate_batch(corpus[2:4])  # a worker still draining it
        assert engine.column_cache.disk is None

    @pytest.mark.smoke
    def test_a_pool_serves_the_in_process_bytes(
        self, trainers, corpus, bundle, tmp_path
    ):
        config = EngineConfig(
            batch_size=3, column_cache_persist=True, weight_arena=True,
            probe_mode="planned", probe_budget=2,
        )
        expected = serve(trainers["scol"], oracle_of(config), corpus)
        pool = ServingPool(PoolConfig(
            specs=[("default", str(bundle))], workers=2, engine=config,
            cache_dir=str(tmp_path / "cache"), options=OPTIONS,
        ))
        with pool, socket.create_connection(pool.address, timeout=60) as sock:
            with sock.makefile("rw", encoding="utf-8", newline="\n") as stream:
                for request in corpus:
                    stream.write(json.dumps(table_to_dict(request.table)) + "\n")
                stream.flush()
                assert [stream.readline() for _ in corpus] == expected


# ----------------------------------------------------------------------
# (c) the fold oracle
# ----------------------------------------------------------------------

# The formula of the release before the declarations, verbatim (it was
# ``DoduoTrainer.annotation_fingerprint(precision, probe)``, fed by
# ``AnnotationEngine.model_fingerprint``).
_PRECISION_MARKERS = {
    "float32": (b"", b""),
    "float64": (b"|dtype=float64", b""),
}


def parent_fingerprint(self, precision, probe):
    digest = hashlib.blake2b(digest_size=16)
    digest.update(self.model.fingerprint().encode("utf-8"))
    digest.update(repr(self.serializer.config).encode("utf-8"))
    digest.update(
        repr(
            (
                self.config.multi_label,
                self.config.single_column,
                tuple(self.config.tasks),
            )
        ).encode("utf-8")
    )
    for word in self.tokenizer.vocab.tokens():
        digest.update(b"\x1f")
        digest.update(word.encode("utf-8"))
    for vocab in (self.dataset.type_vocab, self.dataset.relation_vocab):
        digest.update(b"\x1d")
        for label in vocab:
            digest.update(b"\x1f")
            digest.update(label.encode("utf-8"))
    before_probe, after_probe = _PRECISION_MARKERS[precision]
    digest.update(before_probe)
    if probe is not None:
        digest.update(f"|probe={probe}".encode("utf-8"))
    digest.update(after_probe)
    return digest.hexdigest()


class TestFoldOracle:
    def test_the_default_configuration_folds_nothing(self, trainers):
        assert EngineConfig().fold() == b""
        assert (
            AnnotationEngine(trainers["table"]).model_fingerprint
            == trainers["table"].annotation_fingerprint()
        )

    @pytest.mark.parametrize("precision", ["float32", "float64"])
    @pytest.mark.parametrize(
        "probe", [{}, {"probe_mode": "planned"},
                  {"probe_mode": "planned", "probe_budget": 12}],
        ids=["exhaustive", "planned", "planned-12"],
    )
    def test_digests_equal_the_parents(self, trainers, precision, probe):
        tag = None
        if probe:
            tag = ProbePlanner(
                ProbeBudget(max_pairs=probe.get("probe_budget"))
            ).fingerprint_tag()
        for trainer in trainers.values():
            engine = AnnotationEngine(trainer, EngineConfig(precision=precision, **probe))
            assert engine.model_fingerprint == parent_fingerprint(trainer, precision, tag)


# ----------------------------------------------------------------------
# (d) declaration hygiene
# ----------------------------------------------------------------------

CLAIM = dict(why="a claim", help="an effect")


class TestDeclarationHygiene:
    def test_every_field_declares(self):
        for k in KNOBS:
            assert k.metadata["bytes"] in ("same", "changes"), k.name
            assert k.metadata["why"] and k.metadata["help"], k.name

    def test_the_knob_reference_is_the_rendered_declarations(self):
        """docs/serving.md's Tuning table — regenerate it with ``python -c
        "from repro.serving import EngineConfig;
        print(EngineConfig.reference())"``."""
        text = (Path(__file__).resolve().parents[1] / "docs" / "serving.md").read_text(
            encoding="utf-8"
        )
        tuning = text.split("\n## Tuning\n", 1)[1].split("\n## ", 1)[0]
        assert EngineConfig.reference() in tuning
        assert "`EngineConfig` |" not in tuning  # no hand-written rows beside it
        assert EngineConfig.reference() in EngineConfig.__doc__

    def test_a_bare_field_fails_at_class_creation(self):
        with pytest.raises(TypeError, match="foo is not declared"):
            @dataclass(frozen=True)
            class Sub(EngineConfig):
                foo: int = 0

    def test_a_changes_knob_names_its_marker(self):
        with pytest.raises(TypeError, match="marker"):
            knob(0, bytes="changes", values=(0, 1), **CLAIM)
        with pytest.raises(TypeError, match="marker"):
            knob(0, bytes="same", values=(0, 1), marker={1: (3, b"|foo")}, **CLAIM)
        with pytest.raises(TypeError, match="marker-free"):
            knob(0, bytes="changes", values=(0, 1), marker={0: (3, b"|foo")}, **CLAIM)
        with pytest.raises(TypeError, match="'nope' has a marker"):
            @dataclass(frozen=True)
            class Sub(EngineConfig):
                foo: int = knob(
                    0, bytes="changes", values=(0, 1), marker="nope", **CLAIM
                )

    def test_a_claim_needs_two_values_to_be_tested(self):
        with pytest.raises(TypeError, match=">= 2 values"):
            knob(0, bytes="same", values=(0,), **CLAIM)
        with pytest.raises(TypeError, match="the default among them"):
            knob(0, bytes="same", values=(1, 2), **CLAIM)
        with pytest.raises(TypeError, match="'same' or 'changes'"):
            knob(0, bytes="maybe", values=(0, 1), **CLAIM)

    def test_a_declared_subclass_folds_after_the_existing_markers(self):
        @dataclass(frozen=True)
        class Sub(EngineConfig):
            foo: int = knob(
                0, bytes="changes", values=(0, 1), marker={1: (3, b"|foo=1")}, **CLAIM
            )

        assert Sub().fold() == b""
        assert Sub(foo=1, precision="float64").fold() == b"|dtype=float64|foo=1"


# ----------------------------------------------------------------------
# (e) flags
# ----------------------------------------------------------------------

POSITIONALS = {"annotate": ["bundle", "corpus.jsonl"], "serve": ["bundle", "-"]}
FLAGGED = [
    (command, k) for k in KNOBS for command in k.metadata["commands"]
    if k.metadata["flags"]
]


def parse(command, *flags):
    argv = [command, *POSITIONALS[command], "--cache-dir", "cache", *flags]
    return _engine_config(build_parser().parse_args(argv))


class TestFlags:
    @pytest.mark.parametrize(
        "command,k", FLAGGED, ids=[f"{c}-{k.name}" for c, k in FLAGGED]
    )
    def test_every_declared_flag_parses_into_its_field(self, command, k):
        value = next(v for v in k.metadata["values"] if v != k.default)
        needs = ["--probe-mode", "planned"] if k.name == "probe_budget" else []
        for flag in k.metadata["flags"]:
            given = [flag] if value is True else [flag, str(value)]
            config = parse(command, *needs, *given)
            assert getattr(config, k.name) == value
            assert replace(config, **{k.name: k.default}) == parse(command, *needs)

    def test_omitted_flags_leave_the_defaults(self):
        assert parse("annotate") == parse("serve") == EngineConfig()

    def test_dtype_still_spells_precision(self):
        assert parse("serve", "--dtype", "float64").precision == "float64"

    def test_the_loading_tiers_flag_is_serves_alone(self):
        assert parse("serve", "--weight-arena").weight_arena
        with pytest.raises(SystemExit):
            parse("annotate", "--weight-arena")

    def test_refused_values_and_combinations(self):
        with pytest.raises(SystemExit):
            parse("serve", "--kernels", "blas")
        with pytest.raises(ValueError, match="probe_budget requires"):
            parse("serve", "--probe-budget", "4")
        with pytest.raises(ValueError, match="requires --cache-dir"):
            _engine_config(build_parser().parse_args(
                ["serve", "bundle", "-", "--column-cache-persist"]
            ))
