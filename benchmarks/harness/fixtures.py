"""Fixtures: the two served models, the corpora, their reference answers.

Built once per (spec, source tree) under ``.cache/<hash>/`` and reused (the
``KEEP_TREES`` most recently used trees stay):

* ``doduo-wt/`` and ``scol-wt/`` — ``save_annotator`` bundles, trained
  with fixed seeds.  The budget (1 pre-training epoch, 10 fine-tuning
  epochs on 224 tables) is the smallest tried that keeps held-out type
  micro-F1 above 0.90: 6 epochs give 0.81, the legacy ``REPRO_BENCH_SMOKE``
  budget 0.18.  Model *shape* equals ``benchmarks/common.py``'s, so speed
  does not depend on the budget.
* ``narrow.json`` / ``wide.json`` — per table the wire line, the held-out
  gold, and the **oracle** answer: the in-process ``AnnotationEngine`` on
  the ``kernels="reference"`` path, one table at a time, same options and
  probe policy as the server.  It is the answer the system promises
  byte-for-byte, computed by the checkout's own sources, so a change that
  alters bytes fails the run that measured it.
* ``warm_cache/`` — the ``--cache-dir`` of ``warm_repeat``, filled by the
  real server answering the hot set once.  Each run serves from a copy.

The hash folds in every file under ``src/repro`` and this directory's
generator files: nothing stale is served after a source change.  Oracle and
models are therefore the commit's own: a change that alters the reference
and the fast path alike still verifies, and only ``answers_digest`` and the
F1s, compared across commits (``run.py`` prints the digest against
``baseline.json``), can show it.  Building is reported as
``fixture_build_s``, never inside ``setup_s``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import corpora
from catalog import HARNESS_DIR, REPO_ROOT, Workload
from loadgen import LoadGenerator, ServerProcess, serve_command, server_environment

SRC_DIR = REPO_ROOT / "src"
CACHE_ROOT = HARNESS_DIR / ".cache"

SPEC = {
    "version": 1,
    "pretrain_epochs": 1,
    "epochs": 10,
    "train_tables": 320,
    "train_seed": 7,
    "split_seed": 1,
    "max_tokens_per_column": 16,
    "batch_size": 8,
    "top_k": 3,  # the CLI's default answer truncation
}
MODELS = {"doduo-wt": False, "scol-wt": True}  # name -> single_column
_GENERATOR_FILES = ("fixtures.py", "corpora.py")
#: Source trees whose fixtures stay on disk (about 15 MB each).
KEEP_TREES = 3


def _log(message: str) -> None:
    print(f"[fixtures] {message}", file=sys.stderr, flush=True)


def config_hash() -> str:
    digest = hashlib.sha256(json.dumps(SPEC, sort_keys=True).encode())
    files = sorted((SRC_DIR / "repro").rglob("*.py"))
    files += [HARNESS_DIR / name for name in _GENERATOR_FILES]
    for path in files:
        digest.update(str(path.relative_to(REPO_ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass
class Corpus:
    """Wire lines (no id, no newline), oracle answer lines, held-out gold."""

    lines: List[bytes]
    answers: List[bytes]
    gold: List[Dict]


@dataclass
class Fixtures:
    root: Path
    manifest: Dict

    def bundle(self, model: str) -> Path:
        return self.root / model

    def corpus(self, workload: Workload) -> Corpus:
        name = "wide" if workload.name == "wide_planned" else "narrow"
        payload = json.loads((self.root / f"{name}.json").read_text())
        return Corpus(
            lines=[line.encode() for line in payload["lines"]],
            answers=[line.encode() for line in payload["answers"]],
            gold=payload["gold"],
        )

    @property
    def warm_cache(self) -> Path:
        return self.root / "warm_cache"


def serving_options():
    """The per-request options `repro serve` fixes from its default flags."""
    from repro.serving import AnnotationOptions

    return AnnotationOptions(with_embeddings=False, top_k=SPEC["top_k"])


def engine_config(workload: Workload, **overrides):
    """The EngineConfig `repro serve` builds for a workload's flags."""
    from repro.serving import EngineConfig

    flags = dict(zip(workload.server_flags[::2], workload.server_flags[1::2]))
    config = {}
    if "--probe-mode" in flags:
        config["probe_mode"] = flags["--probe-mode"]
    if "--probe-budget" in flags:
        config["probe_budget"] = int(flags["--probe-budget"])
    config.update(overrides)
    return EngineConfig(**config)


def ensure() -> Fixtures:
    """The fixtures of this source tree, building them when missing."""
    root = CACHE_ROOT / config_hash()
    manifest = root / "manifest.json"
    if not manifest.exists():
        _build(root)
    os.utime(manifest)  # last use, for the eviction below
    return Fixtures(root, json.loads(manifest.read_text()))


def _build(root: Path) -> None:
    started = time.perf_counter()
    CACHE_ROOT.mkdir(parents=True, exist_ok=True)
    # Other source trees' fixtures: keep the most recently used, so that
    # alternating a parent and a change in one checkout rebuilds neither.
    others = sorted(
        (path for path in CACHE_ROOT.iterdir() if (path / "manifest.json").exists()),
        key=lambda path: (path / "manifest.json").stat().st_mtime,
    )
    for stale in others[:max(0, len(others) - KEEP_TREES + 1)]:
        shutil.rmtree(stale, ignore_errors=True)
    staging = CACHE_ROOT / f"{root.name}.tmp-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    try:
        manifest = {"spec": SPEC, "hash": root.name}
        kb = _train(staging, manifest)
        _oracle(staging, kb, manifest)
        _fill_warm_cache(staging)
        manifest["fixture_build_s"] = time.perf_counter() - started
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=2))
        try:
            os.rename(staging, root)
        except OSError:
            if not (root / "manifest.json").exists():
                raise  # not a lost race with another builder
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    _log(f"built in {time.perf_counter() - started:.1f} s -> {root}")


def _train(staging: Path, manifest: Dict):
    from repro.core import (
        Doduo, DoduoConfig, PipelineConfig, build_knowledge_base,
        build_pretrained_lm, make_trainer, save_annotator,
    )
    from repro.core.trainer import RELATION_TASK, TYPE_TASK
    from repro.datasets import generate_wikitable_dataset, split_dataset

    pipeline = PipelineConfig(pretrain_epochs=SPEC["pretrain_epochs"])
    _log("pre-training the shared encoder")
    kb = build_knowledge_base(pipeline)
    tokenizer, pretrained = build_pretrained_lm(pipeline, kb=kb, use_cache=False)
    splits = split_dataset(
        generate_wikitable_dataset(
            num_tables=SPEC["train_tables"], seed=SPEC["train_seed"], kb=kb
        ),
        seed=SPEC["split_seed"],
    )
    for name, single_column in MODELS.items():
        _log(f"fine-tuning {name}")
        trainer = make_trainer(
            splits.train, tokenizer, pipeline,
            DoduoConfig(
                tasks=(TYPE_TASK, RELATION_TASK), multi_label=True,
                epochs=SPEC["epochs"], batch_size=SPEC["batch_size"],
                max_tokens_per_column=SPEC["max_tokens_per_column"],
                single_column=single_column,
            ),
            pretrained=pretrained,
        )
        trainer.train(valid_dataset=splits.valid)
        scores = trainer.evaluate(splits.test)
        manifest[name] = {task: prf.f1 for task, prf in scores.items()}
        save_annotator(Doduo(trainer), staging / name)
    return kb


def _oracle(staging: Path, kb, manifest: Dict) -> None:
    from repro.core import load_annotator
    from repro.serving import AnnotationEngine, protocol

    import catalog

    options = serving_options()
    jobs: Tuple[Tuple[str, str, List], ...] = (
        ("narrow", "cold_narrow", corpora.narrow_corpus(kb)),
        ("wide", "wide_planned", corpora.wide_corpus(kb)),
    )
    for name, workload_name, tables in jobs:
        workload = catalog.workload(workload_name)
        _log(f"reference answers for {len(tables)} {name} tables")
        engine = AnnotationEngine(
            load_annotator(staging / workload.model).trainer,
            engine_config(workload, kernels="reference", column_cache_size=0),
        )
        lines, answers = [], []
        for table in tables:
            line = json.dumps(corpora.wire_record(table))
            request = protocol.decode_record(line, options).request
            result = engine.annotate(request)
            lines.append(line)
            answers.append(json.dumps(protocol.encode_result(result)))
        (staging / f"{name}.json").write_text(json.dumps({
            "lines": lines,
            "answers": answers,
            "gold": [corpora.gold_of(table) for table in tables],
        }))
        manifest[f"{name}_tables"] = len(tables)


def spawn_server(
    fixtures_root: Path, workload: Workload, cache_dir=None, cpus=None
) -> ServerProcess:
    """`repro serve <bundle> --listen 127.0.0.1:0` with the workload's flags."""
    flags = list(workload.server_flags)
    if cache_dir is not None:
        flags += ["--cache-dir", str(cache_dir)]
    return ServerProcess(
        serve_command(fixtures_root / workload.model, flags),
        server_environment(SRC_DIR),
        cpus=cpus,
    )


def _fill_warm_cache(staging: Path) -> None:
    """Let the real server answer the hot set once over a fresh
    ``--cache-dir``: layout, keys and payloads are then the server's own."""
    import catalog

    workload = catalog.workload("warm_repeat")
    _log(f"filling the warm cache with {corpora.NARROW_HOT} tables")
    hot = range(corpora.NARROW_HOT)
    lines = json.loads((staging / "narrow.json").read_text())["lines"]
    server = spawn_server(staging, workload, cache_dir=staging / "warm_cache")

    async def fill(address) -> None:
        async with LoadGenerator(address) as generator:
            await generator.closed("fill", hot, [lines[i].encode() for i in hot])

    try:
        asyncio.run(fill(server.start()))
    finally:
        server.stop()
