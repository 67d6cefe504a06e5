"""Saving and loading trained annotators as self-contained model bundles.

The released DODUO toolbox ships fine-tuned models that users load and apply
without retraining.  A *bundle* here is a directory holding everything needed
to reconstruct a working :class:`~repro.core.annotator.Doduo`:

* ``bundle.json`` — encoder config, fine-tuning config, label vocabularies
* ``tokenizer.json`` — the WordPiece vocabulary
* ``weights.npz`` — the fine-tuned model parameters

``load_annotator(save_annotator(model))`` reproduces predictions bit-exactly
(asserted by the tests), which is what makes the CLI's train-then-annotate
workflow possible across processes.

A bundle can additionally carry derived **weight arenas**
(``arena-float32.rpwa``, see :mod:`repro.nn.arena`): flat mmap-able
files holding the inference weights, built on demand by
:func:`ensure_model_arena` and consumed via
``load_annotator(..., weight_arena=...)`` — the model's parameters then
*are* read-only views over the arena's pages, shared by every process
that maps the same file, instead of a private ``weights.npz`` copy.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Optional, Union

from ..datasets.tables import TableDataset
from ..nn import TransformerConfig, deferred_init, load_checkpoint, save_checkpoint
from ..nn.arena import ARENA_SUFFIX, Arena, attach_arena, write_model_arena
from ..text import WordPieceTokenizer
from .annotator import Doduo
from .trainer import DoduoConfig, DoduoTrainer

PathLike = Union[str, Path]

_BUNDLE_VERSION = 1


def save_annotator(annotator: Doduo, directory: PathLike) -> Path:
    """Write a trained annotator as a model bundle under ``directory``.

    The directory is created if missing; existing bundle files inside it are
    overwritten.  Returns the bundle path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    trainer = annotator.trainer

    manifest = {
        "kind": "doduo-bundle",
        "version": _BUNDLE_VERSION,
        "encoder_config": dataclasses.asdict(trainer.model.config),
        "doduo_config": dataclasses.asdict(trainer.config),
        "type_vocab": list(trainer.dataset.type_vocab),
        "relation_vocab": list(trainer.dataset.relation_vocab),
        "dataset_name": trainer.dataset.name,
    }
    with open(directory / "bundle.json", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    trainer.tokenizer.save(directory / "tokenizer.json")
    save_checkpoint(trainer.model, directory / "weights.npz")
    return directory


def load_annotator(
    directory: PathLike, weight_arena: Optional[PathLike] = None
) -> Doduo:
    """Reconstruct an annotator from a bundle written by :func:`save_annotator`.

    ``weight_arena`` (a path or an open :class:`~repro.nn.arena.Arena`)
    replaces the ``weights.npz`` deserialization with zero-copy attachment:
    every parameter becomes a read-only memmap view over the arena file, so
    N processes loading the same bundle share one physical copy of the
    weights and "loading" is a header parse plus a remap, bitwise the npz
    load.

    Raises
    ------
    ValueError
        If the directory is not a bundle or was written by an incompatible
        version, or if ``weight_arena`` records a precision other than
        ``float32``.
    """
    directory = Path(directory)
    manifest_path = directory / "bundle.json"
    if not manifest_path.exists():
        raise ValueError(f"{directory} does not contain a bundle.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("kind") != "doduo-bundle":
        raise ValueError(f"{manifest_path} is not a doduo bundle manifest")
    if manifest.get("version") != _BUNDLE_VERSION:
        raise ValueError(
            f"bundle version {manifest.get('version')} is not supported "
            f"(this build reads version {_BUNDLE_VERSION})"
        )

    tokenizer = WordPieceTokenizer.load(directory / "tokenizer.json")
    encoder_config = TransformerConfig(**manifest["encoder_config"])
    doduo_config = DoduoConfig(**{
        key: tuple(value) if key == "tasks" else value
        for key, value in manifest["doduo_config"].items()
    })

    # The trainer only needs the label vocabularies at inference time; an
    # empty table list keeps the bundle self-contained.
    dataset = TableDataset(
        tables=[],
        type_vocab=list(manifest["type_vocab"]),
        relation_vocab=list(manifest["relation_vocab"]),
        name=manifest.get("dataset_name", ""),
    )
    # Every parameter is about to be overwritten (npz copy) or replaced
    # (arena view), so skip the random init: drawing ~the full weight
    # payload just to discard it costs startup time, and in a forked
    # serving worker it permanently dirties that many COW heap pages —
    # which would defeat the arena's per-worker memory savings.
    with deferred_init():
        trainer = DoduoTrainer(dataset, tokenizer, encoder_config, doduo_config)
    if weight_arena is not None:
        arena = (
            weight_arena
            if isinstance(weight_arena, Arena)
            else Arena(weight_arena)
        )
        attach_arena(trainer.model, arena)
    else:
        load_checkpoint(trainer.model, directory / "weights.npz")
    trainer.model.eval()
    return Doduo(trainer)


def _weights_signature(weights_path: Path) -> dict:
    stat = weights_path.stat()
    return {"size": stat.st_size, "mtime_ns": stat.st_mtime_ns}


def ensure_model_arena(
    bundle_dir: PathLike, arena_dir: Optional[PathLike] = None
) -> Path:
    """The bundle's weight arena, building it if needed.

    The arena lives next to the bundle by default
    (``arena-float32.rpwa``; ``arena_dir`` overrides the directory).
    An existing file is reused only when its recorded precision and its
    source signature — size and mtime of ``weights.npz`` at build time —
    still match, so retraining or re-saving the bundle invalidates the
    arena instead of serving stale weights.  Building parses the bundle
    once (the one deserialization N workers then all skip) and publishes
    through its own temporary, so concurrent builders race benignly: each
    replace installs a whole arena, and all of them hold identical bytes.
    """
    bundle_dir = Path(bundle_dir)
    weights_path = bundle_dir / "weights.npz"
    signature = _weights_signature(weights_path)
    directory = Path(arena_dir) if arena_dir is not None else bundle_dir
    path = directory / f"arena-float32{ARENA_SUFFIX}"
    if path.exists():
        try:
            existing = Arena(path)
        except (OSError, ValueError, KeyError):
            existing = None  # corrupt or truncated: rebuild below
        if (
            existing is not None
            and existing.precision == "float32"
            and existing.meta.get("source") == signature
        ):
            return path
    annotator = load_annotator(bundle_dir)
    directory.mkdir(parents=True, exist_ok=True)
    write_model_arena(annotator.trainer.model, path, meta={"source": signature})
    return path
