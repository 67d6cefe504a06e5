"""Zero-copy weight arenas: one mmap-able file, many consumers.

PR 6's serving pool pays N private copies of the model weights — every
worker deserializes ``weights.npz`` (decompress + copy) into its own
heap, and a crash-restarted worker pays the whole parse again.  An
*arena* is the shared-representation fix: the parent serializes a
model's inference weights **once** into a flat file with a content-hash
header, and every consumer — workers and their restarts —
constructs its tensors as read-only :func:`numpy.memmap` views over the
same pages.  The kernel's page cache then backs all of them: per-extra-
worker RSS drops by roughly the weight size, and "loading" a model is a
remap, not a deserialize.

File layout (version 1)::

    [0:4)    magic  b"RPWA"
    [4:8)    format version, little-endian uint32
    [8:16)   header length H, little-endian uint64
    [16:16+H) UTF-8 JSON header:
              {"content_hash": ..., "meta": {...},
               "tensors": [{"name", "dtype", "shape",
                            "offset", "nbytes"}, ...]}
    [pad to 64] tensor blobs, each 64-byte aligned, offsets relative to
                the data section start

``content_hash`` is :func:`repro.encoding.cache.content_digest` — the
toolbox's single content-hash recipe — over every tensor's name, dtype,
shape, and raw bytes, so arenas are content-addressed like every other
persisted tier.  Writes go through :func:`repro.encoding.cache.publish`
(a unique temporary, fsync, ``os.replace``): a crash mid-write never
leaves a half-arena that parses, and concurrent builders never share a
temporary.

A model arena stores each parameter's exact live float32 bytes, so an
arena-backed model is bitwise the in-memory one (pinned by tests).  Its
meta records ``"precision": "float32"``; an arena that records any
other precision is refused at attach.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Union

import numpy as np

from ..encoding.cache import content_digest, publish
from .layers import Module

PathLike = Union[str, Path]

ARENA_MAGIC = b"RPWA"
ARENA_VERSION = 1
ARENA_SUFFIX = ".rpwa"
_ALIGN = 64
_PREAMBLE = struct.Struct("<4sIQ")  # magic, version, header length


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _hash_tensors(tensors: Mapping[str, np.ndarray]) -> str:
    def chunks() -> Iterator[bytes]:
        for name, array in tensors.items():
            yield b"\x1d"
            yield name.encode("utf-8")
            yield repr((array.dtype.str, array.shape)).encode("utf-8")
            yield np.ascontiguousarray(array).tobytes()

    return content_digest(chunks())


def write_arena(
    path: PathLike,
    tensors: Mapping[str, np.ndarray],
    meta: Optional[dict] = None,
) -> Path:
    """Serialize ``tensors`` (name → ndarray, order preserved) to ``path``.

    Atomic: the arena appears complete or not at all.  Returns ``path``.
    """
    table: List[dict] = []
    offset = 0
    arrays: List[np.ndarray] = []
    for name, array in tensors.items():
        array = np.ascontiguousarray(array)
        arrays.append(array)
        offset = _aligned(offset)
        table.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
                "nbytes": int(array.nbytes),
            }
        )
        offset += array.nbytes
    header = {
        "content_hash": _hash_tensors(tensors),
        "meta": dict(meta or {}),
        "tensors": table,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    data_start = _aligned(_PREAMBLE.size + len(header_bytes))

    def chunks() -> Iterator[bytes]:
        yield _PREAMBLE.pack(ARENA_MAGIC, ARENA_VERSION, len(header_bytes))
        yield header_bytes
        yield b"\x00" * (data_start - _PREAMBLE.size - len(header_bytes))
        written = 0
        for entry, array in zip(table, arrays):
            yield b"\x00" * (entry["offset"] - written)
            yield array.tobytes()
            written = entry["offset"] + entry["nbytes"]

    return publish(path, chunks())


class Arena:
    """Read-only view over one arena file.

    Tensor views share a single ``np.memmap`` (mode ``"r"``): they are
    not writable, and N processes opening the same file share the pages.
    Construction parses only the header — no tensor bytes are touched
    until a view is actually read, so opening is O(header), which is
    what makes a worker restart a remap instead of a deserialize.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as handle:
            preamble = handle.read(_PREAMBLE.size)
            if len(preamble) != _PREAMBLE.size:
                raise ValueError(f"{self.path} is too short to be an arena")
            magic, version, header_len = _PREAMBLE.unpack(preamble)
            if magic != ARENA_MAGIC:
                raise ValueError(f"{self.path} is not a weight arena (bad magic)")
            if version != ARENA_VERSION:
                raise ValueError(
                    f"arena version {version} is not supported "
                    f"(this build reads version {ARENA_VERSION})"
                )
            header_bytes = handle.read(header_len)
            if len(header_bytes) != header_len:
                raise ValueError(f"{self.path} has a truncated arena header")
        header = json.loads(header_bytes.decode("utf-8"))
        self.content_hash: str = header["content_hash"]
        self.meta: dict = header.get("meta", {})
        self._table: Dict[str, dict] = {
            entry["name"]: entry for entry in header["tensors"]
        }
        self._data_start = _aligned(_PREAMBLE.size + header_len)
        self._mm = np.memmap(self.path, mode="r", dtype=np.ubyte)
        self._views: Dict[str, np.ndarray] = {}

    @property
    def precision(self) -> str:
        return self.meta.get("precision", "float32")

    def names(self) -> List[str]:
        return list(self._table)

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __getitem__(self, name: str) -> np.ndarray:
        view = self._views.get(name)
        if view is not None:
            return view
        entry = self._table.get(name)
        if entry is None:
            raise KeyError(f"arena {self.path} has no tensor {name!r}")
        start = self._data_start + entry["offset"]
        raw = self._mm[start : start + entry["nbytes"]]
        view = raw.view(np.dtype(entry["dtype"])).reshape(entry["shape"])
        self._views[name] = view
        return view

    def get(self, name: str) -> Optional[np.ndarray]:
        try:
            return self[name]
        except KeyError:
            return None

    def verify(self) -> bool:
        """Recompute the content hash over every tensor (reads all pages)."""
        return _hash_tensors({name: self[name] for name in self._table}) == (
            self.content_hash
        )


def model_arena_tensors(model: Module) -> "Dict[str, np.ndarray]":
    """The tensor set an arena stores for ``model``: every named
    parameter's exact live array."""
    return {
        name: np.ascontiguousarray(param.data)
        for name, param in sorted(model.named_parameters())
    }


def write_model_arena(
    model: Module, path: PathLike, meta: Optional[dict] = None
) -> Path:
    """Write ``model``'s inference weights as an arena at ``path``."""
    merged = {"precision": "float32"}
    fingerprint = getattr(model, "fingerprint", None)
    if callable(fingerprint):
        # Provenance: the fingerprint of the weights the arena was built FROM.
        merged["source_fingerprint"] = fingerprint()
    merged.update(meta or {})
    return write_arena(path, model_arena_tensors(model), merged)


def attach_arena(model: Module, arena: Arena) -> None:
    """Point every parameter of ``model`` at its read-only arena view.

    After this, the model's weights live in the arena's shared pages:
    no private copy exists, and inference sessions capture the views
    directly (``InferenceSession._arr`` shares same-dtype arrays).  The
    model must not be trained afterwards — the views are read-only, and
    any in-place optimizer update would raise.  Invalidate-on-replace
    contracts are honored: memoized sessions and (by the caller)
    annotation fingerprints must be dropped, exactly as after
    ``load_state_dict``.

    An arena whose meta records a precision other than ``float32`` (one
    written by a quantizing build) is refused: its plain-name tensors are
    not the model's weights.
    """
    if arena.precision != "float32":
        raise ValueError(
            f"arena {arena.path} records precision {arena.precision!r}; "
            "only float32 arenas attach"
        )
    for name, param in model.named_parameters():
        view = arena.get(name)
        if view is None:
            raise KeyError(
                f"arena {arena.path} is missing tensor {name!r} "
                "(stale arena for a different architecture?)"
            )
        if tuple(view.shape) != tuple(param.data.shape):
            raise ValueError(
                f"arena tensor {name!r} has shape {tuple(view.shape)}, "
                f"model expects {tuple(param.data.shape)}"
            )
        if view.dtype != param.data.dtype:
            raise ValueError(
                f"arena tensor {name!r} has dtype {view.dtype}, "
                f"model expects {param.data.dtype}"
            )
        param.data = view
    # Underscored so Module's attribute walkers never descend into it.
    model._weight_arena = arena
    invalidate = getattr(model, "invalidate_sessions", None)
    if callable(invalidate):
        invalidate()


def model_arena(model: Module) -> Optional[Arena]:
    """The arena ``model``'s weights are mapped from, if any."""
    return getattr(model, "_weight_arena", None)
