"""The batched annotation engine (serving front-end).

:class:`AnnotationEngine` is the single-pass replacement for the legacy
``predict_types`` → ``predict_type_probs`` → relation probe →
``column_embeddings`` cascade: a whole batch of tables is serialized once
(through the shared :class:`~repro.encoding.EncodingPipeline` cache), run
through one padding-free encoder forward pass per chunk, and types, per-type
score dictionaries, relation predictions, and column embeddings are all
derived from those hidden states.

Batching policy: every sequence is encoded at exactly the width its table
dictates alone, so batched results are **byte-identical** to sequential
ones and no token slot is spent on cross-request padding (``EngineStats``
reports the waste ratio).  A drain is simply cut into chunks of
``batch_size`` in request order — the inference session mixes widths
inside one padding-free pass (:mod:`repro.core.inference`), so eight
tables of eight widths cost one pass, not eight.
(``kernels="reference"``, the Tensor-path oracle, can only pad a batch to
one width: ``DoduoModel.encode_states`` runs one pass per distinct width
of a chunk for it.)
The pre-encoding-layer policy padded sorted chunks jointly, which
perturbed float32 BLAS reductions at the ~1e-7 level; that tolerance is
gone.  Results always come back in request order.

Exactness: any batch composition is bitwise identical to the legacy
multi-pass path (the compatibility wrappers in
:class:`~repro.core.annotator.Doduo` rely on the single-request case;
the serving equivalence tests pin the batched one).
"""

from __future__ import annotations

import threading
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.annotator import AnnotatedTable
from ..core.persistence import load_annotator
from ..core.probe import ProbeBudget, ProbePlanner
from ..core.trainer import DoduoTrainer, RawTableAnnotation, decide_labels
from ..datasets.tables import Table
from ..encoding import EncodingPipeline, column_fingerprint
from ..telemetry import Ratio, declare
from .colcache import ColumnCache
from .diskcache import (
    RequestIdentity,
    decode_annotation,
    encode_annotation,
    request_identity,
)
from .fabric import FabricCache, store_directory
from .request import AnnotationOptions, AnnotationRequest, AnnotationResult

RequestLike = Union[Table, AnnotationRequest]

DEFAULT_DECISION_THRESHOLD = 0.5  # the paper's multi-label cutoff


def _probe_marker(config: "EngineConfig") -> bytes:
    """The planner's descriptor of ``probe_mode`` and ``probe_budget``."""
    planner = ProbePlanner(ProbeBudget(max_pairs=config.probe_budget))
    return f"|probe={planner.fingerprint_tag()}".encode("utf-8")


def knob(
    default, *, bytes: str, why: str, help: str, values=(), choices=(),
    minimum: Optional[int] = None, flags: Tuple[str, ...] = (), marker=None,
):
    """Declare one :class:`EngineConfig` field, beside its default.

    ``bytes`` is the knob's claim about annotation bytes — ``"same"``
    (every value serves the same bytes, so it stays out of the model
    fingerprint and persisted keys survive) or ``"changes"`` (it folds in)
    — and ``why`` the one sentence that justifies it.  ``values`` are what
    the configuration lattice (``tests/test_engine_knobs.py``) draws, which
    turns every ``same`` into an assertion; ``choices`` are values that are
    also the whole enumeration (validated at construction, offered by the
    flag).  ``minimum`` bounds an integer knob; ``flags`` are its CLI
    spellings on ``annotate`` and ``serve``, and ``help`` says what it
    does there.

    A ``changes`` knob names the ``marker`` it renders into the
    fingerprint: ``{value: (order, spelling)}`` — ``spelling`` bytes, or a
    function of the config — or the name of the knob whose marker spells
    it too.  ``order`` is the release order the markers were introduced
    in (a new one appends at the end), so every stored key stays valid;
    the default value must be marker-free for the same reason.
    """
    values = tuple(choices or values)
    if bytes not in ("same", "changes"):
        raise TypeError(f"bytes must be 'same' or 'changes': {bytes!r}")
    if len(values) < 2 or default not in values:
        raise TypeError(f"needs >= 2 values, the default among them: {values}")
    if (bytes == "changes") != bool(marker):
        raise TypeError("a marker is what a 'changes' knob, and only it, declares")
    if isinstance(marker, dict) and default in marker:
        raise TypeError(f"the default {default!r} must be marker-free")
    return field(default=default, metadata=dict(
        bytes=bytes, why=why, help=help, values=values, enumerated=bool(choices),
        minimum=minimum, flags=flags, marker=marker,
    ))


def _declared(cls):
    """Refuse a config class with a field :func:`knob` did not declare —
    at class creation, so an unclassified knob fails at import."""
    known = {**getattr(cls, "__dataclass_fields__", {}), **cls.__dict__}
    for name in cls.__dict__.get("__annotations__", {}):
        declared = cls.__dict__.get(name)
        if not isinstance(declared, Field) or "bytes" not in declared.metadata:
            raise TypeError(f"{cls.__name__}.{name} is not declared through knob()")
        marker = declared.metadata["marker"]
        if isinstance(marker, str) and not isinstance(
            getattr(known.get(marker), "metadata", {}).get("marker"), dict
        ):
            raise TypeError(f"{cls.__name__}.{name}: no knob {marker!r} has a marker")
    return cls


@dataclass(frozen=True)
@_declared
class EngineConfig:
    """Engine-level knobs, each declared once through :func:`knob`: the
    fingerprint fold (:meth:`fold`), the ``repro annotate`` / ``repro
    serve`` flags, construction-time validation, the configuration lattice
    and the reference below (also ``docs/serving.md``) read the declaration.
    """

    batch_size: int = knob(
        8, bytes="same", values=(1, 3, 8), minimum=1, flags=("--batch-size",),
        why="every sequence is encoded at the width it would have alone, so "
        "batched answers are byte-identical to sequential ones",
        help="max tables per forward pass; a chunk of any widths is one "
        "padding-free pass",
    )
    cache_size: Optional[int] = knob(
        None, bytes="same", values=(None, 0, 2), minimum=0,
        why="serialization-cache capacity; a hit replays the bytes a miss builds",
        help="None shares the trainer's encoding cache; an int builds a "
        "private one of that capacity (0 disables)",
    )
    default_options: AnnotationOptions = knob(
        AnnotationOptions(), bytes="same",
        values=(AnnotationOptions(), AnnotationOptions(with_embeddings=False, top_k=3)),
        why="per-request options fold into the request's cache key, not the "
        "model fingerprint",
        help="options of plain Table items (requests carry their own)",
    )
    cache_dir: Optional[str] = knob(
        None, bytes="same", values=(None, "anno-cache"),
        why="where the persistent tier is stored, not what it holds",
        help="roots the persistent result store there, so finished "
        "annotations survive restarts (the commands' --cache-dir)",
    )
    kernels: str = knob(
        "fast", bytes="same", choices=("fast", "reference"), flags=("--kernels",),
        why="a fast kernel serves only after a bitwise proof against the "
        "reference path",
        help="forward implementation: proof-gated fast kernels or the "
        "reference Tensor path (float32 only)",
    )
    column_cache_size: int = knob(
        1024, bytes="same", values=(0, 2, 1024), minimum=0, flags=("--column-cache",),
        why="column-state cache capacity; a hit is the state a fresh pass at "
        "that width computes",
        help="column-state cache capacity in entries (0 disables; "
        "single-column models only)",
    )
    probe_mode: str = knob(
        "exhaustive", bytes="changes", choices=("exhaustive", "planned"),
        flags=("--probe-mode",), marker={"planned": (1, _probe_marker)},
        why="a planned engine probes a different pair set for the same "
        "pairs=None request",
        help="relation probing of requests without explicit pairs: the "
        "exhaustive default pairs, or planner-pruned, budgeted pairs",
    )
    probe_budget: Optional[int] = knob(
        None, bytes="changes", values=(None, 2, 12), minimum=1,
        flags=("--probe-budget",), marker="probe_mode",
        why="the cap decides which planned pairs are probed",
        help="max planned relation pairs per table (requires probe_mode "
        "planned; None plans without a cap)",
    )

    def __init_subclass__(cls) -> None:
        _declared(cls)

    def __post_init__(self) -> None:
        for spec in fields(self):
            value, meta = getattr(self, spec.name), spec.metadata
            if meta["enumerated"] and value not in meta["values"]:
                raise ValueError(
                    f"{spec.name} must be one of {meta['values']}: {value!r}"
                )
            if None not in (value, meta["minimum"]) and value < meta["minimum"]:
                raise ValueError(
                    f"{spec.name} must be >= {meta['minimum']}: {value}"
                )
        if self.probe_budget is not None and self.probe_mode != "planned":
            raise ValueError(
                "probe_budget requires probe_mode='planned' (exhaustive "
                "probing has no budget to apply)"
            )

    def fold(self) -> bytes:
        """What this configuration appends to the annotation fingerprint:
        the markers of its ``changes`` knobs in the order they were
        introduced — empty under the defaults."""
        markers = []
        for spec in fields(self):
            marker = spec.metadata["marker"]
            if isinstance(marker, dict) and getattr(self, spec.name) in marker:
                markers.append(marker[getattr(self, spec.name)])
        return b"".join(
            spelling(self) if callable(spelling) else spelling
            for _, spelling in sorted(markers, key=lambda marker: marker[0])
        )

    @classmethod
    def reference(cls) -> str:
        """The knob table (here in the docstring, and in ``docs/serving.md``)."""
        rows = [
            "| Knob | Flag | Default | Values | Effect | Bytes | Why |",
            "| --- | --- | --- | --- | --- | --- | --- |",
        ]
        for spec in fields(cls):
            meta = spec.metadata
            flags = " / ".join(f"`{flag}`" for flag in meta["flags"]) or "—"
            values = ", ".join(f"`{value!r}`" for value in meta["values"])
            rows.append(
                f"| `{spec.name}` | {flags} | `{spec.default!r}` "
                f"| {values if meta['enumerated'] else 'e.g. ' + values} "
                f"| {meta['help']} | {meta['bytes']} | {meta['why']} |"
            )
        return "\n".join(rows) + "\n"


EngineConfig.__doc__ += "\n" + EngineConfig.reference()


EngineStats = declare(
    "EngineStats",
    """Counters for one engine's lifetime.

    Every sequence is encoded at its own table's width, so
    ``padding_waste`` stays at the intra-table floor (single-column tables
    pad short columns to their own table's widest) with zero cross-request
    padding on top.  ``column_hits``/``column_misses`` only move on
    single-column engines, ``pairs_planned``/``pairs_pruned`` only under
    ``probe_mode="planned"``.
    """,
    {
        "requests": "requests answered, from the store or by an encoder pass",
        "batches": "engine forward batches run (chunks of ``batch_size``)",
        "encoder_passes": "encoder forward passes run",
        "cache_hits": "this engine's serialization-cache hits (table level)",
        "cache_misses": "this engine's serialization-cache misses",
        "disk_hits": "persistent result-store hits — each skips serialization "
        "and the forward pass — answered in ``annotate_batch`` or by a "
        "front-end rendering the stored payload (``count_stored_hit``)",
        "disk_misses": "persistent result-store lookups that fell through",
        "column_hits": "column-state cache hits (each skips that column's "
        "whole encoder pass)",
        "column_misses": "column-state cache misses",
        "segment_hits": "serialized-segment cache hits (each skips "
        "re-tokenizing one column when the table-level cache missed)",
        "segment_misses": "serialized-segment cache misses",
        "real_tokens": "token slots of every encoder pass that carried a token",
        "padded_tokens": "token slots of every encoder pass, padding included",
        "last_block_rows": "token slots the last encoder block computed: "
        "all of them until the pruning gate is proven (and for good where "
        "it is disproven), then only the ``[CLS]`` rows the heads read",
        "pairs_planned": "relation pairs the probe planner kept "
        "(``pairs=None`` requests)",
        "pairs_pruned": "candidate relation pairs the probe planner discarded",
        "pairs_probed": "pairs the relation head encoded, in every probe "
        "mode (store hits probe nothing)",
    },
    ratios={
        "padding_waste": Ratio(
            "fraction of allocated token slots that carried padding",
            ("padded_tokens", "-real_tokens"),
            ("padded_tokens",),
        ),
        "last_block_share": Ratio(
            "fraction of allocated token slots the last encoder block computed",
            ("last_block_rows",),
            ("padded_tokens",),
        ),
        "column_hit_rate": Ratio(
            "fraction of column-state lookups answered from the cache",
            ("column_hits",),
            ("column_hits", "column_misses"),
        ),
        "probe_prune_rate": Ratio(
            "fraction of candidate relation pairs the planner pruned away",
            ("pairs_pruned",),
            ("pairs_planned", "pairs_pruned"),
        ),
    },
)


class AnnotationEngine:
    """Single-pass batched inference over a fine-tuned DODUO model."""

    #: The bundle directory :func:`load_engine` loaded the weights from;
    #: ``None`` for an engine built over an in-memory model.
    bundle: Optional[Path] = None

    def __init__(
        self,
        trainer: DoduoTrainer,
        config: Optional[EngineConfig] = None,
        result_cache: Optional[FabricCache] = None,
    ) -> None:
        # Accept a Doduo annotator as well (duck-typed to avoid a circular
        # import with repro.core.annotator).
        if not isinstance(trainer, DoduoTrainer) and hasattr(trainer, "trainer"):
            trainer = trainer.trainer
        if not isinstance(trainer, DoduoTrainer):
            raise TypeError(
                f"expected a DoduoTrainer or Doduo annotator, got {type(trainer)!r}"
            )
        self.trainer = trainer
        self.config = config or EngineConfig()
        if self.config.cache_size is None:
            # Share the trainer's pipeline: serving, training epochs, and
            # evaluation reuse one serialization cache.
            self.encoding: EncodingPipeline = trainer.encoding
        else:
            self.encoding = EncodingPipeline(
                trainer.serializer,
                single_column=trainer.config.single_column,
                cache_size=self.config.cache_size,
            )
        if result_cache is None and self.config.cache_dir is not None:
            result_cache = FabricCache(self.config.cache_dir)
        self.result_cache = result_cache
        # Column-level content addressing: sound only for single-column
        # models (table-wise attention makes a column's state depend on its
        # neighbours, so those states are never cached).
        self.column_cache: Optional[ColumnCache] = None
        if trainer.config.single_column and self.config.column_cache_size > 0:
            self.column_cache = ColumnCache(self.config.column_cache_size)
        # Probe planning: only built in planned mode, so exhaustive engines
        # carry zero planner state and behave byte-identically to before
        # the policy existed.
        self.probe_planner: Optional[ProbePlanner] = None
        if self.config.probe_mode == "planned":
            self.probe_planner = ProbePlanner(
                ProbeBudget(max_pairs=self.config.probe_budget)
            )
        # The config is frozen, and ``identify`` reads ``model_fingerprint``
        # per request on the event loop: render its markers once.
        self._fold = self.config.fold()
        self.stats = EngineStats()
        # ``requests``/``disk_hits``/``disk_misses`` have two writers — the
        # thread inside annotate_batch and count_stored_hit's caller.
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def annotate(
        self,
        table: RequestLike,
        with_embeddings: Optional[bool] = None,
        with_relations: Optional[bool] = None,
        top_k: Optional[int] = None,
        score_threshold: Optional[float] = None,
        pairs: Optional[Sequence[Tuple[int, int]]] = None,
    ) -> AnnotationResult:
        """Annotate one table (a single-table batch).

        Single-table batches reproduce the legacy multi-pass outputs
        bitwise, so this is the strict-compatibility entry point; use
        :meth:`annotate_batch`/:meth:`annotate_stream` for throughput.
        """
        request = self._as_request(table)
        overrides = {}
        if with_embeddings is not None:
            overrides["with_embeddings"] = with_embeddings
        if with_relations is not None:
            overrides["with_relations"] = with_relations
        if top_k is not None:
            overrides["top_k"] = top_k
        if score_threshold is not None:
            overrides["score_threshold"] = score_threshold
        if overrides or pairs is not None:
            # Never mutate a caller-supplied request: overrides apply to a copy.
            request = AnnotationRequest(
                table=request.table,
                options=replace(request.options, **overrides),
                pairs=(
                    tuple((int(i), int(j)) for i, j in pairs)
                    if pairs is not None
                    else request.pairs
                ),
                model=request.model,
            )
        return self.annotate_batch([request])[0]

    def annotate_batch(
        self,
        items: Sequence[RequestLike],
        options: Optional[AnnotationOptions] = None,
        identities: Optional[Sequence[RequestIdentity]] = None,
    ) -> List[AnnotationResult]:
        """Annotate many tables, one forward pass per chunk of
        ``batch_size`` (see the module docstring).

        ``options`` applies to plain :class:`Table` items; explicit
        :class:`AnnotationRequest` items keep their own options.  Results are
        returned in input order regardless of batch composition, and each
        one is byte-identical to what :meth:`annotate` would return alone.

        With a persistent result cache attached (``EngineConfig.cache_dir``
        or the ``result_cache`` constructor argument), each request is first
        looked up by (table content, model fingerprint, options); hits are
        rebuilt byte-identically from disk without serializing or encoding
        anything, and only the misses proceed to the forward pass — whose
        results are then persisted for the next process.

        ``identities`` are the requests' hashes when the caller already
        computed them (the queue does, at submit — see :meth:`identify`);
        each table's cells are walked once per request either way.
        """
        requests = [self._as_request(item, options) for item in items]
        if not requests:
            return []
        if not self.trainer.config.multi_label:
            for request in requests:
                if request.options.score_threshold is not None:
                    raise ValueError(
                        "score_threshold applies to multi-label models only; "
                        "this model is single-label (argmax decision)"
                    )
        results: List[Optional[AnnotationResult]] = [None] * len(requests)
        pending = list(range(len(requests)))
        identities = [
            self.identify(request, known)
            for request, known in zip(requests, identities or [None] * len(requests))
        ]
        # Captured once: the registry may detach the tier concurrently
        # (its close while a worker drains) — this call then finishes its
        # lookups against the handle it started with, and the put block
        # below re-reads the attribute so detached engines stop persisting.
        result_cache = self.result_cache
        if result_cache is not None:
            pending = []
            for i, request in enumerate(requests):
                payload = result_cache.get(identities[i].cache_key)
                if payload is None:
                    pending.append(i)
                else:
                    results[i] = AnnotationResult(
                        request=request,
                        annotated=decode_annotation(request, payload),
                        from_disk=True,
                    )
            with self._count_lock:
                self.stats.disk_misses += len(pending)
                self.stats.disk_hits += len(requests) - len(pending)
        # Single-column serving keys three tiers on column content (segment
        # cache, column states, pair encodes): hash every column once here
        # and hand the digests down, beside the table's.
        column_digests: Dict[int, List[str]] = {}
        if self.column_cache is not None:
            for i in pending:
                column_digests[i] = [
                    column_fingerprint(column) for column in requests[i].table.columns
                ]
        encoded: Dict[int, object] = {}
        cached_flags: Dict[int, bool] = {}
        # The pipeline may be shared (trainer, other engines), so engine
        # stats accumulate only this call's slice of the cache traffic.
        hits_before = self.encoding.cache_hits
        misses_before = self.encoding.cache_misses
        seg_hits_before = self.encoding.segment_hits
        seg_misses_before = self.encoding.segment_misses
        for i in pending:
            encoded[i], cached_flags[i] = self.encoding.encode_cached(
                requests[i].table, identities[i].table_digest, column_digests.get(i)
            )
        self.stats.cache_hits += self.encoding.cache_hits - hits_before
        self.stats.cache_misses += self.encoding.cache_misses - misses_before
        self.stats.segment_hits += self.encoding.segment_hits - seg_hits_before
        self.stats.segment_misses += self.encoding.segment_misses - seg_misses_before
        # Probe planning: pairs=None requests in planned mode get their
        # pair set decided here, once per request, and handed to the trainer
        # as explicit pairs.  Explicit pairs and relation-less requests
        # bypass the planner entirely.
        planned_pairs: Dict[int, Tuple[Tuple[int, int], ...]] = {}
        if self.probe_planner is not None:
            for i in pending:
                request = requests[i]
                if (
                    request.pairs is None
                    and request.options.with_relations
                    and self.trainer.model.relation_head is not None
                ):
                    plan = self.probe_planner.plan(request.table)
                    planned_pairs[i] = plan.pairs
                    self.stats.pairs_planned += plan.planned
                    self.stats.pairs_pruned += plan.pruned
        # The session encodes every sequence at its own width inside one
        # padding-free pass, so a chunk is just the next requests.
        size = self.config.batch_size
        chunks = [pending[k:k + size] for k in range(0, len(pending), size)]
        for chunk in chunks:
            self._run_chunk(
                chunk,
                requests,
                identities,
                encoded,
                cached_flags,
                results,
                planned_pairs,
                column_digests,
            )
        # Fresh read (NOT the captured handle): once the registry detaches
        # the tier, this engine stops persisting immediately.
        result_cache = self.result_cache
        if result_cache is not None:
            for i in pending:
                if results[i] is not None:
                    result_cache.put(
                        identities[i].cache_key, encode_annotation(results[i])
                    )
        with self._count_lock:
            self.stats.requests += len(requests)
        return [result for result in results if result is not None]

    def count_stored_hit(self) -> None:
        """Count one request a caller answered from :attr:`result_cache`
        itself, without :meth:`annotate_batch` — the socket server renders a
        stored payload where the frame is decoded.  Moves what the lookup
        above would have: ``requests`` and ``disk_hits``."""
        with self._count_lock:
            self.stats.requests += 1
            self.stats.disk_hits += 1

    def annotate_stream(
        self,
        tables: Iterable[RequestLike],
        options: Optional[AnnotationOptions] = None,
        batch_size: Optional[int] = None,
    ) -> Iterator[AnnotationResult]:
        """Lazily annotate an unbounded iterable of tables.

        Pulls up to ``batch_size`` tables at a time (engine default when
        omitted), annotates each chunk with one padding-free pass, and yields
        results in input order — memory stays bounded by the chunk size, so
        this works over generators and files that never fit in RAM.
        """
        size = self.config.batch_size if batch_size is None else batch_size
        if size < 1:
            raise ValueError(f"batch_size must be >= 1: {size}")
        pending: List[RequestLike] = []
        for item in tables:
            pending.append(item)
            if len(pending) >= size:
                yield from self.annotate_batch(pending, options)
                pending = []
        if pending:
            yield from self.annotate_batch(pending, options)

    def clear_cache(self) -> None:
        """Drop the serialization cache (the disk tier is untouched).

        With the default shared pipeline this clears the trainer's cache
        too — the cache is one object by design.
        """
        self.encoding.clear_cache()
        self.stats.cache_hits = 0
        self.stats.cache_misses = 0

    @property
    def cache_size(self) -> int:
        return self.encoding.cache_size

    @property
    def model_fingerprint(self) -> str:
        """The trainer's annotation fingerprint (memoized by the trainer).

        Deliberately NOT memoized per engine: the trainer invalidates its
        memo when :meth:`~repro.core.trainer.DoduoTrainer.train` (or
        ``invalidate_fingerprint``) changes the weights, so a live engine's
        cache keys and routes re-key immediately instead of aliasing stale
        cached annotations onto new weights.  The memo makes repeated
        access cheap (no weight walk).

        The configuration's ``changes`` knobs are folded in
        (:meth:`EngineConfig.fold`): engines whose bytes may differ over the
        same weights — another probe policy — never
        share cached bytes or a route.
        """
        return self.trainer.annotation_fingerprint(self._fold)

    def identify(
        self,
        request: AnnotationRequest,
        known: Optional[RequestIdentity] = None,
    ) -> RequestIdentity:
        """Hash ``request`` for this engine: table digest + result-cache key.

        ``known`` is an identity computed earlier (the queue's, from submit
        time): returned as is while the model fingerprint still matches,
        else re-keyed from its table digest — a weight change between
        submit and drain costs one small hash, never a second walk over
        the cells, and never a stale cache key.
        """
        fingerprint = self.model_fingerprint
        if known is None:
            return request_identity(fingerprint, request)
        if known.model_fingerprint == fingerprint:
            return known
        return request_identity(fingerprint, request, known.table_digest)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _as_request(
        self, item: RequestLike, options: Optional[AnnotationOptions] = None
    ) -> AnnotationRequest:
        if isinstance(item, AnnotationRequest):
            return item
        if isinstance(item, Table):
            return AnnotationRequest(
                table=item, options=options or self.config.default_options
            )
        raise TypeError(f"expected a Table or AnnotationRequest, got {type(item)!r}")

    def _run_chunk(
        self,
        chunk: Sequence[int],
        requests: Sequence[AnnotationRequest],
        identities: Sequence[RequestIdentity],
        encoded: Dict[int, object],
        cached_flags: Dict[int, bool],
        results: List[Optional[AnnotationResult]],
        planned_pairs: Optional[Dict[int, Tuple[Tuple[int, int], ...]]] = None,
        column_digests: Optional[Dict[int, List[str]]] = None,
    ) -> None:
        tables = [requests[i].table for i in chunk]
        pair_requests: List[Optional[Sequence[Tuple[int, int]]]] = []
        for i in chunk:
            request = requests[i]
            if not request.options.with_relations:
                pair_requests.append(())  # probe nothing
            elif planned_pairs is not None and i in planned_pairs:
                # The planner already decided this request's probes;
                # handing them over as explicit pairs means it runs once.
                pair_requests.append(planned_pairs[i])
            else:
                pair_requests.append(request.pairs)
        any_embeddings = any(requests[i].options.with_embeddings for i in chunk)
        model = self.trainer.model
        passes_before = model.encode_calls
        real_before = model.real_tokens
        padded_before = model.padded_tokens
        last_block_before = model.last_block_rows
        batch_index = self.stats.batches
        column_cache = self.column_cache
        if column_cache is not None:
            # Re-keyed per chunk: the fingerprint walk is memoized by the
            # trainer, and re-reading it here means weight surgery between
            # chunks orphans stale states instead of serving them.
            column_cache.model_key = self.model_fingerprint
            col_hits_before = column_cache.hits
            col_misses_before = column_cache.misses
        raw = self.trainer.annotate_batch(
            tables,
            encoded=[encoded[i] for i in chunk],
            pair_requests=pair_requests,
            with_embeddings=any_embeddings,
            kernels=self.config.kernels,
            column_cache=column_cache,
            fingerprints=[identities[i].table_digest for i in chunk],
            column_fingerprints=(
                [column_digests[i] for i in chunk] if column_digests else None
            ),
        )
        if column_cache is not None:
            self.stats.column_hits += column_cache.hits - col_hits_before
            self.stats.column_misses += column_cache.misses - col_misses_before
        self.stats.pairs_probed += sum(
            len(raw_item.probed_pairs) for raw_item in raw
        )
        self.stats.batches += 1
        self.stats.encoder_passes += model.encode_calls - passes_before
        self.stats.real_tokens += model.real_tokens - real_before
        self.stats.padded_tokens += model.padded_tokens - padded_before
        self.stats.last_block_rows += model.last_block_rows - last_block_before
        for i, raw_item in zip(chunk, raw):
            results[i] = self._build_result(
                requests[i], raw_item, cached_flags[i], batch_index
            )

    def _build_result(
        self,
        request: AnnotationRequest,
        raw: RawTableAnnotation,
        from_cache: bool,
        batch_index: int,
    ) -> AnnotationResult:
        options = request.options
        dataset = self.trainer.dataset
        multi_label = self.trainer.config.multi_label
        threshold = (
            options.score_threshold
            if options.score_threshold is not None
            else DEFAULT_DECISION_THRESHOLD
        )

        def names(decided: np.ndarray, vocab: Sequence[str]) -> List[str]:
            """Label names of one decision row (a mask, or an argmax id)."""
            chosen = np.flatnonzero(decided) if multi_label else [int(decided)]
            return [vocab[k] for k in chosen]

        # The trainer module owns the decision rule (threshold-or-argmax):
        # evaluation decides with the same function.
        coltypes = [
            names(row, dataset.type_vocab)
            for row in decide_labels(raw.type_probs, multi_label, threshold)
        ]
        type_scores = [
            self._score_dict(raw.type_probs[c], dataset.type_vocab, options.top_k)
            for c in range(len(raw.type_probs))
        ]
        colrels = {
            pair: names(
                decide_labels(probs[None], multi_label, threshold)[0],
                dataset.relation_vocab,
            )
            for pair, probs in raw.relation_probs.items()
        }
        embeddings = raw.embeddings if options.with_embeddings else None
        annotated = AnnotatedTable(
            table=request.table,
            coltypes=coltypes,
            colrels=colrels,
            colemb=embeddings,
            type_scores=type_scores,
            requested_pairs=list(raw.probed_pairs),
        )
        return AnnotationResult(
            request=request,
            annotated=annotated,
            from_cache=from_cache,
            batch_index=batch_index,
        )

    @staticmethod
    def _score_dict(
        probs: np.ndarray, vocab: Sequence[str], top_k: Optional[int]
    ) -> Dict[str, float]:
        if top_k is None:
            # Full distribution in vocabulary order — the legacy layout.
            return {name: float(probs[k]) for k, name in enumerate(vocab)}
        ranked = sorted(
            ((name, float(probs[k])) for k, name in enumerate(vocab)),
            key=lambda item: (-item[1], item[0]),
        )
        return dict(ranked[:top_k])


def load_engine(
    bundle: Union[str, Path],
    engine_config: EngineConfig,
    *,
    cache_dir: Optional[Union[str, Path]] = None,
    fabric_writer: Optional[str] = None,
    arena: Optional[Union[str, Path]] = None,
) -> AnnotationEngine:
    """Load the bundle ``bundle`` into an engine: the one loader ``repro
    serve`` and every pool worker run at startup.

    ``arena`` is a pre-built arena file to map (the pool's parent builds
    one for all its workers); without it the weights are parsed from the
    bundle.  A ``cache_dir`` that already holds a *flat* store (``repro
    annotate --cache-dir`` wrote it; segments, or after ``repro cache
    compact`` only a generation) stays the engine's own store, so a warm
    cache stays warm; otherwise the store lives in
    ``cache_dir``'s sub-directory named by the model fingerprint, appended
    to under ``fabric_writer`` (``None``: the store's ``pid<PID>``
    default).  Keys embed the fingerprint either way.
    """
    trainer = load_annotator(bundle, weight_arena=arena).trainer
    if cache_dir is not None and store_directory(cache_dir):
        engine = AnnotationEngine(
            trainer, replace(engine_config, cache_dir=str(cache_dir))
        )
    else:
        engine = AnnotationEngine(trainer, engine_config)
        if cache_dir is not None and engine.result_cache is None:
            engine.result_cache = FabricCache(
                Path(cache_dir) / engine.model_fingerprint, writer=fabric_writer
            )
    engine.bundle = Path(bundle)
    return engine
