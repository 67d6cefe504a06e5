"""The traced run: a layer ladder whose rungs reconcile with the socket.

``run.py --trace 1`` measures every per-layer metric of :mod:`catalog`, all
from outside ``src/``:

1. **Real server, short session** — one spawn, warm-up, the stream's
   open-lo blocks and a few seconds of its open-hi traffic.  Gives
   ``loadgen.*`` and every ratio read off the ``{"op": "stats"}`` counters
   (as deltas over the open traffic, so warm-up does not dilute them).
2. **In-process ladder** on requests of the same seeded stream:
   ``decode_record`` -> ``AnnotationEngine.annotate_batch`` ->
   ``encode_result`` + ``encode_line``, one table at a time.  While the
   engine runs, the public methods it calls on its collaborators —
   ``DiskCache.get/put``, ``EncodingPipeline.encode_cached/encode_pair``,
   ``ProbePlanner.plan``, ``DoduoTrainer.annotate_batch``,
   ``ColumnCache.lookup/store``, ``InferenceSession.encode_batch`` /
   ``type_head`` / ``relation_head`` — are shadowed *on the instances* by
   span-recording wrappers (:func:`instrumented`; nothing in ``src/``
   changes), so one call yields the nested tree and a layer's self time is
   its span minus its children's, on the same inputs, in the same
   millisecond.  That matters here: the reference host's speed drifts by a
   quarter within seconds, and rungs timed in separate loops do not add up.
   Layers off that call path are timed alone on the same tables
   (tokenizer, cache-hit encode, ``BatchPlanner.plan``, ``DiskCache`` and
   ``FabricCache`` on one key set, ``ColumnCache``).
3. **Idle round trips**, one request in flight, turn about: socket ->
   ``AnnotationGateway.submit`` -> ``EngineWorker.submit`` -> an admin
   ``health`` round trip (the transport alone) — all on the server's core,
   which is idle whenever the harness is not.

Every timed call is a span (name, start, end, parent, request id) of the
:class:`Recorder`, kept in memory and written to ``out/trace_<workload>.json``
at exit.  The stream is consumed in consecutive slices so that each pass
meets the caches in the workload's own regime (a cold cycle stays cold, a
never-seen table is never seen twice).
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import catalog
import endtoend
import fixtures
import loadgen
import workloads
from catalog import CONNECTIONS, IN_FLIGHT
from endtoend import lines_of

DRAIN = 8             # the queue's default max_batch
IDLE_REQUESTS = 40    # one-in-flight samples per idle measurement
OPEN_SECONDS = 4.0    # open-hi traffic in the server session


class Recorder:
    """In-memory span recorder.  ``enabled=False`` makes :meth:`span` a
    bare timer that records nothing, which is how the recorder's own cost
    is measured."""

    def __init__(self) -> None:
        self.spans: List[List] = []  # [name, start, end, parent, request_id]
        self.enabled = True
        self._stack: List[int] = []
        self.last = 0.0  # seconds of the span that closed last

    @contextlib.contextmanager
    def span(self, name: str, request_id: Optional[int] = None) -> Iterator[None]:
        if not self.enabled:
            start = time.perf_counter()
            try:
                yield
            finally:
                self.last = time.perf_counter() - start
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, request_id])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = [start, end]
            self.last = end - start

    def seconds(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_seconds(self) -> Dict[str, float]:
        """Per name: total duration minus the part child spans cover."""
        total: Dict[str, float] = {}
        for name, start, end, parent, _ in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent is not None:
                above = self.spans[parent][0]
                total[above] = total.get(above, 0.0) - (end - start)
        return total

    def self_of(self, name: str) -> List[float]:
        """Per span of ``name``: its duration minus its direct children's."""
        own = {
            k: end - start
            for k, (n, start, end, _, _) in enumerate(self.spans) if n == name
        }
        for _, start, end, parent, _ in self.spans:
            if parent in own:
                own[parent] -= end - start
        return list(own.values())

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request_id")
        path.write_text(json.dumps(
            {"spans": [dict(zip(keys, span)) for span in self.spans],
             "self_seconds": self.self_seconds()}
        ))


def _median(values: Sequence[float], scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@contextlib.contextmanager
def instrumented(recorder: Recorder, targets) -> Iterator[None]:
    """Shadow ``obj.attr`` with a span-recording wrapper for the scope.

    ``targets`` is ``(obj, attr, span name[, after])`` tuples — ``after``
    sees each return value; the wrapper is set as an *instance* attribute,
    so the class and every other instance are untouched and leaving the
    scope deletes it again."""
    def wrap(bound, name, after=None):
        def call(*args, **kwargs):
            with recorder.span(name):
                result = bound(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return call

    shadowed = []
    try:
        for obj, attr, *rest in targets:
            setattr(obj, attr, wrap(getattr(obj, attr), *rest))
            shadowed.append((obj, attr))
        yield
    finally:
        for obj, attr in shadowed:
            delattr(obj, attr)


# ---------------------------------------------------------------------------
# 1. The real server
# ---------------------------------------------------------------------------

def _flat(stats: Dict) -> Dict[str, float]:
    """The counters of one ``{"op": "stats"}`` answer the ladder reads."""
    gateway = stats["gateway"]
    engine = next(iter(gateway["engines"].values()), {})
    out = {key: gateway[key] for key in ("submitted", "batches", "dedup_hits", "failed")}
    for key in ("cache_hits", "cache_misses", "real_tokens", "padded_tokens",
                "pairs_planned", "pairs_pruned", "column_hits", "column_misses",
                "disk_hits", "disk_misses"):
        out[key] = engine.get(key, 0)
    return out


def _server_traffic(server, workload, stream, corpus) -> Tuple[Dict, List]:
    """Warm-up, every open-lo block of the stream, then ``OPEN_SECONDS`` of
    its first open-hi block.  Ratios are counter deltas over the open
    traffic alone; the queue's are taken over the lo blocks, where batch
    size and dedup follow the arrival pattern and not the backlog."""
    address = server.address
    hi = stream.rounds[0][2]
    count = min(len(hi.indices), max(CONNECTIONS, int(workload.rate_hi * OPEN_SECONDS)))

    async def drive():
        async with loadgen.LoadGenerator(address, CONNECTIONS) as generator:
            warm = stream.warmup
            await generator.closed(
                warm.name, warm.indices, lines_of(corpus, warm.indices), IN_FLIGHT)
            stats = [_flat(loadgen.admin(address, "stats"))]
            report = loadgen.OpenReport()
            for _, lo, _ in stream.rounds:
                report += await generator.open(
                    lo.name, lo.indices, lines_of(corpus, lo.indices), lo.due)
            stats.append(_flat(loadgen.admin(address, "stats")))
            report += await generator.open(
                hi.name, hi.indices[:count], lines_of(corpus, hi.indices[:count]),
                hi.due[:count])
            stats.append(_flat(loadgen.admin(address, "stats")))
            return generator.log, stats, report

    log, (before, middle, after), report = asyncio.run(drive())
    lo_delta = {key: middle[key] - before[key] for key in after}
    delta = {key: after[key] - before[key] for key in after}
    metrics = {
        "server.errors": float(delta["failed"]),
        "encoding.cache_hit_ratio": _ratio(
            delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"]),
        "encoding.padding_waste_ratio": _ratio(
            delta["padded_tokens"] - delta["real_tokens"], delta["padded_tokens"]),
        "probe.prune_ratio": _ratio(
            delta["pairs_pruned"], delta["pairs_planned"] + delta["pairs_pruned"]),
        "diskcache.hit_ratio": _ratio(
            delta["disk_hits"], delta["disk_hits"] + delta["disk_misses"]),
        "colcache.hit_ratio": _ratio(
            delta["column_hits"], delta["column_hits"] + delta["column_misses"]),
        "queue.batch_size_mean": _ratio(lo_delta["submitted"], lo_delta["batches"]),
        "queue.dedup_ratio": _ratio(lo_delta["dedup_hits"], lo_delta["submitted"]),
        "loadgen.late_p99_ms": report.late_p99_ms,
        "loadgen.achieved_over_offered": report.achieved_over_offered,
        "loadgen.cpu_share": report.cpu_share,
        "_generator_limited": endtoend.generator_limited({"open": report}),
    }
    return metrics, log


# ---------------------------------------------------------------------------
# 2. The in-process ladder
# ---------------------------------------------------------------------------

def _import_seconds() -> float:
    """What the server child pays to import its entry point."""
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run(
        [sys.executable, "-c", code], env=loadgen.server_environment(fixtures.SRC_DIR),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip())


def _flops(batch: int, seq: int, config) -> float:
    """Multiply-adds x 2 of one encoder pass, computed from shapes (not
    measured): per block QKV, scores, context, output and the two FFN
    GEMMs."""
    d, f = config.hidden_dim, config.ffn_dim
    per_block = (
        2 * batch * seq * d * 3 * d      # fused QKV
        + 2 * 2 * batch * seq * seq * d  # scores + context
        + 2 * batch * seq * d * d        # attention output
        + 2 * 2 * batch * seq * d * f    # FFN in + out
    )
    return float(config.num_layers * per_block)


class Ladder:
    """The in-process engine of one workload and the rungs timed on it."""

    def __init__(self, session, workload, fix, corpus, recorder: Recorder) -> None:
        from repro.core.persistence import ensure_model_arena, load_annotator
        from repro.serving import ModelRegistry

        self.workload, self.corpus, self.recorder = workload, corpus, recorder
        self.scratch = session.scratch
        self.options = fixtures.serving_options()
        self.m: Dict[str, float] = {"process.import_s": _import_seconds()}
        self.next_id = 0
        span = recorder.span
        bundle = fix.bundle(workload.model)
        arena = ensure_model_arena(bundle, arena_dir=self.scratch / "arena")
        with span("arena.attach"):
            load_annotator(bundle, weight_arena=arena)
        self.m["arena.attach_s"] = recorder.last
        cache_dir = None
        if workload.cache_dir:  # its own copy: the server holds the other
            cache_dir = self.scratch / "ladder-cache"
            shutil.copytree(fix.warm_cache, cache_dir)
        self.registry = ModelRegistry(
            engine_config=fixtures.engine_config(workload), cache_dir=cache_dir)
        with span("registry.load"):
            self.registry.register("default", bundle)
            _, self.engine = self.registry.acquire()
        self.m["registry.load_s"] = recorder.last
        self.trainer = self.engine.trainer
        with span("inference.session_build"):
            self.inference = self.trainer.model._resolve_session("fast", "float32")
        self.m["inference.session_build_s"] = recorder.last

    def rung(self, name: str, scale: float = 1e6) -> float:
        return _median(self.recorder.seconds(name), scale)

    def decoded(self, indices: Sequence[int]) -> List:
        """Wire lines -> request records, each decode a span."""
        from repro.serving import protocol

        records = []
        for index in indices:
            line = loadgen.LoadGenerator.framed(self.corpus.lines[index], self.next_id)
            with self.recorder.span("protocol.decode", self.next_id):
                records.append(protocol.decode_record(line, self.options, admin=True))
            self.next_id += 1
        return records

    def targets(self, shapes: List) -> List:
        """The collaborators of ``engine.annotate_batch`` to shadow; each
        encoder pass leaves its (batch, width) in ``shapes``."""
        engine, inference = self.engine, self.inference
        targets = [
            (engine.encoding, "encode_cached", "encoding.encode_cached"),
            (engine.encoding, "encode_pair", "encoding.encode_pair"),
            (self.trainer, "annotate_batch", "trainer.annotate_batch"),
            (inference, "encode_batch", "inference.encode_batch",
             lambda out: shapes.append(out[0].shape[:2])),
            (inference, "type_head", "inference.type_head"),
            (inference, "relation_head", "inference.relation_head"),
        ]
        if engine.result_cache is not None:
            targets += [(engine.result_cache, "get", "diskcache.get"),
                        (engine.result_cache, "put", "diskcache.put")]
        if engine.probe_planner is not None:
            targets.append((engine.probe_planner, "plan", "probe.plan"))
        if engine.column_cache is not None:
            targets += [(engine.column_cache, "lookup", "colcache.lookup"),
                        (engine.column_cache, "store", "colcache.store")]
        return targets

    # -- slice 0: one table at a time, the engine's callees shadowed ---------
    def singles(self, indices: Sequence[int]) -> None:
        from repro.serving import protocol

        m, recorder, span = self.m, self.recorder, self.recorder.span
        model = self.trainer.model
        records = self.decoded(indices)
        m["protocol.decode_us"] = self.rung("protocol.decode")
        m["protocol.request_bytes"] = statistics.mean(
            len(self.corpus.lines[i]) + 1 for i in indices)
        shapes: List[Tuple[int, int]] = []
        results, answer_bytes = [], []
        tokens_before = model.real_tokens
        with instrumented(recorder, self.targets(shapes)):
            for record in records:
                with span("engine.annotate", record.record_id):
                    results.append(self.engine.annotate_batch([record.request])[0])
                with span("protocol.encode", record.record_id):
                    line = protocol.encode_line(
                        protocol.encode_result(results[-1], record_id=record.record_id))
                answer_bytes.append(len(line))
        self.records, self.results = records, results
        computed = [not r.from_disk for r in results]
        m["engine.annotate_us"] = self.rung("engine.annotate")
        m["engine.self_us"] = _median(
            [s for s, c in zip(recorder.self_of("engine.annotate"), computed) if c], 1e6)
        m["protocol.encode_us"] = self.rung("protocol.encode")
        m["protocol.answer_bytes"] = statistics.mean(answer_bytes)
        m["encoding.encode_miss_us"] = self.rung("encoding.encode_cached")
        m["probe.plan_us"] = self.rung("probe.plan")
        m["probe.pairs_planned_per_table"] = (
            statistics.mean(len(r.annotated.requested_pairs) for r in results)
            if self.engine.probe_planner is not None else 0.0)
        m["trainer.annotate_batch_us"] = self.rung("trainer.annotate_batch")
        m["trainer.self_us"] = _median(recorder.self_of("trainer.annotate_batch"), 1e6)
        m["inference.encode_batch_us"] = self.rung("inference.encode_batch")
        m["inference.us_per_token"] = _ratio(
            sum(recorder.seconds("inference.encode_batch")) * 1e6,
            model.real_tokens - tokens_before)
        m["inference.type_head_us"] = self.rung("inference.type_head")
        m["inference.relation_head_us"] = self.rung("inference.relation_head")
        m["inference.passes_per_table"] = _ratio(len(shapes), sum(computed))
        m["inference.flops_per_pass"] = statistics.mean(
            _flops(batch, width, model.config) for batch, width in shapes)

    # -- the same tables through the layers off the engine's call path -------
    def alone(self) -> None:
        from repro.encoding import BatchPlanner, column_fingerprint
        from repro.serving import ColumnCache
        from repro.serving.diskcache import (
            DiskCache, decode_annotation, encode_annotation, result_cache_key,
        )
        from repro.serving.fabric import FabricCache

        m, recorder, span = self.m, self.recorder, self.recorder.span
        engine, tokenizer = self.engine, self.trainer.tokenizer
        tables = [record.request.table for record in self.records]
        encoded = []
        for table in tables:
            with span("text.tokenize"):
                for column in table.columns:
                    for value in column.values:
                        tokenizer.encode(value)
            engine.encoding.encode_cached(table)  # a disk hit never encoded it
            with span("encoding.encode_hit"):
                encoded.append(engine.encoding.encode_cached(table)[0])
        m["text.tokenize_us"] = self.rung("text.tokenize")
        m["encoding.encode_hit_us"] = self.rung("encoding.encode_hit")
        batch_planner = BatchPlanner(batch_size=DRAIN)
        for start in range(0, len(tables), DRAIN):
            signatures = [
                engine.encoding.annotation_signature(item, result.annotated.requested_pairs)
                for item, result in zip(encoded[start:start + DRAIN],
                                        self.results[start:start + DRAIN])
            ]
            with span("encoding.plan"):
                batch_planner.plan(signatures)
        m["encoding.plan_us"] = self.rung("encoding.plan")

        # disk tier and fabric: one key set, one payload set
        fingerprint = engine.model_fingerprint
        stored = {
            result_cache_key(fingerprint, record.request): (record, encode_annotation(result))
            for record, result in zip(self.records, self.results)
        }
        keys = list(stored)
        payloads = [payload for _, payload in stored.values()]
        self._store("diskcache", lambda role: DiskCache(self.scratch / "rung-disk"),
                    keys, payloads, whole=True)
        # A fabric handle indexes its own writes in memory and tails only
        # the *other* writers' segments, so the reader is a second writer
        # id — as a sibling worker of the pool would be.
        self._store("fabric",
                    lambda role: FabricCache(self.scratch / "rung-fabric", writer=role),
                    keys, payloads, whole=False)
        for record, payload in stored.values():
            with span("diskcache.decode"):
                decode_annotation(record.request, payload)
        m["diskcache.decode_us"] = self.rung("diskcache.decode")

        # column cache: one (batch x hidden) state per column of the slice
        size = engine.config.column_cache_size
        column_cache = ColumnCache(size, model_key=fingerprint)
        state = np.zeros(self.trainer.model.config.hidden_dim, dtype=np.float32)
        entries = [
            (column_fingerprint(column), len(table.columns))
            for table in tables for column in table.columns
        ][-size:]
        for fp, width in entries:
            with span("colcache.store"):
                column_cache.store(fp, width, state)
        for fp, width in entries:
            with span("colcache.lookup_hit"):
                column_cache.lookup(fp, width)
        m["colcache.store_us"] = self.rung("colcache.store")
        m["colcache.lookup_hit_us"] = self.rung("colcache.lookup_hit")

    def _store(self, layer: str, open_store, keys, payloads, whole: bool) -> None:
        """put / reopen / get-hit of one persistent store; ``whole`` adds
        the rungs only the disk tier reports (open, get-miss, record size)."""
        m, recorder, span = self.m, self.recorder, self.recorder.span
        store = open_store("writer")
        for key, payload in zip(keys, payloads):
            with span(f"{layer}.put"):
                store.put(key, payload)
        size = store.total_bytes
        store.close()
        with span(f"{layer}.open"):
            store = open_store("reader")
        opened_s = recorder.last
        for key, payload in zip(keys, payloads):
            with span(f"{layer}.get_hit"):
                found = store.get(key)
            if found != payload:
                raise RuntimeError(f"{layer} lost the record of {key}")
            if whole:
                with span(f"{layer}.get_miss"):
                    store.get("absent-" + key)
        store.close()
        m[f"{layer}.put_us"] = self.rung(f"{layer}.put")
        m[f"{layer}.get_hit_us"] = self.rung(f"{layer}.get_hit")
        if whole:
            m[f"{layer}.get_miss_us"] = self.rung(f"{layer}.get_miss")
            m[f"{layer}.open_s"] = opened_s
            m[f"{layer}.bytes_per_record"] = size / len(keys)

    # -- drains of 8, shadowed and plain turn about ---------------------------
    def drains(self, indices: Sequence[int]) -> None:
        m, recorder, engine = self.m, self.recorder, self.engine
        records = self.decoded(indices)
        per_table = {True: [], False: []}
        requests_before = engine.stats.requests
        passes_before = engine.stats.encoder_passes
        targets = self.targets([])
        elapsed = 0.0
        for k in range(0, len(records), DRAIN):
            drain = [record.request for record in records[k:k + DRAIN]]
            traced = (k // DRAIN) % 2 == 0
            recorder.enabled = traced
            with instrumented(recorder, targets if traced else []):
                with recorder.span("engine.annotate_batch", records[k].record_id):
                    engine.annotate_batch(drain)
            per_table[traced].append(recorder.last / len(drain))
            elapsed += recorder.last
        recorder.enabled = True
        m["engine.batch8_us_per_table"] = _median(per_table[False], 1e6)
        m["engine.batch_tables_per_s"] = len(records) / elapsed
        m["trace.overhead_ratio"] = (
            _ratio(_median(per_table[True]), _median(per_table[False])) - 1.0)
        m["encoding.tables_per_pass"] = _ratio(
            engine.stats.requests - requests_before,
            engine.stats.encoder_passes - passes_before)

    # -- idle round trips: socket, gateway, queue and transport turn about ---
    def idle(self, server, indices: Sequence[int]) -> int:
        """Returns how many socket answers differed from the oracle."""
        from repro.serving import AnnotationGateway, EngineWorker, QueueConfig

        m, span = self.m, self.recorder.span
        records = self.decoded(indices)
        thirds = [records[k::3] for k in range(3)]
        socket_indices = list(indices)[0::3]
        health = json.dumps({"op": "health"}).encode() + b"\n"
        queue_config = QueueConfig(max_batch=DRAIN, max_latency=0.01)
        wrong = 0
        affinity = os.sched_getaffinity(0)
        if server.cpus:
            # One request in flight anywhere: whoever is not working is
            # idle, so the harness can sit on the server's core and see
            # the same speed the server sees.
            os.sched_setaffinity(0, server.cpus)
        try:
            with loadgen.Exchange(server.address) as wire, \
                    EngineWorker(self.engine, queue_config) as worker, \
                    AnnotationGateway(self.registry, queue_config) as gateway:
                gateway.submit(thirds[2][0].request).result()  # spawn the route's worker
                for index, by_socket, routed, direct in zip(socket_indices, *thirds):
                    line = self.corpus.lines[index] + b"\n"
                    with span("server.roundtrip_idle", by_socket.record_id):
                        answer = wire.ask(line)
                    wrong += answer.rstrip(b"\n") != self.corpus.answers[index]
                    with span("gateway.idle_submit", routed.record_id):
                        gateway.submit(routed.request).result()
                    with span("queue.idle_submit", direct.record_id):
                        worker.submit(direct.request).result()
                    with span("server.health_roundtrip"):
                        wire.ask(health)
        finally:
            os.sched_setaffinity(0, affinity)
        m["server.roundtrip_idle_ms"] = self.rung("server.roundtrip_idle", 1e3)
        m["queue.idle_submit_ms"] = self.rung("queue.idle_submit", 1e3)
        m["gateway.idle_submit_ms"] = self.rung("gateway.idle_submit", 1e3)
        m["gateway.route_overhead_us"] = (
            m["gateway.idle_submit_ms"] - m["queue.idle_submit_ms"]) * 1e3
        return wrong


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

def run_traced(workload: catalog.Workload, seed: int) -> Dict:
    fix = fixtures.ensure()
    corpus = fix.corpus(workload)
    stream = workloads.build_stream(workload, seed)
    after_warmup = [i for phase in stream.phases()[1:] for i in phase.indices]
    size = workload.trace_requests
    slices = [after_warmup[k * size:(k + 1) * size] for k in range(4)]
    recorder = Recorder()
    # The harness's heap (corpus, spans) is far larger than the server's:
    # left on, the collector's full passes would be billed to the rungs.
    gc.collect()
    gc.disable()
    try:
        return _traced(workload, fix, corpus, stream, slices, recorder)
    finally:
        gc.enable()


def _traced(workload, fix, corpus, stream, slices, recorder) -> Dict:
    with endtoend.Session(fix, workload) as session:
        server = session.spawn()
        metrics, log = _server_traffic(server, workload, stream, corpus)
        generator_limited = metrics.pop("_generator_limited")
        counts = endtoend.check_answers(log, corpus)
        ladder = Ladder(session, workload, fix, corpus, recorder)
        ladder.singles(slices[0])
        ladder.alone()
        ladder.drains(slices[2] + slices[3])
        wrong = ladder.idle(server, slices[1][:3 * IDLE_REQUESTS])
        server.stop()
        ladder.registry.close()
        metrics.update(ladder.m)
        endtoend.OUT_DIR.mkdir(exist_ok=True)
        recorder.dump(endtoend.OUT_DIR / f"trace_{workload.name}.json")
    # Does the ladder explain the socket?  Stage sum = decode + gateway idle
    # submit (route + queue wait + engine) + encode + the transport alone
    # (an admin round trip, which touches neither queue nor engine).
    transport = ladder.rung("server.health_roundtrip", 1e3)
    explained = (
        metrics["protocol.decode_us"] / 1e3 + metrics["gateway.idle_submit_ms"]
        + metrics["protocol.encode_us"] / 1e3)
    roundtrip = metrics["server.roundtrip_idle_ms"]
    metrics["server.overhead_ms"] = roundtrip - explained
    metrics["reconcile.stage_sum_ms"] = explained + transport
    metrics["reconcile.unexplained_ms"] = roundtrip - explained - transport
    metrics["reconcile.unexplained_ratio"] = _ratio(
        roundtrip - explained - transport, roundtrip)
    failed = len(log) - counts["ok"] + wrong
    return {
        "workload": workload.name,
        "correct": failed == 0,
        "attempted": len(log) + IDLE_REQUESTS,
        "failed": failed,
        "metrics": {
            item.name: {"value": float(metrics[item.name]), "unit": item.unit}
            for item in catalog.PER_LAYER
        },
        "self_seconds": recorder.self_seconds(),
        "health_roundtrip_ms": transport,
        "generator_limited": generator_limited,
    }
