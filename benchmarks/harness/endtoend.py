"""One end-to-end run: real server, real sockets, every answer verified.

Phases: set-up (spawn -> first correct answer, median of ``SETUP_REPEATS``
spawns) -> warm-up (closed, untimed) -> closed passes -> open-lo -> open-hi
-> teardown -> verification.  Nothing is parsed while the clock runs and no
span is recorded: the traced run is :mod:`ladder`.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import os
import shutil
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

import catalog
import fixtures
import loadgen
import workloads
from catalog import CONNECTIONS, HARNESS_DIR, IN_FLIGHT, SETUP_REPEATS
from loadgen import Sent

OUT_DIR = HARNESS_DIR / "out"


# ---------------------------------------------------------------------------
# Verification and quality
# ---------------------------------------------------------------------------

def check_answers(log: Sequence[Sent], corpus: fixtures.Corpus) -> Dict[str, int]:
    """Classify every request sent: ``ok`` or one failure kind.  Sets
    ``record.ok``.  Byte equality with the oracle line is the fast path; a
    line that differs is parsed, so a formatting-only change is not a
    failure but a content change is."""
    counts = {"ok": 0, "missing": 0, "error": 0, "order": 0, "mismatch": 0}
    for record in log:
        oracle = corpus.answers[record.index]
        if record.answer is None:
            kind = "missing"
        elif record.answer == oracle[:-1] + b', "id": %d}' % record.number:
            kind = "ok"
        else:
            try:
                answer = json.loads(record.answer)
            except ValueError:
                answer = {"error": "not JSON"}
            if not isinstance(answer, dict) or "error" in answer:
                kind = "error"
            elif answer.pop("id", None) != record.number:
                kind = "order"
            elif answer != json.loads(oracle):
                kind = "mismatch"
            else:
                kind = "ok"
        record.ok = kind == "ok"
        counts[kind] += 1
    return counts


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def quality(log: Sequence[Sent], corpus: fixtures.Corpus) -> Tuple[float, float, str, int]:
    """Micro-F1 of served types and relations against the held-out gold,
    over the distinct tables served, plus a digest of those answers.  A
    gold pair the server did not probe is a miss."""
    served: Dict[int, bytes] = {}
    for record in log:
        if record.answer is not None:
            served[record.index] = record.answer
    type_counts, relation_counts = [0, 0, 0], [0, 0, 0]
    digest = hashlib.sha256()

    def score(counts: List[int], predicted: Sequence[str], gold: Sequence[str]) -> None:
        predicted, gold = set(predicted), set(gold)
        counts[0] += len(predicted & gold)
        counts[1] += len(predicted - gold)
        counts[2] += len(gold - predicted)

    for index in sorted(served):
        try:
            answer = json.loads(served[index])
            answer.pop("id", None)
            columns, relations = answer["columns"], answer["relations"]
        except (ValueError, KeyError, TypeError, AttributeError):
            answer, columns, relations = None, [], []
        digest.update(b"%d:" % index)
        digest.update(json.dumps(answer, sort_keys=True).encode())
        gold = corpus.gold[index]
        for c, labels in enumerate(gold["types"]):
            predicted = columns[c]["predicted_types"] if c < len(columns) else []
            score(type_counts, predicted, labels)
        probed = {
            "-".join(map(str, item["columns"])): item["predicted_relations"]
            for item in relations
        }
        for pair, labels in gold["relations"].items():
            score(relation_counts, probed.get(pair, []), labels)
    return _f1(*type_counts), _f1(*relation_counts), digest.hexdigest(), len(served)


# ---------------------------------------------------------------------------
# One end-to-end run
# ---------------------------------------------------------------------------

class Session:
    """Server lifetime plus the run's scratch directory."""

    def __init__(self, fix: fixtures.Fixtures, workload: catalog.Workload) -> None:
        self.fix = fix
        self.workload = workload
        self.scratch = OUT_DIR / f"run-{workload.name}-{os.getpid()}"
        self.server: Optional[loadgen.ServerProcess] = None
        self._affinity = os.sched_getaffinity(0)
        cpus = sorted(self._affinity)
        # One core for the generator, the rest for the server: an unpinned
        # generator is scheduled behind the server's two threads and runs
        # milliseconds late.  A single-core host is left alone.
        self.server_cpus = cpus[:-1] or None
        self.generator_cpus = cpus[-1:] if self.server_cpus else None

    def __enter__(self) -> "Session":
        if self.generator_cpus:
            os.sched_setaffinity(0, self.generator_cpus)
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)
        if self.workload.cache_dir:
            shutil.copytree(self.fix.warm_cache, self.scratch / "cache")
        return self

    def __exit__(self, *exc_info) -> None:
        if self.server is not None:
            self.server.stop()
        os.sched_setaffinity(0, self._affinity)
        shutil.rmtree(self.scratch, ignore_errors=True)

    def spawn(self) -> loadgen.ServerProcess:
        if self.server is not None:
            self.server.stop()
        cache_dir = self.scratch / "cache" if self.workload.cache_dir else None
        self.server = fixtures.spawn_server(
            self.fix.root, self.workload, cache_dir, self.server_cpus
        )
        self.server.start()
        return self.server

    def swap_cores(self) -> None:
        """On a two-CPU host, let server and generator change places.  Each
        vCPU of the reference host slows down by a quarter for tens of
        seconds, independently of the other; a server that alternates sees
        both, and a run's medians stop depending on which core it drew."""
        if self.server is None or not self.server_cpus or len(self.server_cpus) != 1:
            return
        self.server_cpus, self.generator_cpus = self.generator_cpus, self.server_cpus
        self.server.move_to(self.server_cpus)
        os.sched_setaffinity(0, self.generator_cpus)

    def setup(self, corpus: fixtures.Corpus, index: int, repeats: int) -> List[float]:
        """Spawn ``repeats`` servers one after another; each timing runs
        from the spawn to the first correct answer.  The last one stays."""
        seconds = []
        line = corpus.lines[index] + b"\n"
        for _ in range(repeats):
            server = self.spawn()
            answer = loadgen.roundtrip(server.address, line)
            seconds.append(time.perf_counter() - server.spawned_at)
            if answer.rstrip(b"\n") != corpus.answers[index]:
                raise RuntimeError(
                    f"first answer differs from the oracle: {answer[:200]!r}"
                )
        return seconds


def lines_of(corpus: fixtures.Corpus, indices: Sequence[int]) -> List[bytes]:
    return [corpus.lines[i] for i in indices]


async def _drive(session: Session, stream: workloads.Stream, corpus: fixtures.Corpus) -> Dict:
    """Warm-up, then the rounds of closed pass, open-lo block, open-hi
    block against the session's started server, which changes places with
    the generator before every round.  The collector is off while the
    clock runs: a pause of the generator is a late request."""
    server = session.server
    address = server.address
    passes: List[Tuple[float, float]] = []  # (wall seconds, server CPU seconds)
    reports = {"open-lo": loadgen.OpenReport(), "open-hi": loadgen.OpenReport()}
    async with loadgen.LoadGenerator(address, CONNECTIONS) as generator:
        warm = stream.warmup
        await generator.closed(warm.name, warm.indices, lines_of(corpus, warm.indices), IN_FLIGHT)
        gc.collect()
        gc.disable()
        try:
            for closed, lo, hi in stream.rounds:
                session.swap_cores()
                cpu_before = server.cpu_seconds()
                wall = await generator.closed(
                    closed.name, closed.indices, lines_of(corpus, closed.indices), IN_FLIGHT)
                passes.append((wall, server.cpu_seconds() - cpu_before))
                for kind, phase in (("open-lo", lo), ("open-hi", hi)):
                    reports[kind] += await generator.open(
                        phase.name, phase.indices, lines_of(corpus, phase.indices), phase.due)
        finally:
            gc.enable()
        return {"log": generator.log, "passes": passes, "reports": reports}


def generator_limited(reports: Dict[str, loadgen.OpenReport]) -> bool:
    return any(
        r.late_p99_ms > catalog.LOADGEN_LATE_P99_MS
        or r.cpu_share > catalog.LOADGEN_CPU_SHARE
        or r.achieved_over_offered < catalog.LOADGEN_ACHIEVED
        for r in reports.values()
    )


def run_end_to_end(workload: catalog.Workload, seed: int) -> Dict:
    fix = fixtures.ensure()
    corpus = fix.corpus(workload)
    stream = workloads.build_stream(workload, seed)
    with Session(fix, workload) as session:
        setup_seconds = session.setup(corpus, stream.warmup.indices[0], SETUP_REPEATS)
        driven = asyncio.run(_drive(session, stream, corpus))
        rss_mb = session.server.rss_hwm_mb()
        session.server.stop()
        epilogue = session.server.stderr_text.strip()
    log: List[Sent] = driven["log"]
    counts = check_answers(log, corpus)
    type_f1, relation_f1, digest, distinct = quality(log, corpus)
    attempted = len(log) + SETUP_REPEATS  # a wrong first answer raises
    failed = len(log) - counts["ok"]

    by_phase: Dict[str, List[Sent]] = {}
    for record in log:
        by_phase.setdefault(record.phase, []).append(record)
    by_kind: Dict[str, List[Sent]] = {}
    for name, records in by_phase.items():
        by_kind.setdefault(name.rsplit("-", 1)[0], []).extend(records)
    answered = [sum(r.ok for r in by_phase[closed.name]) for closed, _, _ in stream.rounds]
    throughputs = [n / wall for n, (wall, _) in zip(answered, driven["passes"])]
    cpu_ms = [cpu * 1e3 / max(1, n) for n, (_, cpu) in zip(answered, driven["passes"])]
    lo = [r.latency_ms for r in by_kind["open-lo"] if r.ok]
    hi_records = by_kind["open-hi"]
    hi = [r.latency_ms for r in hi_records if r.ok]
    top = loadgen.highest_percentile(len(hi)) or 50.0
    within = sum(r.ok and r.latency_ms <= workload.limit_ms for r in hi_records)

    values = {
        "setup_s": (statistics.median(setup_seconds), len(setup_seconds)),
        "throughput_tables_per_s": (statistics.median(throughputs), len(throughputs)),
        "lat_lo_p50_ms": (loadgen.percentile(lo, 50.0), len(lo)),
        "lat_hi_p50_ms": (loadgen.percentile(hi, 50.0), len(hi)),
        "slo_ok_ratio": (within / len(hi_records), len(hi_records)),
        "server_cpu_ms_per_table": (statistics.median(cpu_ms), len(cpu_ms)),
        "server_rss_mb": (rss_mb, 1),
        "type_f1_micro": (type_f1, distinct),
        "relation_f1_micro": (relation_f1, distinct),
        "ok_ratio": (1.0 - failed / attempted, attempted),
    }
    phases = {
        name: {
            "attempted": len(records),
            "succeeded": sum(r.ok for r in records),
            "failed": sum(not r.ok for r in records),
        }
        for name, records in by_kind.items()
    }
    reports = driven["reports"]
    return {
        "workload": workload.name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": values[m.name][0], "unit": m.unit}
            for m in catalog.END_TO_END
        },
        "samples": {name: count for name, (_, count) in values.items()},
        # Information, not bounded metrics: every percentile above the
        # median that the pooled open-hi sample supports (up to p99, p95 on
        # wide_planned's 600 samples).  They spread too widely from run to
        # run to hold a bound on the reference host.
        "tail": {
            "samples": len(hi),
            "ms": {f"p{p:g}": loadgen.percentile(hi, p)
                   for p in loadgen.PERCENTILES if 50.0 < p <= min(top, 99.0)},
        },
        "failures": {k: v for k, v in counts.items() if k != "ok"},
        "phases": phases,
        "answers_digest": digest,
        "generator_limited": generator_limited(reports),
        "loadgen": {
            name: {
                "late_p99_ms": r.late_p99_ms,
                "achieved_over_offered": r.achieved_over_offered,
                "cpu_share": r.cpu_share,
            }
            for name, r in reports.items()
        },
        "passes": {"tables_per_s": throughputs, "cpu_ms_per_table": cpu_ms},
        "latencies_ms": {
            kind: [round(r.latency_ms, 3) for r in by_kind[kind] if r.ok]
            for kind in ("open-lo", "open-hi")
        },
        "fixture_build_s": fix.manifest["fixture_build_s"],
        "server_epilogue": epilogue,
    }


