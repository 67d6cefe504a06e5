"""Self-tests of the benchmark harness (tier-1: no training, no server).

They pin the instrument's own rules: which percentile a sample supports,
that a seed fixes the stream, that open-loop latency runs from the due time
(a stall must show in the requests that were due while it lasted), the
traffic mixes, label stripping, and that ``BENCHMARK.json`` is what
:mod:`catalog` declares and what the driver's contract allows.
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402
import compare  # noqa: E402
import corpora  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


# -- percentile rule ---------------------------------------------------------

@pytest.mark.parametrize("count, highest", [
    (5, None), (20, 50.0), (100, 90.0), (200, 95.0), (999, 95.0),
    (1000, 99.0), (1100, 99.0), (10000, 99.9),
])
def test_highest_percentile_needs_ten_samples_beyond(count, highest):
    assert loadgen.highest_percentile(count) == highest


def test_percentile_refuses_an_unsupported_tail():
    samples = list(range(999))
    assert loadgen.percentile(samples, 95.0) == pytest.approx(948.1)
    with pytest.raises(ValueError, match="samples beyond"):
        loadgen.percentile(samples, 99.0)


# -- streams and schedules ----------------------------------------------------

@pytest.mark.parametrize("workload", catalog.WORKLOADS, ids=lambda w: w.name)
def test_a_seed_fixes_the_stream(workload):
    one, again, other = (workloads.build_stream(workload, s) for s in (7, 7, 8))
    for a, b in zip(one.phases(), again.phases()):
        assert a.indices == b.indices
        assert (a.due is None and b.due is None) or np.array_equal(a.due, b.due)
    assert any(a.indices != b.indices for a, b in zip(one.phases(), other.phases()))
    sizes = [len(p.indices) for p in one.phases()]
    assert sizes == [workload.warmup] + [
        workload.pass_len, workload.lo_block, workload.hi_block] * workload.rounds


def test_poisson_and_burst_schedules():
    rng = np.random.default_rng(3)
    poisson = workloads.poisson_schedule(rng, 4000, 250.0)
    assert np.all(np.diff(poisson) > 0)
    assert poisson[-1] == pytest.approx(4000 / 250.0, rel=0.08)
    burst = workloads.burst_schedule(rng, 260, 250.0)
    instants, sizes = np.unique(burst, return_counts=True)
    assert list(sizes) == [25] * 10 + [10]
    assert np.allclose(np.diff(instants), workloads.BURST_PERIOD_S)
    assert 0.0 <= instants[0] < workloads.BURST_PERIOD_S


def test_every_seed_serves_the_same_set_of_tables():
    """Counts, not seeds, decide which tables a run serves — that is what
    lets the F1 guards and the digest repeat exactly."""
    for workload in catalog.WORKLOADS:
        served = [
            {i for phase in workloads.build_stream(workload, seed).phases()
             for i in phase.indices}
            for seed in (1, 2)
        ]
        assert served[0] == served[1], workload.name


def test_warm_repeat_mixes_zipf_hits_and_never_seen_tables():
    workload = catalog.workload("warm_repeat")
    stream = workloads.build_stream(workload, 11)
    assert set(stream.warmup.indices[:corpora.NARROW_HOT]) == set(range(corpora.NARROW_HOT))
    seen_fresh = set(i for i in stream.warmup.indices if i >= corpora.NARROW_COLD)
    hot_draws = []
    for phase in stream.phases()[1:]:
        fresh = [i for i in phase.indices if i >= corpora.NARROW_COLD]
        assert len(fresh) == round(len(phase.indices) * workloads.FRESH_SHARE)
        assert not seen_fresh & set(fresh) and len(set(fresh)) == len(fresh)
        seen_fresh |= set(fresh)
        hot_draws += [i for i in phase.indices if i < corpora.NARROW_COLD]
    assert max(hot_draws) < corpora.NARROW_HOT
    assert max(seen_fresh) < corpora.NARROW_TABLES  # the never-seen pool suffices
    counts = np.bincount(hot_draws, minlength=corpora.NARROW_HOT)
    top = counts[:10].sum() / counts.sum()  # Zipf(1.1) over 1024: ranks 1-10 ~ 48%
    assert 0.43 < top < 0.53


def test_bursty_dup_repeats_a_quarter_of_each_burst():
    workload = catalog.workload("bursty_dup")
    stream = workloads.build_stream(workload, 5)
    hi = stream.rounds[0][2]
    start = 0
    for size in workloads.burst_sizes(len(hi.indices), workload.rate_hi):
        burst = hi.indices[start:start + size]
        assert len(burst) - len(set(burst)) == int(size * workloads.DUP_SHARE) > 0
        assert len(set(hi.due[start:start + size])) == 1  # one instant
        start += size
    cold = workloads.build_stream(catalog.workload("cold_narrow"), 5).rounds[0][2]
    assert len(set(cold.indices)) == len(cold.indices)


def test_wire_records_carry_no_labels():
    from repro.datasets import Column, Table
    from repro.io import table_to_dict
    from repro.serving import protocol

    table = Table(
        columns=[Column(["a", "b"], type_labels=["people.person"], header="name"),
                 Column(["x", "y"], type_labels=["location.city"], header="city")],
        table_id="t-1", relation_labels={(0, 1): ["person.place_lived"]},
        metadata={"schema": "residences"},
    )
    record = corpora.wire_record(table)
    leaked = json.dumps(table_to_dict(table))
    assert "people.person" in leaked and "place_lived" in leaked
    text = json.dumps(record)
    for secret in ("people.person", "location.city", "place_lived", "residences",
                   "type_labels", "relation_labels", "metadata"):
        assert secret not in text
    decoded = protocol.decode_record(text).request.table
    assert decoded.relation_labels == {} and decoded.columns[0].type_labels == []
    assert [c.values for c in decoded.columns] == [["a", "b"], ["x", "y"]]
    assert corpora.gold_of(table) == {
        "types": [["people.person"], ["location.city"]],
        "relations": {"0-1": ["person.place_lived"]},
    }


# -- due-time accounting -------------------------------------------------------

def test_a_stall_shows_in_the_requests_due_while_it_lasted():
    """An echo server that stops reading for 150 ms once.  The open loop
    keeps sending on schedule, so the requests due during the stall carry
    it in their latency; requests well after it are fast again."""
    stall_at, stall_s, count, rate = 20, 0.15, 120, 400.0

    async def scenario():
        async def echo(reader, writer):
            seen = 0
            while line := await reader.readline():
                seen += 1
                if seen == stall_at:
                    await asyncio.sleep(stall_s)
                writer.write(line)
                await writer.drain()
            writer.close()

        server = await asyncio.start_server(echo, "127.0.0.1", 0)
        address = server.sockets[0].getsockname()[:2]
        due = np.arange(1, count + 1) / rate
        async with server:
            async with loadgen.LoadGenerator(address, connections=1) as generator:
                report = await generator.open(
                    "open", list(range(count)), [b'{"k": 1}'] * count, due)
            await asyncio.sleep(0.01)  # let the handler see the hang-up
            return generator.log, report

    log, report = asyncio.run(scenario())
    assert [r.answer for r in log] == [b'{"k": 1, "id": %d}' % k for k in range(count)]
    latency = [r.latency_ms for r in log]
    stalled = latency[stall_at:stall_at + 10]   # due while the server slept
    assert min(stalled) > 100.0
    assert max(latency[:stall_at - 1]) < 50.0 and max(latency[-20:]) < 50.0
    # the generator did not slow down for the stall: no coordinated omission
    assert report.sent == count and report.achieved_over_offered > 0.95
    sends = [r.sent for r in log]
    assert sends[stall_at + 10] - sends[stall_at] == pytest.approx(10 / rate, abs=0.02)


def test_closed_loop_answers_everything_in_order_per_connection():
    async def scenario():
        async def echo(reader, writer):
            while line := await reader.readline():
                await asyncio.sleep(0.001)
                writer.write(line)
            writer.close()

        server = await asyncio.start_server(echo, "127.0.0.1", 0)
        address = server.sockets[0].getsockname()[:2]
        async with server:
            async with loadgen.LoadGenerator(address, connections=2) as generator:
                seconds = await generator.closed(
                    "closed", list(range(40)), [b'{"k": 1}'] * 40, in_flight=4)
            await asyncio.sleep(0.01)  # let the handlers see the hang-up
            return generator.log, generator.connections, seconds

    log, connections, seconds = asyncio.run(scenario())
    assert all(r.answer is not None for r in log) and len(log) == 40
    assert seconds >= 20 * 0.001  # each connection's 20 answers, 1 ms apart
    for connection in connections:
        numbers = [r.number for r in connection.sent]
        assert numbers == sorted(numbers) and len(numbers) == 20
        assert [json.loads(r.answer)["id"] for r in connection.sent] == numbers


# -- verification and comparison ----------------------------------------------

def test_answers_are_checked_against_the_oracle():
    import endtoend
    import fixtures

    corpus = fixtures.Corpus(
        lines=[b"{}", b"{}"],
        answers=[b'{"table_id": "a", "columns": [], "relations": []}',
                 b'{"table_id": "b", "columns": [], "relations": []}'],
        gold=[{"types": [], "relations": {}}] * 2,
    )

    def sent(number, index, answer):
        return loadgen.Sent("open", index, number, 0.0, 0.0, 0.0, answer)

    log = [
        sent(0, 0, b'{"table_id": "a", "columns": [], "relations": [], "id": 0}'),
        sent(1, 1, b'{"table_id":"b","columns":[],"relations":[],"id":1}'),  # reformatted
        sent(2, 0, b'{"table_id": "b", "columns": [], "relations": [], "id": 2}'),
        sent(3, 1, b'{"table_id": "b", "columns": [], "relations": [], "id": 9}'),
        sent(4, 1, b'{"table_id": "b", "error": "boom", "id": 4}'),
        sent(5, 1, None),
    ]
    counts = endtoend.check_answers(log, corpus)
    assert counts == {"ok": 2, "missing": 1, "error": 1, "order": 1, "mismatch": 1}
    assert [r.ok for r in log] == [True, True, False, False, False, False]


def test_compare_verdicts():
    metric = catalog.end_to_end("throughput_tables_per_s")  # higher is better
    steady_a = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady_a, [98.0, 99.0, 97.0, 98.5, 97.5], metric)[0] == "ok"
    assert compare.verdict(steady_a, [60.0, 61.0, 59.0, 60.5, 59.5], metric)[0] == "worse"
    assert compare.verdict(steady_a, [60.0, 140.0, 100.0, 50.0, 150.0], metric)[0] == "unresolved"
    # one run a side resolves nothing, however far apart the two are
    assert compare.verdict([100.0], [60.0], metric)[0] == "unresolved"
    assert compare.verdict(steady_a, steady_a[:compare.MIN_RUNS - 1], metric)[0] == "unresolved"
    lower = catalog.end_to_end("lat_lo_p50_ms")
    assert compare.worsening(10.0, 12.0, lower.better) == pytest.approx(0.2)
    assert compare.worsening(10.0, 12.0, "higher") == pytest.approx(-0.2)
    assert compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


def test_compare_counts_marked_runs(tmp_path):
    def run(seed, noisy=False, limited=False):
        return {"workload": "cold_narrow", "generator_limited": limited,
                "host": {"seed": seed, "noisy_host": noisy},
                "metrics": {"setup_s": {"value": 1.0 + seed / 100, "unit": "s"}}}

    path = tmp_path / "set.json"
    path.write_text(json.dumps({"results": [
        run(0), run(1, noisy=True), run(2, limited=True), run(3), run(4), run(5)]}))
    runs = compare.load(str(path))["cold_narrow"]
    assert compare.marked(runs) == (1, 1)
    assert "A: 6 runs, 1 generator_limited, 1 noisy_host" in compare.heading(
        "cold_narrow", {"A": runs})
    baseline = compare.medians({"cold_narrow": runs})["workloads"]["cold_narrow"]
    assert (baseline["generator_limited_runs"], baseline["noisy_host_runs"]) == (1, 1)
    with pytest.raises(SystemExit, match="a baseline needs"):
        compare.medians({"cold_narrow": runs[:compare.MIN_RUNS - 1]})


# -- the contract file ----------------------------------------------------------

def test_benchmark_json_is_generated_and_within_the_contract():
    declared = json.loads(catalog.BENCHMARK_JSON.read_text())
    assert declared == catalog.benchmark_json(), "run catalog.py --write"
    assert catalog.main(["--check"]) == 0
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/harness"]
    assert declared["command"][-1].startswith(declared["paths"][0] + "/")
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert len(catalog.BENCHMARK_JSON.read_bytes()) <= 64 * 1024
    names = [item["name"] for key in ("workloads", "end_to_end", "per_layer")
             for item in declared[key]]
    assert len(set(names)) == len(names) and all(NAME.match(name) for name in names)
    for item in declared["workloads"]:
        assert set(item) == {"name", "why"}
        assert 0 < len(item["why"]) <= 200 and "\n" not in item["why"]
    for item in declared["end_to_end"]:
        assert set(item) == {"name", "unit", "better", "bound"}
        assert 0 < item["bound"] <= 0.25
    for item in declared["per_layer"]:
        assert set(item) == {"name", "unit", "better"}
    for item in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(item["unit"]) and item["better"] in ("lower", "higher")
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": max(m["bound"] for m in declared["end_to_end"])}


def test_the_catalog_declares_what_the_contract_file_cannot():
    workload_names = {w.name for w in catalog.WORKLOADS}
    end_to_end = {m.name for m in catalog.END_TO_END}
    for workload in catalog.WORKLOADS:
        assert workload.why and 0 < workload.rate_lo < workload.rate_hi
        assert workload.limit_ms > 0 and workload.rounds >= 5
        # the pooled open-hi sample supports a tail beyond its median
        assert loadgen.highest_percentile(workload.hi_block * workload.rounds) >= 95.0
        # four trace slices fit in the stream after warm-up
        timed = (workload.pass_len + workload.lo_block + workload.hi_block) * workload.rounds
        assert 4 * workload.trace_requests <= timed
    for metric in catalog.PER_LAYER:
        assert metric.moves and metric.on, metric.name
        for target in metric.moves.split(", "):
            assert target == "none" or target in end_to_end, metric.name
        for where in metric.on.split(", "):
            assert where == "all" or where in workload_names, metric.name
        assert metric.source in ("trace", "stats", "loadgen")
