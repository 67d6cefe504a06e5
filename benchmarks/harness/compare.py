"""Compare result sets against the bounds of ``BENCHMARK.json``.

    python3 benchmarks/harness/compare.py A.json B.json   # is B worse than A?
    python3 benchmarks/harness/compare.py --spread A.json # how steady is A?
    python3 benchmarks/harness/compare.py --medians A.json > baseline.json

A result set is what ``run.py --out FILE`` writes: any number of runs per
workload (``run.py --repeat N`` makes N seeds).  One row is printed per
(workload, end-to-end metric):

* ``ok`` — B's median is no worse than A's by more than the metric's bound;
* ``worse`` — it is;
* ``unresolved`` — the comparison cannot tell: either side has fewer than
  ``MIN_RUNS`` runs (one run's timings spread by as much as the
  bounds on a shared host), or its run-to-run spread (distance between the
  first and third quartile over the median, ``statistics.quantiles(n=4)``)
  is wider than the bound.

Runs marked ``generator_limited`` (the generator's lateness is inside every
latency they report) or ``noisy_host`` (load average above ``nproc - 1`` at
the start, which back-to-back runs of the benchmark itself reach) feed the
medians like any other, and each workload's heading counts them, so a
verdict is read next to how clean its runs were.

The quality guards and ``answers_digest`` must repeat exactly between runs
of one commit on one host; a digest row says whether they did.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import catalog

#: Fewest runs a side needs for a verdict other than ``unresolved``.
MIN_RUNS = 5
#: ``--spread`` proposes bound = max(declared, 2 x spread), capped here (the
#: contract allows no looser bound).  A metric whose spread alone exceeds the
#: cap cannot be compared at any allowed bound: it does not belong among the
#: end-to-end ones (``setup_s``, which the contract requires, excepted).
BOUND_CAP = 0.25


def load(path: str) -> Dict[str, List[Dict]]:
    """Runs of a result-set file, grouped by workload."""
    runs: Dict[str, List[Dict]] = {}
    for result in json.loads(Path(path).read_text())["results"]:
        runs.setdefault(result["workload"], []).append(result)
    return runs


def marked(runs: List[Dict]) -> Tuple[int, int]:
    """How many runs were marked (generator_limited, noisy_host)."""
    return (sum(bool(run.get("generator_limited")) for run in runs),
            sum(bool(run.get("host", {}).get("noisy_host")) for run in runs))


def heading(workload: str, sides: Dict[str, List[Dict]]) -> str:
    counts = ", ".join(
        "{}: {} runs, {} generator_limited, {} noisy_host".format(
            name, len(runs), *marked(runs))
        for name, runs in sides.items())
    return f"-- {workload}  ({counts})"


def values(runs: List[Dict], metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def spread(samples: List[float]) -> float:
    """Inter-quartile distance as a share of the median; infinite below
    ``MIN_RUNS`` samples, where quartiles say nothing."""
    if len(samples) < MIN_RUNS:
        return float("inf")
    first, _, third = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (third - first) / abs(median) if median else float("inf")


def worsening(before: float, after: float, better: str) -> float:
    """By which share of ``before`` did the metric get worse (<= 0: not)."""
    change = (after - before) / abs(before) if before else float("inf")
    return change if better == "lower" else -change


def verdict(a: List[float], b: List[float], metric: catalog.EndToEnd) -> Tuple[str, float]:
    worse_by = worsening(statistics.median(a), statistics.median(b), metric.better)
    if max(spread(a), spread(b)) > metric.bound:
        return "unresolved", worse_by
    return ("worse" if worse_by > metric.bound else "ok"), worse_by


def compare(a: Dict[str, List[Dict]], b: Dict[str, List[Dict]]) -> int:
    print(f"{'workload':<14}{'metric':<26}{'A median':>12}{'B median':>12}"
          f"{'worse by':>10}{'spread A':>10}{'spread B':>10}{'bound':>8}  verdict")
    bad = 0
    for workload in (w.name for w in catalog.WORKLOADS):
        if workload not in a or workload not in b:
            continue
        print(heading(workload, {"A": a[workload], "B": b[workload]}))
        for metric in catalog.END_TO_END:
            va, vb = values(a[workload], metric.name), values(b[workload], metric.name)
            if not va or not vb:
                continue
            word, worse_by = verdict(va, vb, metric)
            bad += word != "ok"
            print(f"{workload:<14}{metric.name:<26}{statistics.median(va):>12.5g}"
                  f"{statistics.median(vb):>12.5g}{worse_by:>+10.3f}{spread(va):>10.3f}"
                  f"{spread(vb):>10.3f}{metric.bound:>8g}  {word}")
        digests = {run.get("answers_digest") for run in a[workload] + b[workload]} - {None}
        if digests:
            same = "repeats exactly" if len(digests) == 1 else "DIFFERS"
            bad += len(digests) != 1
            print(f"{workload:<14}{'answers_digest':<26}{same}")
    return 1 if bad else 0


def print_spread(runs: Dict[str, List[Dict]]) -> int:
    print(f"{'workload':<14}{'metric':<26}{'runs':>5}{'median':>12}{'spread':>9}"
          f"{'bound':>8}{'learned':>9}  note")
    for workload, results in runs.items():
        print(heading(workload, {"runs": results}))
        for metric in catalog.END_TO_END:
            samples = values(results, metric.name)
            if not samples:
                continue
            observed = spread(samples)
            learned = min(BOUND_CAP, max(metric.bound, 2 * observed))
            note = f"fewer than {MIN_RUNS} runs" if len(samples) < MIN_RUNS else (
                "cannot hold the cap: demote" if observed > BOUND_CAP else
                "WIDER THAN BOUND" if observed > metric.bound else
                "steady" if observed <= metric.bound / 3 else "within bound")
            print(f"{workload:<14}{metric.name:<26}{len(samples):>5}"
                  f"{statistics.median(samples):>12.5g}{observed:>9.4f}"
                  f"{metric.bound:>8g}{learned:>9.3f}  {note}")
    return 0


def medians(runs: Dict[str, List[Dict]]) -> Dict:
    """The baseline shape: per workload the median of every metric."""
    out: Dict = {"schema_version": catalog.SCHEMA_VERSION, "workloads": {}}
    for workload, results in runs.items():
        if len(results) < MIN_RUNS:
            raise SystemExit(f"{workload}: {len(results)} runs, a baseline needs {MIN_RUNS}")
        names = results[0]["metrics"]
        out["workloads"][workload] = {
            "runs": len(results),
            "generator_limited_runs": marked(results)[0],
            "noisy_host_runs": marked(results)[1],
            "seeds": [run.get("host", {}).get("seed") for run in results],
            "answers_digest": results[0].get("answers_digest"),
            "metrics": {
                name: {"median": statistics.median(values(results, name)),
                       "spread": spread(values(results, name)),
                       "unit": names[name]["unit"]}
                for name in names
            },
        }
    out["host"] = {
        key: value for key, value in next(iter(runs.values()))[0].get("host", {}).items()
        if key not in ("seed", "loadavg_1m", "noisy_host")
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="result-set files (run.py --out)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--spread", action="store_true",
                      help="print each metric's run-to-run spread in one file")
    mode.add_argument("--medians", action="store_true",
                      help="print the medians of one file as JSON (the baseline)")
    args = parser.parse_args(argv)
    if args.spread or args.medians:
        if len(args.files) != 1:
            parser.error("--spread and --medians take one file")
        runs = load(args.files[0])
        if args.spread:
            return print_spread(runs)
        print(json.dumps(medians(runs), indent=1))
        return 0
    if len(args.files) != 2:
        parser.error("comparing takes two files: A.json B.json")
    return compare(load(args.files[0]), load(args.files[1]))


if __name__ == "__main__":
    sys.exit(main())
