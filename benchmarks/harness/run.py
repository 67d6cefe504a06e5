"""The benchmark's one command.

    python3 benchmarks/harness/run.py [--workload NAME] [--seed N] [--trace 0|1]
                                      [--repeat N] [--out FILE]

Builds or loads the fixtures, spawns the real server (``python -m repro.cli
serve <bundle> --listen 127.0.0.1:0 ...``), drives it from this process,
verifies every answer against the reference-path oracle, and prints every
metric by name with unit, sample count and bound.  The last line of
standard output is the result object the driver reads.  ``--trace 1`` runs
the layer ladder (:mod:`ladder`) and prints the per-layer metrics instead;
end-to-end runs (:mod:`endtoend`) record no spans.  Without ``--workload``
all four workloads run.

Phase lengths are fixed counts (:mod:`catalog`), so a run always measures
``RUN_SECONDS`` of traffic.  The driver passes ``--seconds RUN_SECONDS``;
the flag is accepted so that it can, and any other length is refused.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict

import catalog
from catalog import REPO_ROOT, RUN_SECONDS

SRC_DIR = REPO_ROOT / "src"

# The harness measures the checkout it sits in: without the program's
# sources there is nothing to measure, and nothing may be imported.
if not (SRC_DIR / "repro" / "cli.py").is_file():
    print(f"error: {SRC_DIR}/repro is missing - run from a full checkout",
          file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC_DIR))
# One BLAS thread here as in the server child (loadgen.server_environment):
# the in-process ladder must compute the way the server does, and a second
# BLAS thread would fight the generator.  Must precede the numpy import.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402

import endtoend  # noqa: E402
import ladder  # noqa: E402
from endtoend import OUT_DIR  # noqa: E402

BASELINE = catalog.HARNESS_DIR / "baseline.json"


# ---------------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------------

def host_fingerprint(seed: int) -> Dict:
    try:
        depends = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{depends.get('name')} {depends.get('version')}"
    except (TypeError, KeyError):  # an older numpy, or a build without the record
        blas = "unknown"
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ["git", "-C", str(REPO_ROOT), *args],
                capture_output=True, text=True, timeout=5,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    commit = git("rev-parse", "--short", "HEAD") or "none"
    if git("status", "--porcelain", "--untracked-files=no"):
        commit += "-dirty"  # the numbers are not that commit's
    loadavg = os.getloadavg()[0]
    cpus = os.cpu_count() or 1
    return {
        "schema_version": catalog.SCHEMA_VERSION,
        "cpu_count": cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": commit,
        "loadavg_1m": loadavg,
        "noisy_host": loadavg > cpus - 1,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def print_report(result: Dict, trace: bool) -> None:
    """Every metric by name with unit, sample count and bound."""
    bounds = {m.name: m.bound for m in catalog.END_TO_END}
    host = result["host"]
    print(f"== {result['workload']}  seed={host['seed']}  commit={host['commit']}  cpus={host['cpu_count']}  "
          f"loadavg={host['loadavg_1m']:.2f}"
          + ("  NOISY_HOST" if host["noisy_host"] else "")
          + ("  GENERATOR_LIMITED" if result.get("generator_limited") else ""))
    print(f"{'metric':<34}{'value':>14}  {'unit':<9}{'samples':>8}  bound")
    for name, metric in result["metrics"].items():
        samples = result.get("samples", {}).get(name, "")
        bound = f"{bounds[name]:g}" if name in bounds else "-"
        print(f"{name:<34}{metric['value']:>14.6g}  {metric['unit']:<9}{samples!s:>8}  {bound}")
    if not trace:
        tail = result["tail"]
        print("tail (information, unbounded): open-hi "
              + "  ".join(f"{name} = {ms:.3f} ms" for name, ms in tail["ms"].items())
              + f"  over {tail['samples']} samples")
        for name, phase in result["phases"].items():
            print(f"phase {name:<10} attempted={phase['attempted']} "
                  f"succeeded={phase['succeeded']} failed={phase['failed']}")
        for name, report in result["loadgen"].items():
            print(f"loadgen {name}: late_p99={report['late_p99_ms']:.3f} ms  "
                  f"achieved/offered={report['achieved_over_offered']:.4f}  "
                  f"cpu_share={report['cpu_share']:.3f}")
        print(f"answers_digest {result['answers_digest']} "
              f"({baseline_digest_note(result)})")
        print(f"fixture_build_s {result['fixture_build_s']:.1f} (not part of setup_s)")


def baseline_digest_note(result: Dict) -> str:
    """Whether the run's answers are those of ``baseline.json``.  The oracle
    is the commit's own, so a change that alters reference and fast path
    alike verifies; against the baseline's digest it shows in one run (as
    does another host's arithmetic)."""
    try:
        baseline = json.loads(BASELINE.read_text())["workloads"][result["workload"]]
    except (OSError, ValueError, KeyError):
        return "no baseline"
    same = baseline.get("answers_digest") == result["answers_digest"]
    return "as baseline.json" if same else "DIFFERS from baseline.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w.name for w in catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help=f"must be {RUN_SECONDS}: phase lengths are fixed")
    parser.add_argument("--trace", nargs="?", const=1, type=int, default=0,
                        choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1,
                        help="run seeds SEED .. SEED+N-1 (a result set for compare.py)")
    parser.add_argument("--out", default=None,
                        help="write the full result set to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"this benchmark measures for {RUN_SECONDS} s (fixed phase "
                     "lengths, so that runs compare); no other length is run")
    if args.repeat < 1:
        parser.error("--repeat must be positive")
    names = [args.workload] if args.workload else [w.name for w in catalog.WORKLOADS]
    run = ladder.run_traced if args.trace else endtoend.run_end_to_end
    results = []
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            host = host_fingerprint(seed)  # load average before we add to it
            result = run(catalog.workload(name), seed)
            result["host"] = host
            print_report(result, bool(args.trace))
            results.append(result)
    OUT_DIR.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else OUT_DIR / (
        f"result_{'trace' if args.trace else 'e2e'}_{args.workload or 'all'}.json"
    )
    out.write_text(json.dumps({"results": results}, indent=1))
    last = results[-1] if len(results) == 1 else {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            f"{r['workload']}.{name}": metric
            for r in results for name, metric in r["metrics"].items()
        },
    }
    print(json.dumps({k: last[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
