"""Function reach: which ``src/repro`` functions the entry points call.

A dev script, stdlib only.  ``run`` traces entry points — the paper
scripts, ``examples/``, every ``repro`` subcommand (a ``--workers 2``
pool included) and the harness workloads — and ``report`` prints each
``src/repro`` function or method with no recorded call::

    python benchmarks/reach.py run OUT [--smoke] [--group paper|examples|cli|harness ...]
    python benchmarks/reach.py report OUT [--entry NAME ...]

How it records: a ``sitecustomize.py`` on the traced process's
``PYTHONPATH`` starts a global ``sys.settrace``/``threading.settrace``
hook that keeps each code object it sees called, once.  Returning no local
tracer keeps the cost to one Python call per Python-level call (Table 3 at
smoke scale: 8.9 s untraced, 9.6 s traced).  Each process writes
``OUT/<entry>/<pid>.txt`` — ``path:first line:qualified name`` per
``src/repro`` code object — at exit.  Three places lose calls unless
handled:

- ``pytest-benchmark`` pauses tracing (``sys.settrace(None)``) around the
  function it times.  ``run`` calls each paper script's ``run_experiment()``
  directly, and the hook also re-arms itself when anything clears it.
- A ``multiprocessing`` child ends with ``os._exit``, so ``atexit`` never
  runs there: the hook registers a multiprocessing finalizer after each
  fork, which ``Process._bootstrap`` runs before the child exits.
- The harness's ``repro serve`` child gets ``PYTHONPATH`` set to the
  tree's ``src/`` alone, so the ``harness`` group writes the hook to
  ``src/sitecustomize.py`` for the run (and removes it after).  Run that
  group only in a scratch clone: it edits the tree it runs in.

Reach counts calls, not imports: module and class bodies run on import
and are not functions, so they never show.  Calls through ``exec``'d code
(dataclass-generated ``__init__``) are not ``src/repro`` code objects
either.  Under one process the paper scripts share ``common.py``'s model
cache, so a training another script already did is credited to the first.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
OUT_ENV, ENTRY_ENV = "REPRO_REACH_OUT", "REPRO_REACH_ENTRY"
PACKAGE_ENV = "REPRO_REACH_PACKAGE"  # the package whose calls count (src/repro)

# ---------------------------------------------------------------------------
# The hook (runs inside traced processes)
# ---------------------------------------------------------------------------

_seen: Set[object] = set()
_armed = False
_settrace = sys.settrace


def _trace(frame, event, arg):
    _seen.add(frame.f_code)
    return None


def _rearming_settrace(function) -> None:
    """``sys.settrace`` that treats ``None`` as "back to the reach hook", so
    a tool pausing tracing around a call (pytest-benchmark) loses nothing."""
    _settrace(function if function is not None else _trace)


def start() -> None:
    """Trace this process, its threads and its multiprocessing children."""
    global _armed
    if _armed:
        return
    import atexit
    _armed = True
    atexit.register(flush)
    threading.settrace(_trace)
    _settrace(_trace)
    sys.settrace = _rearming_settrace
    try:
        from multiprocessing import util
    except ImportError:  # pragma: no cover - stripped interpreters
        return
    util.register_after_fork(_Child, _after_fork)


class _Child:
    """The object :func:`multiprocessing.util.register_after_fork` keys on."""


def _after_fork(_) -> None:
    from multiprocessing import util
    _seen.clear()
    util.Finalize(None, flush, exitpriority=100)


def flush(entry: Optional[str] = None) -> None:
    """Write what this process called to ``OUT/<entry>/<pid>.txt``."""
    out = os.environ.get(OUT_ENV)
    if not out:
        return
    prefix = os.environ.get(PACKAGE_ENV, str(PACKAGE)) + os.sep
    lines = sorted({
        f"{code.co_filename[len(prefix):]}:{code.co_firstlineno}:{code.co_qualname}"
        for code in list(_seen) if code.co_filename.startswith(prefix)
    })
    folder = Path(out) / (entry or os.environ.get(ENTRY_ENV) or "unnamed")
    folder.mkdir(parents=True, exist_ok=True)
    (folder / f"{os.getpid()}.txt").write_text("\n".join(lines) + "\n")


def mark(entry: str, previous: str) -> None:
    """Close ``previous``'s record in this process and start ``entry``'s."""
    flush(previous)
    _seen.clear()
    os.environ[ENTRY_ENV] = entry


SITECUSTOMIZE = '''\
import importlib.util as _util
import sys as _sys
_spec = _util.spec_from_file_location("repro_reach_hook", {path!r})
_hook = _sys.modules["repro_reach_hook"] = _util.module_from_spec(_spec)
_spec.loader.exec_module(_hook)
_hook.start()
'''


def write_hook(directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    hook = directory / "sitecustomize.py"
    hook.write_text(SITECUSTOMIZE.format(path=str(Path(__file__).resolve())))
    return hook


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------

Definition = Tuple[str, int, str, int]  # path, first line, qualname, lines


def definitions(package: Path = PACKAGE) -> List[Definition]:
    """Every function and method under ``package`` (nested ones included),
    keyed the way a code object is: the first decorator's line, if any."""
    found: List[Definition] = []

    def visit(node, path: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                name = f"{scope}{child.name}"
                found.append((path, first, name, child.end_lineno - first + 1))
                visit(child, path, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{scope}{child.name}.")
            elif not isinstance(child, ast.Lambda):
                visit(child, path, scope)

    for file in sorted(package.rglob("*.py")):
        path = str(file.relative_to(package))
        visit(ast.parse(file.read_text(), str(file)), path, "")
    return found


def recorded(out: Path, entries: Optional[Iterable[str]] = None) -> Dict[str, Set[Tuple[str, int]]]:
    """``{entry: {(path, first line)}}`` from a ``run``'s output."""
    wanted = set(entries) if entries else None
    reach: Dict[str, Set[Tuple[str, int]]] = defaultdict(set)
    for file in sorted(out.glob("*/*.txt")):
        entry = file.parent.name
        if wanted is not None and entry not in wanted:
            continue
        for line in file.read_text().splitlines():
            if line:
                path, first, _ = line.split(":", 2)
                reach[entry].add((path, int(first)))
    return dict(reach)


def unreached(
    out: Path, entries: Optional[Iterable[str]] = None, package: Path = PACKAGE
) -> List[Definition]:
    reach = set().union(*recorded(out, entries).values())
    return [d for d in definitions(package) if (d[0], d[1]) not in reach]


def report(out: Path, entries: Optional[Sequence[str]] = None) -> str:
    reach = recorded(out, entries)
    every = definitions()
    lines = [f"{len(every)} functions and methods under src/repro", "",
             "entry point: functions reached"]
    for entry in sorted(reach):
        lines.append(f"  {entry}: {len(reach[entry])}")
    missing = unreached(out, entries)
    lines += ["", f"no recorded call in the union ({len(missing)} definitions, "
              f"{sum(d[3] for d in missing)} lines):"]
    for path, first, name, size in missing:
        lines.append(f"  {path}:{first} {name} ({size} lines)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The entry points
# ---------------------------------------------------------------------------

PAPER_GLOBS = ("bench_table*.py", "bench_fig*.py", "bench_ablation*.py")


def paper_scripts() -> List[Path]:
    return sorted(p for g in PAPER_GLOBS for p in (ROOT / "benchmarks").glob(g))


def _paper_in_process(names: Sequence[str]) -> None:
    """Call each paper script's ``run_experiment()`` in this (traced)
    process — outside pytest, so nothing pauses the hook."""
    import importlib
    hook = sys.modules["repro_reach_hook"]  # the instance sitecustomize started
    sys.path.insert(0, str(ROOT / "benchmarks"))
    previous = os.environ.get(ENTRY_ENV, "paper")
    for name in names:
        entry = f"paper.{name}"
        hook.mark(entry, previous)
        previous = entry
        started = time.perf_counter()
        importlib.import_module(name).run_experiment()
        print(f"[reach] {name}: {time.perf_counter() - started:.0f} s", flush=True)
    hook.mark("paper.done", previous)


class Runner:
    def __init__(self, out: Path, smoke: bool) -> None:
        self.out = out.resolve()
        self.hook_dir = self.out / "hook"
        write_hook(self.hook_dir)
        self.smoke = smoke

    def env(self, entry: str) -> Dict[str, str]:
        env = dict(os.environ)
        env.update({OUT_ENV: str(self.out), ENTRY_ENV: entry,
                    "PYTHONPATH": os.pathsep.join((str(self.hook_dir), str(SRC)))})
        if self.smoke:
            env["REPRO_BENCH_SMOKE"] = "1"
        return env

    def call(self, entry: str, argv: Sequence[str], cwd: Path = ROOT, **kwargs):
        started = time.perf_counter()
        done = subprocess.run(list(argv), cwd=cwd, env=self.env(entry), **kwargs)
        print(f"[reach] {entry}: exit {done.returncode}, "
              f"{time.perf_counter() - started:.0f} s", flush=True)
        return done

    def paper(self) -> None:
        names = [p.stem for p in paper_scripts()]
        self.call("paper", [sys.executable, __file__, "_paper", *names])

    def examples(self) -> None:
        for script in sorted((ROOT / "examples").glob("*.py")):
            with tempfile.TemporaryDirectory() as scratch:
                self.call(f"example.{script.stem}", [sys.executable, str(script)],
                          cwd=Path(scratch), stdout=subprocess.DEVNULL)

    def cli(self) -> None:
        with tempfile.TemporaryDirectory() as scratch:
            self._cli(Path(scratch))

    def _cli(self, tmp: Path) -> None:
        repro = [sys.executable, "-m", "repro.cli"]
        quiet = dict(cwd=tmp, stdout=subprocess.DEVNULL)
        self.call("cli.generate", [*repro, "generate", "wikitable", "--num-tables",
                                   "24", "--seed", "4", "--out", "corpus.jsonl"], **quiet)
        self.call("cli.train", [*repro, "train", "corpus.jsonl", "--out", "model",
                                "--epochs", "1", "--vocab-size", "600", "--hidden-dim",
                                "32", "--layers", "1", "--heads", "2"], **quiet)
        self.call("cli.info", [*repro, "info", "model"], **quiet)
        (tmp / "table.csv").write_text("name,city\nAda,London\nAlan,Wilmslow\n")
        self.call("cli.annotate", [*repro, "annotate", "model", "table.csv"], **quiet)
        self.call("cli.annotate", [*repro, "annotate", "model", "corpus.jsonl",
                                   "--out", "results.jsonl", "--cache-dir", "store"], **quiet)
        self.call("cli.evaluate", [*repro, "evaluate", "model", "corpus.jsonl"], **quiet)
        self.call("cli.serve", [*repro, "serve", "model", "corpus.jsonl",
                                "--out", "served.jsonl"], **quiet)
        self.call("cli.serve", [*repro, "serve", "model", "-"],
                  input=(tmp / "corpus.jsonl").read_bytes()[:4096].rsplit(b"\n", 1)[0]
                  + b"\n", **quiet)
        # 20 table records (the corpus file's first line is its header).
        lines = (tmp / "corpus.jsonl").read_bytes().splitlines(keepends=True)[1:21]
        for entry, flags in (("cli.serve", []), ("cli.pool", ["--workers", "2"])):
            self._listen(entry, [*repro, "serve", "model", "--listen", "127.0.0.1:0",
                                 "--cache-dir", f"store-{entry}", *flags], tmp, lines)
        self.call("cli.cache", [*repro, "cache", "compact", "store", "--dry-run"], **quiet)
        self.call("cli.cache", [*repro, "cache", "compact", "store"], **quiet)
        self.call("cli.check", [*repro, "check", str(SRC)], **quiet)

    def _listen(self, entry: str, argv: Sequence[str], tmp: Path, lines) -> None:
        """Serve ``lines`` over a socket, read ``repro stats``, shut down."""
        import json
        import socket
        started = time.perf_counter()
        server = subprocess.Popen(list(argv), cwd=tmp, env=self.env(entry),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        try:
            for raw in server.stderr:
                if raw.startswith(b"listening on "):
                    host, port = raw.split()[2].decode().rsplit(":", 1)
                    break
            else:
                raise RuntimeError(f"{entry}: the server never listened")
            address = (host, int(port))
            with socket.create_connection(address, timeout=120) as sock:
                reader = sock.makefile("rb")
                sock.sendall(b"".join(lines))
                answers = [reader.readline() for _ in lines]
            assert all(a.endswith(b"\n") for a in answers), answers
            subprocess.run([sys.executable, "-m", "repro.cli", "stats",
                            f"{host}:{port}"], cwd=tmp, env=self.env("cli.stats"),
                           stdout=subprocess.DEVNULL, check=True)
            with socket.create_connection(address, timeout=60) as sock:
                sock.sendall(json.dumps({"op": "shutdown"}).encode() + b"\n")
                sock.makefile("rb").readline()
            server.wait(timeout=120)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stderr.close()
        print(f"[reach] {entry}: {len(lines)} tables, exit {server.returncode}, "
              f"{time.perf_counter() - started:.0f} s", flush=True)

    def harness(self, workloads: Sequence[str]) -> None:
        hook = write_hook(SRC)  # the spawned server sees src/ alone
        try:
            for workload in workloads:
                self.call(f"harness.{workload}", [
                    sys.executable, "benchmarks/harness/run.py", "--workload", workload,
                ], stdout=subprocess.DEVNULL)
        finally:
            hook.unlink()


WORKLOADS = ("cold_narrow", "warm_repeat", "wide_planned", "bursty_dup")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="trace entry points into OUT")
    run.add_argument("out", type=Path)
    run.add_argument("--smoke", action="store_true",
                     help="set REPRO_BENCH_SMOKE=1 (the paper scripts' small scale)")
    run.add_argument("--group", action="append",
                     choices=("paper", "examples", "cli", "harness"),
                     help="repeatable; default: all four")
    run.add_argument("--workload", action="append", choices=WORKLOADS,
                     help="harness workloads (default: all four)")
    show = sub.add_parser("report", help="print what OUT's runs never called")
    show.add_argument("out", type=Path)
    show.add_argument("--entry", action="append",
                      help="only these entry points (repeatable)")
    paper = sub.add_parser("_paper")  # the traced child of the paper group
    paper.add_argument("names", nargs="+")
    args = parser.parse_args(argv)

    if args.command == "report":
        print(report(args.out, args.entry))
    elif args.command == "_paper":
        _paper_in_process(args.names)
    else:
        runner = Runner(args.out, args.smoke)
        for group in args.group or ("paper", "examples", "cli", "harness"):
            if group == "harness":
                runner.harness(args.workload or WORKLOADS)
            else:
                getattr(runner, group)()
        print(report(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
