"""The function-reach collector (``benchmarks/reach.py``).

It decides what is deleted as unreached, so each way it could miss a call
is pinned: a function called only in a ``multiprocessing`` child (which
exits through ``os._exit``, past ``atexit``) and one called inside
pytest-benchmark's tracer pause are recorded; a function nobody calls is
not.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _collector():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "benchmarks" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULE = '''
def in_child():
    return 1


def timed():
    return 2


def never_called():
    return 3


class Holder:
    def method(self):
        return 4
'''

DRIVER = '''
import multiprocessing

from pytest_benchmark.fixture import PauseInstrumentation

from pkg import mod

child = multiprocessing.get_context("fork").Process(target=mod.in_child)
child.start()
child.join()
assert child.exitcode == 0
with PauseInstrumentation():  # what benchmark.pedantic wraps its call in
    mod.timed()
mod.Holder().method()
'''


def test_children_and_paused_tracers_are_recorded(tmp_path):
    reach = _collector()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(MODULE))
    (tmp_path / "driver.py").write_text(textwrap.dedent(DRIVER))
    hook = reach.write_hook(tmp_path / "hook").parent
    out = tmp_path / "out"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(hook), str(tmp_path)]),
        **{reach.OUT_ENV: str(out), reach.ENTRY_ENV: "driver",
           reach.PACKAGE_ENV: str(package)},
    )
    subprocess.run([sys.executable, str(tmp_path / "driver.py")], env=env,
                   cwd=tmp_path, check=True, timeout=60)

    assert len(list((out / "driver").glob("*.txt"))) == 2  # parent and child
    missing = [name for _, _, name, _ in reach.unreached(out, package=package)]
    assert missing == ["never_called"]


def test_definitions_key_decorated_functions_by_their_first_decorator(tmp_path):
    reach = _collector()
    (tmp_path / "mod.py").write_text(textwrap.dedent('''
        import functools


        @functools.lru_cache()
        def cached():
            pass
    '''))
    ((path, first, name, lines),) = reach.definitions(tmp_path)
    assert (path, first, name, lines) == ("mod.py", 5, "cached", 3)
    assert first == cached_code_line(tmp_path / "mod.py")


def cached_code_line(path: Path) -> int:
    namespace: dict = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["cached"].__wrapped__.__code__.co_firstlineno
