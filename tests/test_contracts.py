"""Golden fixture tests for the ``repro check`` contract rules.

Each rule gets a triad: a minimal violating snippet that must flag, a
minimal clean snippet that must pass, and a suppressed snippet proving
the suppression works *and* that the reason string is mandatory.
"""

from __future__ import annotations

import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.analysis.contracts import (
    Project,
    SourceFile,
    all_rules,
    collect_project,
    run_check,
)
from repro.analysis.contracts.runner import main as check_main


def run_snippets(tmp_path, files, rules=None):
    """Write ``{relpath: source}`` under ``tmp_path`` and check it."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(dedent(text), encoding="utf-8")
    project = collect_project([tmp_path], base=tmp_path)
    return run_check(project, rule_ids=rules)


def rule_ids(result):
    return [f.rule_id for f in result.findings]


# ----------------------------------------------------------------------
# async-blocking
# ----------------------------------------------------------------------


class TestAsyncBlockingRule:
    def test_sleep_in_coroutine_flags(self, tmp_path):
        source = """
    import time

    async def handler():
        time.sleep(1.0)
"""
        result = run_snippets(tmp_path, {"s.py": source}, rules=["async-blocking"])
        assert rule_ids(result) == ["async-blocking"]

    def test_cache_write_in_coroutine_flags(self, tmp_path):
        source = """
    async def handler(self, key, value):
        self.result_cache.put(key, value)
"""
        result = run_snippets(tmp_path, {"s.py": source}, rules=["async-blocking"])
        assert rule_ids(result) == ["async-blocking"]
        assert "executor" in result.findings[0].message

    def test_executor_pattern_passes(self, tmp_path):
        # Blocking work wrapped in a nested sync def handed to an
        # executor is the sanctioned pattern.
        source = """
    import asyncio
    import time

    async def handler(loop):
        def work():
            time.sleep(0.1)
            return open("/tmp/x").read()
        return await loop.run_in_executor(None, work)
"""
        result = run_snippets(tmp_path, {"s.py": source}, rules=["async-blocking"])
        assert result.findings == []

    def test_sync_function_not_flagged(self, tmp_path):
        source = """
    import time

    def handler():
        time.sleep(1.0)
"""
        result = run_snippets(tmp_path, {"s.py": source}, rules=["async-blocking"])
        assert result.findings == []

    def test_suppressed_with_reason(self, tmp_path):
        source = """
    import time

    async def handler():
        time.sleep(0.0)  # repro: allow[async-blocking] -- zero-delay yield shim in fixture
"""
        result = run_snippets(tmp_path, {"s.py": source}, rules=["async-blocking"])
        assert result.findings == []
        assert len(result.suppressed) == 1


# ----------------------------------------------------------------------
# lock-discipline
# ----------------------------------------------------------------------

LOCKED_CLASS = """
    import threading

    class Registry:
        def __init__(self):
            self._lock = threading.Lock()
            self._value = 0

        def set(self, value):
            with self._lock:
                self._value = value
"""


class TestLockDisciplineRule:
    def test_unlocked_read_flags(self, tmp_path):
        source = LOCKED_CLASS + """
        def get(self):
            return self._value
"""
        result = run_snippets(
            tmp_path, {"registry.py": source}, rules=["lock-discipline"]
        )
        assert rule_ids(result) == ["lock-discipline"]
        assert "_value" in result.findings[0].message

    def test_locked_read_passes(self, tmp_path):
        source = LOCKED_CLASS + """
        def get(self):
            with self._lock:
                return self._value
"""
        result = run_snippets(
            tmp_path, {"registry.py": source}, rules=["lock-discipline"]
        )
        assert result.findings == []

    def test_helper_called_under_lock_passes(self, tmp_path):
        # Call-graph propagation: a private helper whose every internal
        # call site holds the lock is itself lock-held.
        source = LOCKED_CLASS + """
        def bump(self):
            with self._lock:
                self._step()

        def _step(self):
            self._value += 1
"""
        result = run_snippets(
            tmp_path, {"registry.py": source}, rules=["lock-discipline"]
        )
        assert result.findings == []

    def test_helper_also_called_unlocked_flags(self, tmp_path):
        source = LOCKED_CLASS + """
        def bump(self):
            with self._lock:
                self._step()

        def sneaky(self):
            self._step()

        def _step(self):
            self._value += 1
"""
        result = run_snippets(
            tmp_path, {"registry.py": source}, rules=["lock-discipline"]
        )
        assert rule_ids(result) == ["lock-discipline"]

    def test_out_of_scope_file_ignored(self, tmp_path):
        source = LOCKED_CLASS + """
        def get(self):
            return self._value
"""
        result = run_snippets(
            tmp_path, {"other.py": source}, rules=["lock-discipline"]
        )
        assert result.findings == []

    def test_suppressed_with_reason(self, tmp_path):
        source = LOCKED_CLASS + """
        def get(self):
            return self._value  # repro: allow[lock-discipline] -- benign torn read in fixture
"""
        result = run_snippets(
            tmp_path, {"registry.py": source}, rules=["lock-discipline"]
        )
        assert result.findings == []
        assert len(result.suppressed) == 1


# ----------------------------------------------------------------------
# determinism-hygiene
# ----------------------------------------------------------------------


class TestDeterminismRule:
    def test_set_iteration_flags(self, tmp_path):
        source = """
    def build():
        out = []
        for item in {"b", "a"}:
            out.append(item)
        return out
"""
        result = run_snippets(
            tmp_path, {"serving/mod.py": source}, rules=["determinism-hygiene"]
        )
        assert rule_ids(result) == ["determinism-hygiene"]

    def test_sorted_set_passes(self, tmp_path):
        source = """
    def build():
        out = []
        for item in sorted({"b", "a"}):
            out.append(item)
        return out
"""
        result = run_snippets(
            tmp_path, {"serving/mod.py": source}, rules=["determinism-hygiene"]
        )
        assert result.findings == []

    def test_import_time_rng_flags(self, tmp_path):
        source = """
    import numpy as np

    NOISE = np.random.rand(4)
"""
        result = run_snippets(
            tmp_path, {"nn/mod.py": source}, rules=["determinism-hygiene"]
        )
        assert rule_ids(result) == ["determinism-hygiene"]

    def test_rng_inside_function_passes(self, tmp_path):
        source = """
    import numpy as np

    def noise():
        return np.random.rand(4)
"""
        result = run_snippets(
            tmp_path, {"nn/mod.py": source}, rules=["determinism-hygiene"]
        )
        assert result.findings == []

    def test_wall_clock_in_cache_key_flags(self, tmp_path):
        source = """
    import time

    def cache_key(table):
        return f"{table}-{time.time()}"
"""
        result = run_snippets(
            tmp_path, {"serving/mod.py": source}, rules=["determinism-hygiene"]
        )
        assert rule_ids(result) == ["determinism-hygiene"]

    def test_out_of_scope_file_ignored(self, tmp_path):
        source = """
    def build():
        return [item for item in {"b", "a"}]
"""
        result = run_snippets(
            tmp_path, {"tools/mod.py": source}, rules=["determinism-hygiene"]
        )
        assert result.findings == []

    def test_suppressed_with_reason(self, tmp_path):
        source = """
    def build():
        out = []
        # repro: allow[determinism-hygiene] -- order proven irrelevant in fixture
        for item in {"b", "a"}:
            out.append(item)
        return out
"""
        result = run_snippets(
            tmp_path, {"serving/mod.py": source}, rules=["determinism-hygiene"]
        )
        assert result.findings == []
        assert len(result.suppressed) == 1


# ----------------------------------------------------------------------
# unused-import
# ----------------------------------------------------------------------


class TestUnusedImportRule:
    def test_unused_import_flags(self, tmp_path):
        source = """
    import os

    def f():
        return 1
"""
        result = run_snippets(tmp_path, {"m.py": source}, rules=["unused-import"])
        assert rule_ids(result) == ["unused-import"]

    def test_string_annotation_counts_as_use(self, tmp_path):
        # `from __future__ import annotations` code quotes its hints;
        # the rule must read them.
        source = """
    from __future__ import annotations

    from concurrent.futures import Future

    def submit() -> "Future[int]":
        raise NotImplementedError
"""
        result = run_snippets(tmp_path, {"m.py": source}, rules=["unused-import"])
        assert result.findings == []

    def test_dunder_all_counts_as_use(self, tmp_path):
        source = """
    from os.path import join

    __all__ = ["join"]
"""
        result = run_snippets(tmp_path, {"m.py": source}, rules=["unused-import"])
        assert result.findings == []

    def test_init_py_exempt(self, tmp_path):
        source = """
    from .mod import thing
"""
        result = run_snippets(
            tmp_path,
            {"pkg/__init__.py": source, "pkg/mod.py": "    thing = 1\n"},
            rules=["unused-import"],
        )
        assert result.findings == []

    def test_dead_shim_flags(self, tmp_path):
        shim = '''
    """Legacy re-export."""

    from os.path import join

    __all__ = ["join"]
'''
        result = run_snippets(
            tmp_path,
            {"shim.py": shim, "user.py": "    import os\n\n    print(os.sep)\n"},
            rules=["unused-import"],
        )
        assert any("re-export shim" in f.message for f in result.findings)

    def test_imported_shim_passes(self, tmp_path):
        shim = '''
    """Legacy re-export."""

    from os.path import join

    __all__ = ["join"]
'''
        result = run_snippets(
            tmp_path,
            {"shim.py": shim, "user.py": "    from shim import join\n\n    print(join)\n"},
            rules=["unused-import"],
        )
        assert not any("re-export shim" in f.message for f in result.findings)

    def test_suppressed_with_reason(self, tmp_path):
        source = """
    import os  # repro: allow[unused-import] -- re-exported for doctest namespaces
"""
        result = run_snippets(tmp_path, {"m.py": source}, rules=["unused-import"])
        assert result.findings == []
        assert len(result.suppressed) == 1


# ----------------------------------------------------------------------
# Framework mechanics
# ----------------------------------------------------------------------


class TestFramework:
    def test_every_rule_registered(self):
        assert [r.rule_id for r in all_rules()] == [
            "async-blocking",
            "lock-discipline",
            "determinism-hygiene",
            "unused-import",
        ]

    def test_suppression_requires_reason(self, tmp_path):
        source = """
    import os  # repro: allow[unused-import]
"""
        result = run_snippets(tmp_path, {"m.py": source}, rules=["unused-import"])
        # Reason-less marker: the original finding survives AND the
        # malformed suppression is itself a finding.
        assert sorted(rule_ids(result)) == ["suppression-syntax", "unused-import"]

    def test_unknown_suppression_rule_id_flags(self, tmp_path):
        source = """
    import os  # repro: allow[no-such-rule] -- typo'd rule id

    print(os.sep)
"""
        result = run_snippets(tmp_path, {"m.py": source})
        assert any(
            f.rule_id == "suppression-syntax" and "unknown rule" in f.message
            for f in result.findings
        )

    def test_comment_line_suppression_covers_next_line(self, tmp_path):
        source = """
    # repro: allow[unused-import] -- kept for interface parity in fixture
    import os
"""
        result = run_snippets(tmp_path, {"m.py": source}, rules=["unused-import"])
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_parse_error_is_a_finding(self, tmp_path):
        result = run_snippets(tmp_path, {"broken.py": "    def broken(:\n"})
        assert any(f.rule_id == "parse-error" for f in result.findings)

    def test_findings_carry_path_and_line(self, tmp_path):
        result = run_snippets(
            tmp_path, {"m.py": "    import os\n"}, rules=["unused-import"]
        )
        finding = result.findings[0]
        assert finding.path == "m.py"
        assert finding.line == 1
        assert "m.py:1:" in finding.render()

    def test_json_output_shape(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("import os\n", encoding="utf-8")
        code = check_main(["--format", "json", str(tmp_path / "m.py")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["version"] == 1
        assert payload["findings"][0]["rule"] == "unused-import"
        assert "unused-import" in payload["rules"]

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("import os\n\nprint(os.sep)\n", encoding="utf-8")
        assert check_main([str(clean)]) == 0
        assert check_main(["--rule", "no-such-rule", str(clean)]) == 2
        capsys.readouterr()

    def test_repro_cli_wires_check(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        clean = tmp_path / "clean.py"
        clean.write_text("import os\n\nprint(os.sep)\n", encoding="utf-8")
        assert cli_main(["check", str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import os\n", encoding="utf-8")
        assert cli_main(["check", str(dirty)]) == 1
        capsys.readouterr()
