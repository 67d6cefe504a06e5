"""Tier-1 gate: ``repro check src/`` is clean on the real tree.

This is the local mirror of the CI ``check`` job — zero unsuppressed
findings over the actual codebase, and every suppression justified.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.contracts import (
    Project,
    SourceFile,
    collect_project,
    run_check,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def real_project() -> "Project":
    return collect_project([REPO_ROOT / "src"], base=REPO_ROOT)


def test_real_tree_has_zero_unsuppressed_findings():
    result = run_check(real_project())
    rendered = "\n".join(f.render() for f in result.findings)
    assert result.findings == [], f"repro check found:\n{rendered}"


def test_every_suppression_in_tree_carries_a_reason():
    for src in real_project():
        for sup in src.suppressions:
            assert sup.reason.strip(), (
                f"{src.rel}:{sup.line}: suppression for [{sup.rule_id}] "
                "has no reason"
            )


def test_unsuppressing_the_registration_imports_would_flag():
    """The tree's only suppressions are real: stripping them re-surfaces
    the findings, proving the gate inspects what it claims to."""
    runner_path = (
        REPO_ROOT / "src" / "repro" / "analysis" / "contracts" / "runner.py"
    )
    text = runner_path.read_text(encoding="utf-8")
    stripped = text.replace("# repro: allow[unused-import]", "# was:")
    files = [
        SourceFile.from_text(
            stripped, path=runner_path, rel="runner.py"
        )
    ]
    result = run_check(Project(files), rule_ids=["unused-import"])
    assert any(f.rule_id == "unused-import" for f in result.findings)
