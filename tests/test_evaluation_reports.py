"""Tests for repro.evaluation.reports."""

import pytest

from repro.evaluation import render_table


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [("xxx", "1")], title="T")
        lines = text.splitlines()
        assert lines[0] == "=== T ==="
        assert lines[1].startswith("a  ")
        assert "xxx" in lines[3]

    def test_render_table_ragged_row_raises(self):
        with pytest.raises(ValueError, match="headers"):
            render_table(("a", "b"), [("only-one",)])
