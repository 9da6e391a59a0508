"""Tests for the shared sweep grid."""

import pytest

from repro.sweeps import open_loop, profiled, run_grid
from repro.workloads.arrivals import POISSON_QA_LOAD


def combo_cell(a, b):
    """Deterministic cell tagging its axis values."""
    return (a, b, a * 10 + b)


def failing_cell(a, b):
    raise RuntimeError(f"boom {a}{b}")


class TestRunGrid:
    def test_row_major_order_and_keys(self):
        results = run_grid(combo_cell, a=[1, 2], b=[3, 4])
        assert list(results) == [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert results[(2, 3)] == (2, 3, 23)

    def test_no_axes_rejected(self):
        with pytest.raises(ValueError):
            run_grid(combo_cell)

    def test_each_cell_runs_once_in_row_major_order(self):
        calls = []

        def cell(a, b):
            calls.append((a, b))
            return a + b

        run_grid(cell, a=[1, 2, 3], b=[4, 5])
        assert calls == [(1, 4), (1, 5), (2, 4), (2, 5), (3, 4), (3, 5)]

    def test_keys_follow_axis_declaration_order(self):
        # The key tuple follows the keyword order; the cell still gets each
        # value under its own name.
        assert run_grid(combo_cell, b=[3], a=[1]) == {(3, 1): (1, 3, 13)}

    def test_single_cell_grid(self):
        assert run_grid(combo_cell, a=[1], b=[2]) == {(1, 2): (1, 2, 12)}

    def test_empty_axis_gives_empty_grid(self):
        assert run_grid(combo_cell, a=[], b=[1, 2]) == {}

    def test_cell_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom 13"):
            run_grid(failing_cell, a=[1, 2], b=[3])

    def test_open_loop_override(self):
        load = open_loop(12.5)
        assert load.request_rate == 12.5
        assert load.mode == POISSON_QA_LOAD.mode


class TestProfiled:
    def test_returns_result_and_prints_stats(self, capsys):
        assert profiled(combo_cell, 1, b=2, top=5) == (1, 2, 12)
        assert "cumulative" in capsys.readouterr().out

    def test_exception_propagates_after_stats_print(self, capsys):
        with pytest.raises(RuntimeError):
            profiled(failing_cell, 1, 2)
        assert "cumulative" in capsys.readouterr().out
