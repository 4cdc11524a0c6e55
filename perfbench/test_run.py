"""Tests for the benchmark's statistics.

Run from the repository root: python3 -m pytest -q perfbench
"""

import run


def test_tail_is_one_fixed_percentile_by_nearest_rank():
    assert run.TAIL == 90
    assert run.tail(range(1, 21)) == 18
    assert run.tail(range(1, 36)) == 32
    assert run.tail([3.0, 1.0, 2.0]) == 3.0       # below 10 samples: the maximum
    assert run.tail([7.5]) == 7.5


def test_tail_ignores_input_order():
    values = [5, 1, 9, 3, 7, 2, 8, 4, 6, 10, 0]
    assert run.tail(values) == run.tail(sorted(values)) == 9
