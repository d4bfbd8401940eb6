"""Property tests for the assignment solver, drawn by hypothesis.

Entries are small integers, so every total is an exact sum and the
properties can be checked with ``==``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from tcovis.assignment import (BRUTE_FORCE_MAX_COLS, BRUTE_FORCE_MAX_ROWS,
                               brute_force_assign, hungarian)


def integer_matrices(max_rows, max_cols, low, high):
    """Float matrices of whole numbers in [low, high] with rows <= cols."""
    shapes = st.integers(1, max_rows).flatmap(
        lambda nr: st.tuples(st.just(nr), st.integers(nr, max_cols)))
    return shapes.flatmap(lambda shape: arrays(
        np.int64, shape, elements=st.integers(low, high))).map(
        lambda m: m.astype(np.float64))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(integer_matrices(BRUTE_FORCE_MAX_ROWS, BRUTE_FORCE_MAX_COLS, -2, 2))
def test_hungarian_equals_brute_force(matrix):
    solver, oracle = hungarian(matrix), brute_force_assign(matrix)
    assert solver.pairs == oracle.pairs
    assert solver.total_cost == oracle.total_cost


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(integer_matrices(16, 20, -3, 3).flatmap(lambda m: st.tuples(
    st.just(m), st.permutations(range(m.shape[0])), st.permutations(range(m.shape[1])))))
def test_total_cost_invariant_to_row_and_column_order(case):
    matrix, rows, cols = case
    assert hungarian(matrix[np.ix_(rows, cols)]).total_cost == hungarian(matrix).total_cost
