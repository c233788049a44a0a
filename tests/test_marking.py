from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from afem_lab.estimator import Indicators
from afem_lab.marking import doerfler_mark


def brute_force_min_cardinality(eta2, theta):
    """Oracle: exhaustive search over all subsets (exact dyadic inputs)."""
    total = sum(eta2)
    for size in range(len(eta2) + 1):
        for sub in combinations(range(len(eta2)), size):
            if sum(eta2[i] for i in sub) >= theta * total:
                return size
    raise AssertionError("unreachable")


def test_example_4321():
    marked = doerfler_mark(Indicators([4.0, 3.0, 2.0, 1.0]), 0.5)
    assert np.array_equal(marked, [0, 1])
    assert brute_force_min_cardinality([4.0, 3.0, 2.0, 1.0], 0.5) == 2


def test_zero_slack_example():
    # a subset meeting the threshold exactly qualifies
    assert np.array_equal(doerfler_mark(Indicators([2.0, 1.0, 1.0]), 0.5),
                          [0])


def test_theta_one_marks_all_nonzero():
    marked = doerfler_mark(Indicators([1.0, 0.0, 2.0, 0.0]), 1.0)
    assert np.array_equal(marked, [0, 2])


def test_tie_breaks_to_lower_index():
    assert np.array_equal(doerfler_mark(Indicators([5.0, 5.0]), 0.5), [0])


def test_zero_total_signals_converged():
    # with eta = 0 the empty set satisfies the Doerfler property
    marked = doerfler_mark(Indicators([0.0, 0.0]), 0.5)
    assert marked.dtype == np.int64 and marked.size == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5.0])
def test_rejects_nonfinite_or_negative_indicators(bad):
    with pytest.raises(ValueError):
        doerfler_mark(Indicators([1.0, bad, 2.0]), 0.5)


def test_invalid_theta():
    for theta in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            doerfler_mark(Indicators([1.0]), theta)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 256), min_size=1, max_size=12),
       st.integers(1, 64))
def test_minimality_against_brute_force(raw, theta64):
    # dyadic values keep every subset sum exact, so oracle and implementation
    # share one arithmetic
    eta2 = [v / 64.0 for v in raw]
    theta = theta64 / 64.0
    total = sum(eta2)
    marked = doerfler_mark(Indicators(eta2), theta)
    assert marked.dtype == np.int64 and np.all(np.diff(marked) > 0)
    assert sum(eta2[i] for i in marked) >= theta * total * (1 - 1e-12)
    assert len(marked) == brute_force_min_cardinality(eta2, theta)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.001, 100.0), min_size=1, max_size=30),
       st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_monotonicity_in_theta(eta2, t1, t2):
    lo, hi = min(t1, t2), max(t1, t2)
    m_lo = doerfler_mark(Indicators(eta2), lo)
    m_hi = doerfler_mark(Indicators(eta2), hi)
    assert len(m_lo) <= len(m_hi)
