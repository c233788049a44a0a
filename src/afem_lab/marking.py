"""Doerfler marking with minimal cardinality."""

import numpy as np

__all__ = ["doerfler_mark", "Converged"]


class Converged(Exception):
    """Signals a zero estimator: the run has converged, nothing to mark."""


def doerfler_mark(ind, theta):
    """Smallest element set M with theta * eta_total^2 <= eta(M)^2, as a
    sorted int64 array of element indices.

    Sorting the squared indicators in descending order and taking the
    shortest sufficient prefix realizes the minimal cardinality (C_mark = 1);
    ties break towards lower element indices for determinism.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    eta2 = np.asarray(ind.per_element, dtype=float)
    total2 = eta2.sum()
    if total2 <= 0.0:
        raise Converged
    # stable sort on negated values: equal indicators keep index order
    order = np.argsort(-eta2, kind="stable")
    csum = np.cumsum(eta2[order])
    k = int(np.searchsorted(csum, theta * total2 * (1.0 - 1e-12))) + 1
    return np.sort(order[:k]).astype(np.int64, copy=False)
