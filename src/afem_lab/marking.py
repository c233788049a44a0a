"""Doerfler marking with minimal cardinality."""

import numpy as np

__all__ = ["doerfler_mark"]


def doerfler_mark(ind, theta):
    """Smallest element set M with theta * eta_total^2 <= eta(M)^2, as a
    sorted int64 array of element indices.

    Sorting the squared indicators in descending order and taking the
    shortest sufficient prefix realizes the minimal cardinality (C_mark = 1);
    ties break towards lower element indices for determinism.  When every
    indicator is zero the empty set qualifies and is returned.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    eta2 = np.asarray(ind.per_element, dtype=float)
    if not np.all(np.isfinite(eta2)) or (eta2 < 0.0).any():
        raise ValueError("indicators must be finite and non-negative")
    total2 = eta2.sum()
    if total2 == 0.0:
        return np.empty(0, dtype=np.int64)
    # stable sort on negated values: equal indicators keep index order
    order = np.argsort(-eta2, kind="stable")
    csum = np.cumsum(eta2[order])
    k = int(np.searchsorted(csum, theta * total2 * (1.0 - 1e-12))) + 1
    return np.sort(order[:k]).astype(np.int64, copy=False)
