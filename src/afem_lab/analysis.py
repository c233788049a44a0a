"""Sequence lemmas, rate fits, and empirical verification of run data.

The two sequence lemmas are implemented constructively:

* ``rlinear_constants_from_criterion`` reproduces the summability-criterion
  proof pipeline (Young inequality, the summed bound D_N, the sign change of
  M_n, and the resulting (C_lin, q_lin)) after validating its hypotheses on
  the given finite data.  The pipeline certifies the squared sequence; the
  returned constants are the square roots, which certify the sequence
  itself.
* ``tailsum_rlinear_equivalence`` converts between a measured tail-summing
  constant and an R-linear certificate in both directions, with the explicit
  constants C_lin = 1 + C1 and q_lin = (C1^-1 + 1)^-1 (exponent m handled by
  passing to the m-th power).

``rates_equals_complexity`` evaluates both suprema of the rates-vs-cost
equivalence on recorded run data, together with the constructive bound
C_cost(s) = (C1^(1/s) / (1 - q^(1/s)))^(2s) and the guaranteed positive rate
s0 = log(1/q) / log(C2).
"""

import math
from dataclasses import dataclass

import numpy as np

from .estimator import Q_RED, compute_indicators, estimator_total
from .fem import (Space, energy_error_exact, energy_norm, prolongation_matrix,
                  solve_galerkin_exact)
from .mesh import ancestor_map, uniform_refine

__all__ = ["RLinearFit", "rlinear_constants_from_criterion",
           "tailsum_rlinear_equivalence", "rates_equals_complexity",
           "fit_rate_loglog", "verify_axioms", "quasi_error_sequence",
           "CriterionError"]

RLINEAR_TOL = 1e-9  # rounding slack of a certified bound, in every ok()


class CriterionError(ValueError):
    """A hypothesis of the summability criterion fails on the given data."""


@dataclass
class RLinearFit:
    C_lin: float
    q_lin: float
    max_violation: float

    def ok(self):
        return self.max_violation <= 1.0 + RLINEAR_TOL


def _finite(x, what):
    """``x`` as a float array; raises ValueError on a NaN or inf entry: a
    NaN fails every comparison, so the checks below would let it pass."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


def max_rlinear_violation(a, C_lin, q_lin):
    """max over pairs m > l of a[m] / (C q^(m-l) a[l]); skips a[l] = 0.

    Uses the prefix-minimum of log a[l] - l log q, so the all-pairs check
    runs in linear time.
    """
    a = _finite(a, "sequence")
    if (a < 0).any():
        raise ValueError("sequence must be nonnegative")
    logq = math.log(q_lin)
    with np.errstate(divide="ignore"):
        b = np.where(a > 0, np.log(np.maximum(a, 1e-300)), np.inf) \
            - logq * np.arange(len(a))
    # positions with a == 0 must not serve as denominators
    prefmin = np.minimum.accumulate(np.where(a > 0, b, np.inf))
    # select before subtracting: inf - inf would warn
    pairs = (a[1:] > 0) & np.isfinite(prefmin[:-1])
    if not pairs.any():
        return 0.0
    worst = (b[1:][pairs] - prefmin[:-1][pairs]).max()
    return float(np.exp(worst) / C_lin)


def _criterion_constants(a, b, delta):
    """The least C1 and C2 of the boundedness and summability hypotheses at
    each index l < min(len(a), len(b)), as C[:, l], and the N that attains
    each, as N[:, l].  An index with a[l] = 0 gets 0 if the tail b[l:] is 0
    and inf otherwise."""
    n = min(len(a), len(b))
    b2 = np.concatenate([[0.0], np.cumsum(b ** 2)])
    C, N = np.zeros((2, n)), np.zeros((2, n), dtype=int)
    for ell in range(n):
        sums = (b2[ell + 1:] - b2[ell]) \
            / np.arange(1.0, len(b) - ell + 1) ** (1 - delta)
        N[:, ell] = np.argmax(b[ell:]), np.argmax(sums)
        b_max, sum_max = b[ell + N[0, ell]], float(sums[N[1, ell]])
        if a[ell] > 0:
            C[:, ell] = b_max / a[ell], sum_max / a[ell] ** 2
        elif b_max > 0:
            C[:, ell] = math.inf
    return C, N


def rlinear_constants_from_criterion(a, b, q, C1, C2, delta):
    """Constructive (C_lin, q_lin) from the tail-summability criterion.

    Validates the three hypotheses

        a[l+1] <= q a[l] + b[l],
        b[l+N] <= C1 a[l],
        sum_{l'=l}^{l+N} b[l']^2 <= C2 (N+1)^(1-delta) a[l]^2

    on the finite input (the last two by ``_criterion_constants``), raising
    CriterionError at the first failing l, and then runs the proof pipeline.
    """
    a = _finite(a, "sequence")
    b = _finite(b, "perturbation sequence")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if len(b) < len(a) - 1:
        raise ValueError("perturbation sequence too short")
    tol = 1e-12

    bound = q * a[:-1] + b[:max(len(a) - 1, 0)]
    bad = a[1:] > bound * (1 + tol) + 1e-300
    if bad.any():
        ell = bad.argmax()
        raise CriterionError(
            f"perturbed contraction fails at l={ell}: "
            f"{a[ell + 1]:.6e} > q*a+b = {bound[ell]:.6e}")
    least, attained = _criterion_constants(a, b, delta)
    for k, (name, given) in enumerate((("boundedness", C1),
                                       ("summability", C2))):
        bad = least[k] > given * (1 + tol)
        if bad.any():
            ell = bad.argmax()
            raise CriterionError(
                f"{name} fails at l={ell}, N={attained[k, ell]}: needs "
                f"C{k + 1} >= {least[k, ell]:.6e} > {given:.6e}")

    # proof pipeline: deterministic epsilon, then the sign change of M_n
    eps = 0.5
    while (1.0 + eps) * q ** 2 >= 1.0:
        eps *= 0.5
        if eps < 1e-30:
            raise CriterionError("cannot find epsilon with (1+eps) q^2 < 1")
    kappa = (1.0 + eps) * q ** 2
    coef = (1.0 + 1.0 / eps) * C2

    # first sign change of M_n = sum_j log(1 - 1/D_j) + log D_n, scanned in
    # geometrically growing chunks (n0 can be large for small delta)
    n0 = None
    partial = 0.0
    start, chunk = 1, 4096
    while start < 10 ** 8:
        idx = np.arange(start, start + chunk, dtype=float)
        D = 1.0 + (kappa + coef * idx ** (1.0 - delta)) / (1.0 - kappa)
        cums = partial + np.cumsum(np.log1p(-1.0 / D))
        M = cums + np.log(D)
        hit = np.nonzero(M < 0.0)[0]
        if len(hit):
            n0 = int(idx[hit[0]])
            q0 = math.exp(M[hit[0]])
            break
        partial = cums[-1]
        start += chunk
        chunk = min(2 * chunk, 2 ** 22)
    if n0 is None:
        raise CriterionError(
            "the constructive index n0 exceeds 1e8 for these constants "
            "(very small delta or q close to 1)")
    C3 = 1.0 + C1 / (1.0 - q)
    # the pipeline certifies the squared sequence with (C3^2/q0, q0^(1/n0));
    # take square roots for the sequence itself
    C_lin = C3 / math.sqrt(q0)
    q_lin = q0 ** (1.0 / (2.0 * n0))
    return RLinearFit(C_lin, q_lin, max_rlinear_violation(a, C_lin, q_lin))


@dataclass
class TailEquivalence:
    m: float
    C_tail: float          # measured tail-summing constant (direction i->ii)
    C_lin: float
    q_lin: float
    C_tail_back: float     # constant returned by direction ii->i
    violation_rlinear: float
    violation_tail: float

    def ok(self):
        return all(v <= 1.0 + RLINEAR_TOL
                   for v in (self.violation_rlinear, self.violation_tail))


def tailsum_rlinear_equivalence(a, m=1.0):
    """Both directions of the tail-summability / R-linear equivalence.

    (i)->(ii): measure C_tail = max_l sum_{l'>l} a^m / a[l]^m over indices
    with a[l] > 0, return C_lin = (1 + C_tail)^(1/m) and
    q_lin = (C_tail^-1 + 1)^(-1/m), verified on the data.
    (ii)->(i): from that certificate, C_back = C^m q^m / (1 - q^m), verified
    against the tail sums.
    """
    if m <= 0:
        raise ValueError("exponent must be positive")
    a = _finite(a, "sequence")
    am = a ** m
    tails = np.concatenate([np.cumsum(am[::-1])[::-1][1:], [0.0]])
    pos = am > 0
    if not pos.any():
        return TailEquivalence(m, 0.0, 1.0, 0.5, 0.0, 0.0, 0.0)
    C_tail = float((tails[pos] / am[pos]).max())
    if C_tail == 0.0:
        # finite support: any certificate works past the support
        C_lin, q_lin = 1.0, 0.5
    else:
        C_lin = (1.0 + C_tail) ** (1.0 / m)
        q_lin = (1.0 / C_tail + 1.0) ** (-1.0 / m)
    viol_r = max_rlinear_violation(a, C_lin, q_lin)
    qm = q_lin ** m
    C_back = C_lin ** m * qm / (1.0 - qm)
    viol_t = 0.0
    if C_back > 0:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = tails[pos] / (C_back * am[pos])
        viol_t = float(ratios.max()) if len(ratios) else 0.0
    return TailEquivalence(m, C_tail, C_lin, q_lin, C_back, viol_r, viol_t)


# ---------------------------------------------------------------------------
# rates = complexity


def rates_complexity_bounds(a, t, s):
    """Suprema of t^s a and (cumsum t)^s a plus the constructive bound.

    Returns a dict with M_dofs, M_cost, their ratio, the constructive
    C_cost(s) from the fitted certificate, the fitted (C_lin, q_lin), and
    the guaranteed rate s0 from the growth constant C2 = max t[r+1]/t[r].
    """
    if s <= 0:
        raise ValueError("rate s must be positive")
    a, t = _finite(a, "sequence"), _finite(t, "element counts")
    if len(a) != len(t) or len(a) == 0:
        raise ValueError("sequences must be nonempty and aligned")
    M_dofs = float((t ** s * a).max())
    cost = np.cumsum(t)
    M_cost = float((cost ** s * a).max())
    eq = tailsum_rlinear_equivalence(a, 1.0)
    C_cost = (eq.C_lin ** (1.0 / s) / (1.0 - eq.q_lin ** (1.0 / s))) ** (2 * s)
    growth = t[1:] / t[:-1] if len(t) > 1 else np.array([1.0])
    C2 = float(growth.max()) if len(growth) else 1.0
    if C2 <= 1.0:
        s0 = math.inf
    else:
        s0 = math.log(1.0 / eq.q_lin) / math.log(C2)
    ratio = M_cost / M_dofs if M_dofs > 0 else math.inf
    return dict(M_dofs=M_dofs, M_cost=M_cost, ratio=ratio, C_cost=C_cost,
                fit=RLinearFit(eq.C_lin, eq.q_lin, eq.violation_rlinear),
                s0=s0, C2=C2)


def quasi_error_sequence(history):
    """Estimator-based quasi-error surrogate per record.

    H ~ (q/(1-q)) * increment + eta, the geometric-series bound on the
    unavailable algebraic error; exact solver steps contribute eta alone.
    """
    q = history.meta.get("q_alg", 0.0)
    fac = q / (1.0 - q) if q < 1.0 else 0.0
    inc = history.column("increment")
    inc = np.where(np.isnan(inc), 0.0, inc)
    return fac * inc + history.column("eta")


def rates_equals_complexity(history, s):
    """rates_complexity_bounds on a run's surrogate quasi-error sequence."""
    a = quasi_error_sequence(history)
    t = history.column("n_elem").astype(float)
    return rates_complexity_bounds(a, t, s)


def fit_rate_loglog(x, y):
    """Least-squares slope of log y vs log x over the trailing half."""
    x, y = _finite(x, "abscissae"), _finite(y, "values")
    if len(x) != len(y) or len(x) < 3:
        raise ValueError("need at least 3 points")
    if (x <= 0).any() or (y <= 0).any():
        raise ValueError("log-log fit needs positive data")
    k = max(3, int(math.ceil(0.5 * len(x))))
    return float(np.polyfit(np.log(x[-k:]), np.log(y[-k:]), 1)[0])


# ---------------------------------------------------------------------------
# axiom verification on stored run artifacts


def verify_axioms(history, prob, rng=None):
    """Empirical axiom report for a run executed with store_artifacts=True.

    A2 (reduction with q_red = 2^(-1/4)) is a hard pass/fail; stability,
    reliability, and quasi-monotonicity produce recorded constants.  The
    quasi-orthogonality partial sums are compared against a reference
    solution on the once-uniformly-refined finest mesh (two extra bisection
    generations).  Their bound ``a4_bound`` and verdict ``a4_pass`` exist
    for symmetric and nonlinear problems only: a linear nonsymmetric problem
    gets ``a4_const`` with ``a4_bound`` None and no ``a4_pass``, so the
    verify report's ``overall`` gives quasi-orthogonality no verdict there.
    """
    artifacts = history.meta.get("artifacts")
    if not artifacts:
        raise ValueError("run was not executed with store_artifacts=True")
    rng = np.random.default_rng(0) if rng is None else rng
    report = {}

    spaces = [art["space"] for art in artifacts]
    stars = [solve_galerkin_exact(sp, prob) for sp in spaces]

    # A1 stability: same-space pairs on every level
    a1 = 0.0
    for sp in spaces:
        for _ in range(3):
            v = np.zeros(sp.n_dofs)
            w = np.zeros(sp.n_dofs)
            v[sp.free] = rng.standard_normal(sp.n_free)
            w[sp.free] = rng.standard_normal(sp.n_free)
            iv = compute_indicators(sp, v, prob)
            iw = compute_indicators(sp, w, prob)
            d = energy_norm(sp, prob, v - w)
            if d > 0:
                a1 = max(a1, abs(iv.total - iw.total) / d)
    report["a1_const"] = a1

    # A2 reduction along every refinement step of the run
    a2_worst = 0.0
    for coarse_art, fine_art in zip(artifacts, artifacts[1:]):
        coarse, fine = coarse_art["space"], fine_art["space"]
        vf = prolongation_matrix(coarse, fine) @ coarse_art["final"]
        ind_c = coarse_art["ind"]
        ind_f = compute_indicators(fine, vf, prob)
        parents = ancestor_map(fine.mesh, coarse.mesh)
        split = np.bincount(parents, minlength=coarse.mesh.n_elements) > 1
        num = estimator_total(ind_f, np.flatnonzero(split[parents]))
        den = estimator_total(ind_c, np.flatnonzero(split))
        if den > 0:
            a2_worst = max(a2_worst, num / den)
    report["a2_worst"] = a2_worst
    report["a2_pass"] = a2_worst <= Q_RED * (1 + 1e-6)

    # A3 reliability ratio (needs the exact solution) and QM
    # quasi-monotonicity, both of the exact-solution estimators
    etas = [compute_indicators(sp, u, prob).total
            for sp, u in zip(spaces, stars)]
    if prob.exact_solution is not None:
        a3 = 0.0
        for sp, ustar, eta in zip(spaces, stars, etas):
            if eta > 0:
                a3 = max(a3, energy_error_exact(sp, prob, ustar) / eta)
        report["a3_const"] = a3
    qm = 0.0
    for e0, e1 in zip(etas, etas[1:]):
        if e0 > 0:
            qm = max(qm, e1 / e0)
    report["qm_const"] = qm

    # A4 quasi-orthogonality with a two-generations-finer reference
    ref_mesh = uniform_refine(spaces[-1].mesh)
    ref_space = Space(ref_mesh, spaces[-1].degree)
    u_ref = solve_galerkin_exact(ref_space, prob)
    fine = [prolongation_matrix(sp, ref_space) @ u
            for sp, u in zip(spaces, stars)]
    increments = [energy_norm(ref_space, prob, u1 - u0) ** 2
                  for u0, u1 in zip(fine, fine[1:])]
    a4 = 0.0
    for ell in range(len(increments)):
        denom = energy_norm(ref_space, prob, u_ref - fine[ell]) ** 2
        partial = np.cumsum(increments[ell:])
        if denom > 0:
            a4 = max(a4, float(partial.max()) / denom)
    report["a4_const"] = a4
    if prob.is_nonlinear:
        a4_margin = 1.1 * prob.L / prob.alpha
    else:
        a4_margin = 1.05 if prob.is_symmetric else None
    report["a4_bound"] = a4_margin
    if a4_margin is not None:
        report["a4_pass"] = a4 <= a4_margin

    # Pythagoras identity on every nested level pair (symmetric case only)
    if prob.is_symmetric:
        worst = 0.0
        for (sp0, u0), (sp1, u1) in zip(zip(spaces, stars),
                                        zip(spaces[1:], stars[1:])):
            P = prolongation_matrix(sp0, sp1)
            u0f = P @ u0
            for _ in range(3):
                z = np.zeros(sp0.n_dofs)
                z[sp0.free] = rng.standard_normal(sp0.n_free)
                v = P @ (u0 + z)
                lhs = energy_norm(sp1, prob, u1 - v) ** 2
                t1 = energy_norm(sp1, prob, u1 - u0f) ** 2
                t2 = energy_norm(sp1, prob, u0f - v) ** 2
                if lhs > 0:
                    worst = max(worst, abs(lhs - t1 - t2) / lhs)
        report["pythagoras_worst"] = worst
        report["pythagoras_pass"] = worst <= 1e-9
    return report


def random_criterion_instance(rng):
    """Random (a, b, q, C1, C2, delta) satisfying the criterion hypotheses.

    The constants are the largest that ``_criterion_constants`` measures
    on the generated sequences, so the hypotheses hold by construction.  q
    and delta stay in a regime where the constructive index n0 is
    computable.
    """
    q = rng.uniform(0.2, 0.8)
    delta = rng.uniform(0.5, 1.0)
    n = int(rng.integers(30, 120))
    b = rng.uniform(0.0, 0.5, size=n) * q ** np.arange(n)
    a = np.empty(n)
    a[0] = rng.uniform(0.5, 2.0)
    for ell in range(n - 1):
        a[ell + 1] = q * a[ell] + b[ell] * rng.uniform(0.0, 1.0)
    C1, C2 = _criterion_constants(a, b, delta)[0].max(axis=1)
    return a, b, q, float(C1) + 1e-12, max(float(C2), 1e-12), delta
