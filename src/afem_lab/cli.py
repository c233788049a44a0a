"""Command-line front end: run experiments, parameter sweeps, verification.

Subcommands
-----------
run     one adaptive run; writes the History CSV and a JSON summary
sweep   Cartesian theta x lambda sweep; writes the weighted-cost table CSV
verify  axiom suite, sequence-lemma property suites, and contraction checks;
        writes a JSON report

The run summary and the verify report are each one JSON object, values at
full precision and keys sorted, printed to stdout and also written to the
path of ``run --summary`` or ``verify --out``.  A value that is not a
finite number (an unbounded q_sym) is written as null, so the text is
valid JSON.

Configuration precedence: command-line flags > config file (simple
``key=value`` lines, keys named like the long flags) > built-in defaults.
A config line that is not ``key=value`` or names no flag of the subcommand
is a usage error.
Flag and config values are range-checked while parsing, before any run;
float values must be finite.
Exit codes: 0 success, 1 run failure, 2 usage error.
"""

import argparse
import json
import math
import resource
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed

import numpy as np

from . import analysis, driver
from .iteration import ZarantonelloConfig
from .problems import PROBLEM_NAMES, by_name

SOLVER_FLAGS = {"local-mg": "local_multigrid", "direct": "direct"}
# getrusage's ru_maxrss is in bytes on macOS and in KiB on Linux
_MAXRSS_PER_MB = 2 ** 20 if sys.platform == "darwin" else 2 ** 10


def _typed(kind, ok, what):
    """argparse ``type=``: parse with ``kind`` and require ``ok(value)``."""
    def parse(text):
        try:
            if ok(value := kind(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected {kind.__name__} {what}, got {text!r}")
    return parse


_theta = _typed(float, lambda v: 0 < v <= 1, "in (0, 1]")
_positive = _typed(float, lambda v: 0 < v < math.inf, "finite and > 0")
_nonnegative = _typed(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_count = _typed(int, lambda v: v >= 1, ">= 1")
_count0 = _typed(int, lambda v: v >= 0, ">= 0")


def _listed(item):
    """argparse ``type=``: a comma-separated list of distinct ``item``
    values."""
    def parse(text):
        values = [item(t) for t in text.split(",")]
        if len(set(values)) < len(values):
            raise argparse.ArgumentTypeError(f"repeated value in {text!r}")
        return values
    return parse


def _add_common(p):
    p.add_argument("--problem", choices=sorted(PROBLEM_NAMES))
    p.add_argument("--algo", choices=["exact", "uniform", "single", "nested"],
                   default="single")
    p.add_argument("--p", type=_count, default=1, help="polynomial degree")
    p.add_argument("--solver", choices=sorted(SOLVER_FLAGS), default="local-mg")
    p.add_argument("--max-dofs", type=_positive, default=5e4)
    p.add_argument("--eta-tol", type=_positive, default=None)
    p.add_argument("--delta", type=_positive, default=None,
                   help="Zarantonello damping (nested; default 0.5, or 1/L "
                        "for the nonlinear problem)")
    p.add_argument("--lambda-sym", type=_positive, default=0.7)
    p.add_argument("--lambda-alg", type=_nonnegative, default=0.7)
    p.add_argument("--config", type=str, default=None,
                   help="key=value file; flags override it")


def build_parser():
    ap = argparse.ArgumentParser(prog="afem-lab",
                                 description="adaptive FEM experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="one adaptive run -> History CSV")
    _add_common(run)
    run.add_argument("--theta", type=_theta, default=0.5)
    run.add_argument("--lambda", dest="lam", type=_positive, default=0.1,
                     help="solver-stopping parameter (single)")
    run.add_argument("--out", type=str, default=None, help="CSV path")
    run.add_argument("--summary", type=str, default=None,
                     help="also write the JSON summary to this path")

    sw = sub.add_parser("sweep", help="theta x lambda sweep -> cost table")
    _add_common(sw)
    sw.add_argument("--thetas", type=_listed(_theta), default="0.3,0.5")
    sw.add_argument("--lambdas", type=_listed(_positive), default="0.1,0.7",
                    help="lambda, and lambda_sym = lambda_alg (nested)")
    sw.add_argument("--eta-stop-factor", type=_positive, default=5e-2)
    sw.add_argument("--jobs", type=_count, default=1)
    sw.add_argument("--out", type=str, default=None)

    ver = sub.add_parser("verify", help="axioms + sequence-lemma suites")
    ver.add_argument("--problem", choices=sorted(PROBLEM_NAMES),
                     default="kellogg")
    ver.add_argument("--max-dofs", type=_positive, default=2000)
    ver.add_argument("--instances", type=_count0, default=100,
                     help="random sequence-lemma instances")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", type=str, default=None,
                     help="also write the JSON report to this path")
    ver.add_argument("--config", type=str, default=None)
    return ap


def _parse(ap, argv):
    """Parse argv; the lines of a ``--config`` file become flags placed ahead
    of the command line's own, so argparse checks them and flags still win."""
    args = ap.parse_args(argv)
    sub = ap._subparsers._group_actions[0].choices[args.command]
    if args.config is not None:
        flags = {opt for a in sub._actions for opt in a.option_strings} \
            - {"-h", "--help", "--config"}
        try:
            with open(args.config) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            sub.error(f"cannot read config file: {exc}")
        tokens = []
        for n, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            if not sep or flag not in flags:
                sub.error(f"{args.config}:{n}: expected key=value with a "
                          f"'{args.command}' flag as key, got {line!r}")
            tokens += [flag, val.strip()]
        at = argv.index(args.command) + 1
        args = ap.parse_args(argv[:at] + tokens + argv[at:])
    # verify has a default problem
    if getattr(args, "problem", "") is None:
        sub.error("--problem is required")
    return args


def _zarantonello(prob, delta=None, lambda_sym=0.7, lambda_alg=0.7):
    """Nested-loop parameters; delta defaults to 1/L for the nonlinear
    problem and 0.5 otherwise."""
    if delta is None:
        delta = 1.0 / prob.L if prob.is_nonlinear else 0.5
    return ZarantonelloConfig(delta=delta, lambda_sym=lambda_sym,
                              lambda_alg=lambda_alg, alpha=prob.alpha,
                              L=prob.L)


def execute_run(problem, algo, theta, lam, p, solver, max_dofs, eta_tol=None,
                delta=None, lambda_sym=0.7, lambda_alg=0.7):
    """Module-level worker so sweeps can run in separate processes."""
    prob, mesh = by_name(problem)
    kind = SOLVER_FLAGS[solver]
    if algo == "exact":
        return driver.run_exact(prob, mesh, theta=theta, p=p,
                                max_dofs=max_dofs, eta_tol=eta_tol)
    if algo == "uniform":
        return driver.run_uniform(prob, mesh, p=p, max_dofs=max_dofs,
                                  eta_tol=eta_tol)
    if algo == "single":
        return driver.run_single(prob, mesh, theta=theta, lam=lam, p=p,
                                 solver_kind=kind, max_dofs=max_dofs,
                                 eta_tol=eta_tol)
    cfg = _zarantonello(prob, delta, lambda_sym, lambda_alg)
    return driver.run_nested(prob, mesh, theta=theta, cfg=cfg, p=p,
                             solver_kind=kind, max_dofs=max_dofs,
                             eta_tol=eta_tol)


def _summarize(hist):
    """The run's facts: its size, why it stopped, the final estimator, the
    rates against DOFs and cost (from three levels on), the certified
    contractions (overall and per level) and the V-cycles each level's
    certification took, the measured R-linear certificate of the
    quasi-error, and the peak resident set of the whole process so far,
    which counts what ran before and is the one irreproducible key."""
    lv = hist.level_summary()
    cert = analysis.tailsum_rlinear_equivalence(
        analysis.quasi_error_sequence(hist))
    facts = dict(algo=hist.algo, problem=hist.meta.get("problem"),
                 levels=len(lv["ell"]), records=len(hist),
                 stop_reason=hist.meta["stop_reason"],
                 final_dofs=int(lv["n_dof"][-1]), final_eta=lv["eta"][-1],
                 C_lin=cert.C_lin, q_lin=cert.q_lin,
                 violation=cert.violation_rlinear,
                 peak_rss_mb=resource.getrusage(
                     resource.RUSAGE_SELF).ru_maxrss / _MAXRSS_PER_MB)
    if len(lv["n_dof"]) >= 3:
        facts["rate_vs_dofs"] = analysis.fit_rate_loglog(lv["n_dof"], lv["eta"])
        facts["rate_vs_cost"] = analysis.fit_rate_loglog(lv["cum_cost"],
                                                         lv["eta"])
    facts.update((k, hist.meta[k]) for k in ("q_alg", "q_alg_levels",
                                             "certify_cycles", "q_sym")
                 if k in hist.meta)
    return facts


def _finite_or_null(value):
    """``value`` with each float that is not finite, in lists too, as None:
    JSON has no inf or NaN."""
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(facts, path):
    """Write ``facts`` as one JSON object, non-finite floats as null, to
    stdout and, if ``path`` is given, to that file."""
    facts = {key: _finite_or_null(value) for key, value in facts.items()}
    text = json.dumps(facts, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def cmd_run(args):
    hist = execute_run(args.problem, args.algo, args.theta, args.lam, args.p,
                       args.solver, args.max_dofs, args.eta_tol, args.delta,
                       args.lambda_sym, args.lambda_alg)
    if args.out:
        with open(args.out, "w") as fh:
            hist.to_csv(fh)
    _write_json(_summarize(hist), args.summary)
    return 0


def _sweep_worker(params):
    return params, execute_run(**params)


def _pool_map(fn, tasks, jobs):
    """``fn`` over ``tasks`` in ``jobs`` worker processes, in the order they
    finish.  The first failed task (it raised, or its worker died) cancels
    the tasks not started, terminates the workers and is raised once the
    pool's threads have ended, so that none can touch a future after it.
    Python 3.11's executor has no public way to terminate its workers, hence
    ``_processes`` and ``_executor_manager_thread``; ``multiprocessing.Pool``
    has one but never notices a dead worker, and its map would hang."""
    with ProcessPoolExecutor(jobs) as pool:
        futures = [pool.submit(fn, task) for task in tasks]
        try:
            return [f.result() for f in as_completed(futures)]
        except BaseException:
            workers = list(pool._processes.values())
            manager = pool._executor_manager_thread
            pool.shutdown(wait=False, cancel_futures=True)
            for proc in workers:
                proc.terminate()
            manager.join()
            raise


def cmd_sweep(args):
    tasks = []
    for lam in args.lambdas:
        for theta in args.thetas:
            tasks.append(dict(problem=args.problem, algo=args.algo,
                              theta=theta, lam=lam, p=args.p,
                              solver=args.solver, max_dofs=args.max_dofs,
                              delta=args.delta, lambda_sym=lam,
                              lambda_alg=lam))
    results = {}
    if args.jobs == 1:
        pairs = map(_sweep_worker, tasks)
    else:
        pairs = _pool_map(_sweep_worker, tasks, args.jobs)
    for params, hist in pairs:
        results[(params["lam"], params["theta"])] = hist
    table = driver.weighted_cost_table(results, args.eta_stop_factor)
    text = render_cost_table(table)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def render_cost_table(table):
    """CSV rendering: one block per weighting, minima flagged per row/col."""
    out = []
    for which in ("dofs", "time"):
        flags = table["flags"][which]
        out.append(f"# weighted by {which}; * = best in row, + = best in "
                   "column")
        out.append("lambda," + ",".join(f"theta={t}" for t in table["thetas"]))
        for lam in table["lam_keys"]:
            row = [str(lam)]
            for theta in table["thetas"]:
                entry = table["entries"].get((lam, theta))
                if entry is None or not entry["complete"]:
                    row.append("incomplete")
                    continue
                cell = f"{entry[which]:.6e}"
                if flags["row"].get(lam) == (lam, theta):
                    cell += "*"
                if flags["col"].get(theta) == (lam, theta):
                    cell += "+"
                row.append(cell)
            out.append(",".join(row))
    return "\n".join(out) + "\n"


def cmd_verify(args):
    rng = np.random.default_rng(args.seed)
    prob, mesh = by_name(args.problem)
    if prob.is_symmetric:
        hist = driver.run_single(prob, mesh, theta=0.5, lam=0.01, p=1,
                                 solver_kind="local_multigrid",
                                 max_dofs=args.max_dofs, store_artifacts=True)
    else:
        hist = driver.run_nested(prob, mesh, theta=0.5,
                                 cfg=_zarantonello(prob), p=1,
                                 max_dofs=args.max_dofs, store_artifacts=True)
    report = analysis.verify_axioms(hist, prob,
                                    rng=np.random.default_rng(args.seed))
    violations = 0
    for _ in range(args.instances):
        a, b, q, C1, C2, delta = analysis.random_criterion_instance(rng)
        fit = analysis.rlinear_constants_from_criterion(a, b, q, C1, C2, delta)
        eq = analysis.tailsum_rlinear_equivalence(a)
        if not (fit.ok() and eq.ok()):
            violations += 1
    ok = violations == 0 and all(report[key] for key in report
                                 if key.endswith("_pass"))
    report.update(seed=args.seed, sequence_lemma_instances=args.instances,
                  sequence_lemma_violations=violations,
                  overall="PASS" if ok else "FAIL")
    _write_json(report, args.out)
    return 0 if ok else 1


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = _parse(ap, argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        return cmd_verify(args)
    except Exception as exc:  # run failures -> exit 1
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
