"""afem-lab benchmark: time to a stated estimator tolerance, cost and memory.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload kellogg-mg --seed 1 --seconds 35 \
        --trace 0

Each repetition is a fresh worker process (``worker.py``) that runs one
adaptive workload from the initial mesh until eta <= eta_tol, with BLAS and
OpenMP limited to one thread.  Repetitions continue for ``--seconds`` seconds
(at least ``MIN_ROUNDS`` rounds), and each metric is the median over them.

``--trace 0`` reports the end-to-end metrics of untraced runs:

* ``time_to_tol_s``: time of the driver call at a fixed reference machine
  speed: its wall time with each stretch between two calibration bursts
  scaled by the speed the bursts measured (``speed.py``);
* ``setup_s``: process start until the driver is ready to call;
* ``cum_cost``: the paper's cost, sum of #T over all solver steps;
* ``peak_rss_mb``: peak resident set size of the worker process.

``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced runs (see ``spans.py``), with the tracing
overhead (median traced minus median untraced wall time, both unscaled
and without the bursts).  The spans of the traced runs are written to
``perfbench/results/`` once, at the end.

The workloads are deterministic; ``--seed`` only orders the traced and the
untraced run within each round.  Every run passes through the correctness
gate of ``workloads.gate``; a run that fails it counts in ``failed``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run context and every raw sample.
"""

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS_DIR = HERE / "results"

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"time_to_tol_s": "s", "setup_s": "s", "cum_cost": "count",
              "peak_rss_mb": "MiB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# single-threaded BLAS: a plain baseline, and steadier on a shared machine
THREADS = "1"
MIN_ROUNDS = {0: 3, 1: 2}
# every run must end within 180 s; keep a margin for the last round
HARD_LIMIT_S = 165.0


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


def run_worker(workload, mode, deadline):
    """One worker process; returns its result with ``setup_s`` added."""
    env = dict(os.environ, **{var: THREADS for var in THREAD_VARS})
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, mode],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    timer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"worker {workload} {mode} exited with code "
                         f"{proc.returncode}")
    if mode == "warmup":
        return {}
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def measure(workload, trace, seed, seconds):
    """Rounds of worker runs for ``seconds`` seconds; returns the runs of
    each mode."""
    deadline = time.perf_counter() + HARD_LIMIT_S
    run_worker(workload, "warmup", deadline)
    modes = ["plain", "traced"] if trace else ["plain"]
    if seed % 2:
        modes.reverse()
    runs = {mode: [] for mode in modes}
    durations = []
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if len(durations) >= MIN_ROUNDS[trace]:
            expected = statistics.median(durations)
            if now - start + expected > seconds:
                break
        if durations and now + max(durations) > deadline:
            break
        for mode in modes:
            runs[mode].append(run_worker(workload, mode, deadline))
        durations.append(time.perf_counter() - now)
    return runs


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    (percentile, value), or None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def summarize(workload, trace, seed, seconds, runs):
    plain = runs["plain"]
    every = [r for mode_runs in runs.values() for r in mode_runs]
    failed = [r for r in every if r["reasons"]]
    samples = {name: [r[name] for r in plain if name in r]
               for name in (*END_TO_END, "wall_s")}
    traced = [r for r in runs.get("traced", []) if "layers" in r]
    if not samples["cum_cost"] or (trace and not traced):
        raise BenchError(f"no run of {workload} completed: "
                         f"{failed[0]['reasons']}")
    if trace:
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in PER_LAYER if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(samples["wall_s"]))
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]}
                   for name in PER_LAYER}
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{workload}-seed{seed}.spans.json"
        path.write_text(json.dumps([r["spans"] for r in traced]))
        for r in traced:
            del r["spans"]
    else:
        metrics = {name: {"value": statistics.median(samples[name]),
                          "unit": unit} for name, unit in END_TO_END.items()}
    first = every[0]
    context = dict(
        workload=workload, seed=seed, seconds=seconds, trace=trace,
        parameters=dataclasses.asdict(WORKLOADS[workload]),
        commit=commit(), python=platform.python_version(),
        numpy=first["numpy"], scipy=first["scipy"], nproc=os.cpu_count(),
        threads={var: THREADS for var in THREAD_VARS},
        samples=samples,
        time_to_tol_tail=tail(samples["time_to_tol_s"]),
        same_work=[r.get("same_work") for r in every],
        warnings=sorted({w for r in every for w in r["warnings"]}),
        failures=[r["reasons"] for r in failed],
        runs=every)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not failed, "attempted": len(every),
                      "failed": len(failed), "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "afem_lab" / "__init__.py").exists():
        sys.exit(f"perfbench: no afem_lab package under {ROOT / 'src'}")
    try:
        runs = measure(args.workload, args.trace, args.seed, args.seconds)
        summarize(args.workload, args.trace, args.seed, args.seconds, runs)
    except BenchError as exc:
        sys.exit(f"perfbench: {exc}")


if __name__ == "__main__":
    main()
