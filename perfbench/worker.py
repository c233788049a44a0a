"""One adaptive run of one workload, in a fresh process.

Usage: python3 perfbench/worker.py <workload> <mode>

Modes:
  warmup     set up and exit (fills the bytecode cache before timing)
  plain      run untraced, with calibration bursts (``speed.py``), and
             report the end-to-end numbers
  traced     run with layer spans and also report the per-layer numbers
  reference  run as ``plain`` and store the per-level fingerprint as the
             workload's same-work reference

The worker prints ``ready`` on its own line when set-up (imports and problem
construction) is done, so the caller can time set-up from process start, and
prints one JSON object as its last line when the run is done.
"""

import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
sys.path.insert(0, str(HERE.parent / "src"))

MODES = ("warmup", "plain", "traced", "reference")


def main(argv):
    name, mode = argv
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}; choose from {MODES}")
    import numpy
    import scipy

    import spans
    import speed
    from workloads import WORKLOADS, build, fingerprint, gate, same_work

    workload = WORKLOADS[name]
    run = build(workload)
    print("ready", flush=True)
    if mode == "warmup":
        return

    tracer = spans.Tracer()
    metronome = None if mode == "traced" else speed.Metronome()
    if metronome is None:
        run = tracer.wrap("driver", run)
        hooks = spans.installed(tracer)
    else:
        metronome.warm_up()
        hooks = metronome.installed()
    with warnings.catch_warnings(record=True) as caught, hooks:
        warnings.simplefilter("always")
        if metronome is not None:
            metronome.tick()
        t0 = time.perf_counter()
        try:
            history = run()
        except Exception:  # a run the program refused counts as failed
            history = None
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        if metronome is not None:
            metronome.tick()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = dict(numpy=numpy.__version__, scipy=scipy.__version__,
               warnings=sorted({str(w.message) for w in caught}))
    if history is None:
        out.update(reasons=[error])
        print(json.dumps(out))
        return

    levels = fingerprint(history)
    ref_path = REFERENCE_DIR / f"{name}.json"
    out.update(
        reasons=gate(history, workload),
        wall_s=wall,
        cum_cost=history.cumulative_cost,
        peak_rss_mb=peak_rss_mb,
        q_alg_max=history.meta.get("q_alg"),
        levels=len(levels), final_dofs=levels[-1][1], final_eta=levels[-1][2],
        same_work=(same_work(levels, json.loads(ref_path.read_text()))
                   if ref_path.exists() else None))
    if metronome is not None:
        marks = metronome.marks
        out["wall_s"], out["time_to_tol_s"] = speed.scaled_time(marks)
        out["bursts_s"] = [end - start for start, end in marks]
    if mode == "traced":
        out.update(layers=spans.layer_metrics(tracer, history),
                   spans=tracer.spans)
    if mode == "reference":
        if out["reasons"]:
            raise SystemExit(f"{name}: run fails the gate: {out['reasons']}")
        REFERENCE_DIR.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps(levels) + "\n")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
