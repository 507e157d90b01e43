"""One benchmark process: set up a workload, run timed passes, report JSON.

Started by ``run.py`` with BLAS threads pinned in the environment.  After
set-up it prints ``{"ready": true}``; with ``--setup-only`` it stops there.
Otherwise it runs one untimed warm-up pass, then full passes over the
workload's check list until ``--seconds`` have elapsed, and
prints one JSON result line.  With ``--trace 1`` untraced and traced passes
alternate, and the result carries per-layer metrics from the traced ones.

The machine's speed is read with ``calibrate.speed`` before each pass and
after each step of it, so every time is reported both as wall seconds and
rescaled to reference speed (``rescale``).
"""

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from statistics import median

from calibrate import speed

ROOT = Path(__file__).resolve().parents[1]
SETUP_CALIBRATION = ("python",)          # set-up is imports and generation
SPEED_WINDOW = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    return parser.parse_args(argv)


def rescale(seconds, readings):
    """Reference seconds of each step: step i ran between readings i and
    i + 1, and is scaled by the median of readings i - SPEED_WINDOW ..
    i + 1 + SPEED_WINDOW, which follows the host's slow spells (a second or
    more) while smoothing the noise of single readings."""
    out = []
    for i, t in enumerate(seconds):
        near = readings[max(0, i - SPEED_WINDOW):i + 2 + SPEED_WINDOW]
        out.append(t * median(near))
    return out


class Passes:
    """Wall and reference-speed times of a series of passes."""

    def __init__(self, checks, calibration):
        self.calibration = calibration
        self.wall = []
        self.ref = []
        self.check_ref = [[] for _ in checks]
        self.raw = []                      # (step seconds, speed readings) per pass
        self.failures = []

    def run(self, workload, timed=True):
        """One pass.  The machine's speed is read before the pass and after
        every step (``begin_pass``, then each check); each step is rescaled
        by the median reading of the window around it."""
        clock = time.perf_counter
        readings = [speed(self.calibration)]
        start = clock()
        ctx = workload.begin_pass()
        seconds = [clock() - start]
        readings.append(speed(self.calibration))
        for name, check in workload.checks:
            start = clock()
            try:
                ok, detail = check(ctx)
            except Exception as err:  # a raising check is a failed check
                ok, detail = False, f"{type(err).__name__}: {err}"
            seconds.append(clock() - start)
            readings.append(speed(self.calibration))
            if not ok:
                self.failures.append((name, detail))
        if timed:
            ref = rescale(seconds, readings)
            self.wall.append(sum(seconds))
            self.ref.append(sum(ref))
            for times, t in zip(self.check_ref, ref[1:]):
                times.append(t)
            self.raw.append((seconds, readings))

    def run_for(self, workload, seconds):
        """Timed passes until ``seconds`` have elapsed (at least one)."""
        end = time.perf_counter() + seconds
        while True:
            gc.collect()
            self.run(workload)
            if time.perf_counter() >= end:
                return

    def factors(self):
        return [r / w for r, w in zip(self.ref, self.wall)]


def environment(seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "seed": seed,
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    setup_speed = [speed(SETUP_CALIBRATION)]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import cartankit
    if Path(cartankit.__file__).resolve().parent != ROOT / "src" / "cartankit":
        raise SystemExit(f"imported cartankit from {cartankit.__file__}, not from this checkout")
    import workloads
    workload = workloads.build(args.workload, args.seed, ROOT)
    setup_speed.append(speed(SETUP_CALIBRATION))
    setup_factor = median(setup_speed)
    print(json.dumps({"ready": True, "speed": setup_factor}), flush=True)
    if args.setup_only:
        return 0

    setup_end = 0
    if tracer is not None:
        setup_end = tracer.mark()
        tracer.uninstall()
        tracer.letter_names = workload.letter_names

    untraced = Passes(workload.checks, workload.calibration)
    untraced.run(workload, timed=False)          # warm-up: checked, not timed
    if tracer is None:
        untraced.run_for(workload, args.seconds)
    else:
        traced = Passes(workload.checks, workload.calibration)
        bounds = []
        end = time.perf_counter() + args.seconds
        while True:                              # alternate untraced and traced passes
            gc.collect()
            untraced.run(workload)
            gc.collect()
            tracer.install()
            first = tracer.mark()
            traced.run(workload)
            tracer.uninstall()
            bounds.append((first, tracer.mark()))
            if time.perf_counter() >= end:
                break
    failures = untraced.failures
    passes = 1 + len(untraced.wall)

    result = {"workload": args.workload, "seed": args.seed,
              "checks_per_pass": len(workload.checks),
              "pass_wall_s": untraced.wall, "pass_ref_s": untraced.ref,
              "check_ref_s": {name: ts for (name, _), ts in
                              zip(workload.checks, untraced.check_ref)},
              "steps": untraced.raw}
    if tracer is not None:
        failures += traced.failures
        passes += len(traced.wall)
        layer, stages = tracer.metrics(setup_end, setup_factor, bounds, traced.factors())
        layer["trace.overhead_frac"] = median(traced.ref) / median(untraced.ref) - 1.0
        result.update({"traced_pass_wall_s": traced.wall, "traced_pass_ref_s": traced.ref,
                       "per_layer": layer, "stages": stages, "spans": len(tracer.spans)})
        if args.trace_out:
            tracer.dump(args.trace_out)

    if workload.reps is not None:
        workload.properties["operator_nnz_frac"] = workloads.operator_nnz_frac(workload.reps())
    result.update({
        "attempted": passes * len(workload.checks),
        "failed": len(failures),
        "failures": [list(f) for f in failures[:20]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": workload.fingerprint,
        "properties": workload.properties,
        "environment": environment(args.seed),
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
