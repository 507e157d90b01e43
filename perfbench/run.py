"""cartankit benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The runner itself imports neither numpy
nor cartankit: it starts fresh worker processes (``worker.py``) with BLAS
pinned to one thread, so set-up time and peak memory are per process.

* ``setup_s``: time from starting a worker to its ready line (import
  cartankit plus input generation or problem loading), the median over
  ``SETUP_SAMPLES`` fresh processes after one discarded warm-up process,
  plus the measuring worker.
* The measuring worker runs one untimed warm-up pass, then full passes for
  ``--seconds``; every check is compared with its oracle.
* Every time is rescaled to reference speed by the calibration loops of
  ``calibrate.py`` that bracket it, run inside the worker that does the
  work (set-up: at process start and at ready); wall times are kept in the
  record.
* ``--trace 1`` reports the per-layer metrics of ``BENCHMARK.json`` from
  traced passes (alternating with untraced ones) and writes the spans to
  ``.perfbench/traces``.

The last line of standard output is the JSON result; the full record
(environment, input fingerprint and properties, pass quartiles, stage
table) goes to ``.perfbench/results``.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 4
BLAS_THREADS = 1
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("CARTANKIT_MODE", None)
    env.pop("PYTHONPATH", None)
    return env


def git_commit():
    """Commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def start_worker(args, extra, deadline):
    """Start a worker and wait for its ready line.

    Returns (proc, wall seconds to ready, reference seconds to ready).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        ready = json.loads(line) if line.strip() else {}
        if not ready.get("ready"):
            raise BenchError("worker failed during set-up")
    except BaseException:
        stop(proc)
        raise
    return proc, elapsed, elapsed * ready["speed"]


def stop(proc):
    """Kill a worker that is still running and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def finish(proc, deadline):
    """Collect the rest of a worker's output; it must exit 0 by the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run deadline")
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def measure_setup(args, deadline):
    """(wall, reference) seconds of SETUP_SAMPLES fresh set-up processes."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc, wall, ref = start_worker(args, ["--setup-only"], deadline)
        finish(proc, deadline)
        if i:
            samples.append((wall, ref))
    return samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4)
    return q[0], q[2]


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def check_checkout():
    missing = [p for p in ("src/cartankit/__init__.py", "problems/sl2.json",
                           "problems/heisenberg_exact.json", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        raise BenchError("not a cartankit checkout; missing " + ", ".join(missing))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    check_checkout()
    end_to_end, per_layer, workloads = load_spec()
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads}")
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        extra += ["--trace-out", str(OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz")]
    setup = [] if args.trace else measure_setup(args, deadline)
    proc, wall, ref = start_worker(args, extra, deadline)
    result = json.loads(finish(proc, deadline).strip().splitlines()[-1])
    setup.append((wall, ref))

    times = result["pass_ref_s"]
    attempted, failed = result["attempted"], result["failed"]
    q1, q3 = quartiles(times)
    summary = {
        "checks_per_s": result["checks_per_pass"] * len(times) / sum(times),
        "verdict_s": median(times),
        "setup_s": median(r for _, r in setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "failed_frac": failed / attempted,
        "pass_frac": 1.0 - failed / attempted,
        "wall_checks_per_s": result["checks_per_pass"] * len(times) / sum(result["pass_wall_s"]),
        "wall_verdict_s": median(result["pass_wall_s"]),
        "wall_setup_s": median(w for w, _ in setup),
    }
    if args.trace:
        wanted, values = per_layer, result["per_layer"]
    else:
        wanted, values = end_to_end, summary
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise BenchError("metrics not produced: " + ", ".join(missing))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}

    record = dict(result)
    record.update({"summary": summary, "verdict_quartiles_s": [q1, q3], "passes": len(times),
                   "setup_samples_s": setup, "git_commit": git_commit(),
                   "metrics": metrics})
    record["environment"]["blas_threads_pinned"] = BLAS_THREADS
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    units = {"failed_frac": "ratio"}
    units.update(end_to_end)
    print(f"# {args.workload} seed={args.seed} fingerprint={result['fingerprint'][:16]} "
          f"commit={record['git_commit']} env={json.dumps(result['environment'], sort_keys=True)}")
    print(f"# verdict_s median={summary['verdict_s']:.4f} s q1={q1:.4f} q3={q3:.4f} "
          f"passes={len(times)}; setup samples={len(setup)}; wall: "
          f"verdict_s={summary['wall_verdict_s']:.4f} setup_s={summary['wall_setup_s']:.4f} "
          f"checks_per_s={summary['wall_checks_per_s']:.4f}")
    for name in ("checks_per_s", "verdict_s", "setup_s", "peak_rss_mb", "failed_frac"):
        print(f"# {name:<14} {summary[name]:.6g} {units.get(name, '')}")
    if args.trace:
        print(f"# trace.overhead_frac {values['trace.overhead_frac']:.4f}; "
              f"spans={result['spans']}; stages={json.dumps(result['stages'], sort_keys=True)}")
    for name, detail in result["failures"]:
        print(f"# FAILED {name}: {detail}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        sys.exit(2)
