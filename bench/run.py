"""hopfseg benchmark: one workload, timed passes, output checks, one JSON line.

    python3 bench/run.py --workload nodal --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from `src/` of that
root.  While every timed call runs, a fixed pure-Python calibration loop
samples the machine's speed, and the call's time is scaled to the speed at
which that loop takes `REFERENCE_CALIBRATION_S` (see `timed`).  `--trace 0`
prints the end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer
ones, taken by wrapping hopfseg's public functions from `tracing.py`.  The
last line of standard output is the result; notes on failed operations go
to standard error.
"""

from __future__ import annotations

import os
import sys
import time

# one native thread each: the timings should not depend on a thread pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
CALIBRATION_ITERATIONS = 6_000     # one speed sample, about 2 ms
CALIBRATION_INTERVAL_S = 0.05      # between speed samples inside a timed call
# one sample's typical time on the 2-vCPU machine of bench/README.md
REFERENCE_CALIBRATION_S = 0.0018


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("nodal", "diffusion", "splitting"))
    p.add_argument("--seed", type=int, required=True, help="shuffles the order of the operations")
    p.add_argument("--seconds", type=float, required=True, help="time budget of the timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def calibrate():
    """Seconds a fixed pure-Python loop (integer, complex and dict work, no
    hopfseg and no numpy) takes now: one sample of the machine's speed."""
    t = time.perf_counter()
    s, z, d = 0, 0.3 + 0.1j, {}
    for i in range(CALIBRATION_ITERATIONS):
        s += i * i % 7
        z = z * z * 0.5 + 0.1j
        d[i & 63] = s
    return time.perf_counter() - t


def timed(call):
    """Run call(); return (its seconds, its reference seconds, its result).

    The shared host this benchmark was written on changes its single-thread
    speed by up to 2x in phases of seconds to minutes, on both vCPUs at once,
    so raw times of the same code spread by a third from run to run.  The
    calibration loop is therefore timed once before and once after the call
    and, from a SIGALRM handler, every CALIBRATION_INTERVAL_S while it runs;
    the handler's own time is taken out of the call's seconds.  The reference
    seconds are those seconds scaled to the speed at which one sample takes
    REFERENCE_CALIBRATION_S, which keeps what the call costs and drops most
    of the phase (bench/README.md gives the spreads either way)."""
    samples = [calibrate()]
    spent = 0.0

    def sample(signum, frame):
        nonlocal spent
        t = time.perf_counter()
        samples.append(calibrate())
        spent += time.perf_counter() - t

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
    t = time.perf_counter()
    try:
        result = call()
    finally:
        # stop the timer before reading the clock, so every sample is inside elapsed
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t
        signal.signal(signal.SIGALRM, previous)
    samples.append(calibrate())
    seconds = elapsed - spent
    return seconds, seconds * REFERENCE_CALIBRATION_S / statistics.fmean(samples), result


def import_program():
    """Import hopfseg from this checkout's src/ and nowhere else; returns the
    reference seconds the program's imports took."""
    src = ROOT / "src"
    if not (src / "hopfseg" / "__init__.py").is_file():
        sys.exit(f"bench: no hopfseg sources under {src}")
    sys.path.insert(0, str(src))

    def load():
        import hopfseg.cli  # noqa: F401
        import hopfseg.experiments  # noqa: F401

    return timed(load)[1]


def run_pass(order, pass_dir, tracer):
    """One timed pass: (wall seconds, {op: (seconds, reference seconds)},
    {op: result}, {op: error})."""
    times, results, errors = {}, {}, {}
    gc.collect()
    tracer.enabled = tracer.installed
    t_pass = time.perf_counter()
    for op in order:
        out = pass_dir / op.name.replace(":", "-")

        def attempt():
            try:
                return op.run(out), None
            except Exception:  # an operation that raises is counted as failed
                return None, traceback.format_exc(limit=3)

        frame = tracer.open("op:" + op.name) if tracer.enabled else None
        seconds, ref, (result, error) = timed(attempt)
        if frame is not None:
            tracer.close("op:" + op.name, frame, time.perf_counter())
        times[op.name] = (seconds, ref)
        if error is None:
            results[op.name] = result
        else:
            errors[op.name] = error
    wall = time.perf_counter() - t_pass
    tracer.enabled = False
    return wall, times, results, errors


def op_medians(passes, which):
    """{op: median over the run's passes of its seconds (which=0) or its
    reference seconds (which=1)}."""
    names = passes[0][2].keys()
    return {name: statistics.median(p[2][name][which] for p in passes) for name in names}


def main(argv=None):
    args = parse_args(argv)
    import_s = import_program()
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS[args.workload]()
    run_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            setup_times.append(timed(lambda: wl.setup(run_dir / "specs"))[1])
        setup_s = import_s + statistics.median(setup_times)

        tracer = tracing.Tracer()
        if args.trace:
            tracer.install()
            for name in tracer.missing:
                print(f"bench: {name} not found; its metrics read 0", file=sys.stderr)
        ops = wl.ops()
        rng = random.Random(args.seed)
        passes = []
        t_start = time.perf_counter()
        while True:
            order = list(ops)
            rng.shuffle(order)
            pass_dir = run_dir / f"pass{len(passes)}"
            passes.append((pass_dir, *run_pass(order, pass_dir, tracer)))
            elapsed = time.perf_counter() - t_start
            if elapsed + passes[-1][1] > args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        workloads.oracle_self_test()
        failed = 0
        correct = True
        for pass_dir, _, _, results, errors in passes:
            outs = {op.name: pass_dir / op.name.replace(":", "-") for op in ops}
            problems, cross = wl.check(results, outs)
            for name, tb in errors.items():
                problems[name] = [tb.strip().splitlines()[-1]]
            for name, msgs in sorted(problems.items()):
                if not msgs:
                    continue
                failed += 1
                known = name in wl.known_faults
                correct &= known
                print(f"bench: {name} failed{' (known fault)' if known else ''}: "
                      + "; ".join(msgs), file=sys.stderr)
            for msg in cross:
                correct = False
                print(f"bench: {msg}", file=sys.stderr)

        ref = op_medians(passes, 1)
        raw = op_medians(passes, 0)
        print(f"bench: {len(passes)} passes; per pass {sum(ref.values()):.3f} reference s, "
              f"{sum(raw.values()):.3f} s as timed", file=sys.stderr)
        if args.trace:
            values = tracer.metrics(len(passes))
            values["bench.traced_wall_s"] = sum(ref.values())
            tracer.save(str(BENCH / "out" / f"spans-{args.workload}.npz"))
            wanted = spec["per_layer"]
        else:
            values = {
                "wall_s": sum(ref.values()),
                "max_op_s": max(ref.values()),
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb,
            }
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
