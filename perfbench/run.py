"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload classify-mix --seed 1 --seconds 24 --trace 0

Run from the repository root; pptmerge is imported from ``src/``.  The
workloads (see ``workloads.py`` and ``NOTES.md``) are single-process and
closed-loop: one caller, default numpy threading.

Timing.  Passes over the workload's inputs repeat, in a seeded shuffled
order, until ``--seconds`` is spent (at least ``MIN_PASSES``).  Each
input's time is the fastest of its repetitions, each on a distinct object
with equal content.

The shared machine this was tuned on changes speed all the time: within
a second an operation can run 2x slower, and for spells of up to a
minute the fastest achievable speed drops by up to 1.6x, so a whole run
can sit in one.  To take that out, ``calibration_loop`` -- fixed
pure-Python work that calls nothing in pptmerge or numpy -- runs right
before every in-process operation, and each measured time is reported at
reference speed:

    time x REFERENCE_LOOP_S / (fastest loop within WINDOW_S of the operation)

i.e. in units of the loop, scaled so that one loop counts as 0.5 ms.
Over 200 s of recorded passes, cut into 25-second windows, this held the
window-to-window standard deviation of every metric to 1-2% on
classify-mix and 4-7% on overlap-pure, against 4% and 14% for raw times.

Times of cli-files child processes do not follow this loop: they are
dominated by starting an interpreter and importing numpy, which slowed
by 25% in spells when the loop did not.  They are rescaled instead by
the run's fastest ``python -c "import numpy"`` (timed before each such
child), counted as ``REFERENCE_START_S``.  Over 150 s of cli-files
passes that cut the spread between 25-second windows from 5% to 3.4%.
A bare ``python -c pass`` did as well there; in one ten-seed set each,
taken an hour apart, cli-files spreads were 20-22% with it and 6-10%
with this one.

Set-up is timed inside ``SETUP_REPEATS`` fresh interpreters, each of
which runs calibration loops right before and after its set-up and
rescales its time by the fastest of them; ``setup_s`` is the fastest
rescaled set-up.  In two ten-run sets of set-ups alone on overlap-pure
and cli-files this held the spread of ``setup_s`` to 0.07-0.12, against
0.16-0.29 for the median of five set-ups rescaled by the numpy start-up.
Raw figures and the fastest calibration loop go to stderr.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes under ``spans.Tracer`` and prints the
per-layer metrics, including the tracing overhead.  Every result is
checked; a wrong result or an exception counts in ``failed``.
"""

import argparse
import bisect
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("classify-mix", "overlap-pure", "geodist-mixed", "cli-files")

MIN_PASSES = 2
SETUP_REPEATS = 10  # each in a fresh interpreter
SETUP_CALIBRATIONS = 40  # calibration loops on each side of a set-up
REFERENCE_LOOP_S = 0.5e-3
REFERENCE_START_S = 0.15
WINDOW_S = 0.75
EIG_DIMS = (4, 6, 8, 9, 16, 24, 60, 64)

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the set-up time and exit")
    return parser.parse_args(argv)


def import_pptmerge():
    """Put ``src/`` first on the path and import pptmerge from there only."""
    if not (SRC / "pptmerge" / "__init__.py").is_file():
        sys.exit(f"error: no pptmerge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pptmerge

    if Path(pptmerge.__file__).resolve().parent != SRC / "pptmerge":
        sys.exit(f"error: pptmerge imported from {pptmerge.__file__}, not {SRC}")


def setup_in_subprocess(args):
    """Set-up time measured inside a fresh interpreter: (raw, at reference speed)."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed",
         str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, check=True,
    )
    raw, scaled = map(float, out.stdout.split()[-2:])
    return raw, scaled


def calibration_loop():
    """Fixed pure-Python work: about 0.5 ms on a 2-core x86-64 VM at full speed."""
    table, acc = {}, 0
    for i in range(3000):
        key = i % 97
        table[key] = table.get(key, 0) + 3 * i
        acc += (i * i) % 13
    return acc + min(table.values())


class Clock:
    """Calibration samples over a run, to rescale times to reference speed."""

    def __init__(self):
        self.ends, self.loops, self.starts = [], [], []

    def calibrate(self):
        t0 = time.perf_counter()
        calibration_loop()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.loops.append(t1 - t0)

    def calibrate_start(self):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        self.starts.append(time.perf_counter() - t0)

    def child_scale(self):
        """Factor taking a child process's time to reference speed."""
        return REFERENCE_START_S / min(self.starts)

    def scale(self, start, end):
        """Factor taking a time measured over [start, end] to reference speed."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        return REFERENCE_LOOP_S / min(self.loops[lo:hi])

    def fastest_loop_ms(self):
        return min(self.loops, default=math.nan) * 1e3


def measure(ops, seconds, seed, clock, tracer=None):
    """Timed passes over ``ops``; returns raw samples and counts.

    Samples are ``(op index, traced, start, end)``.  With a tracer, odd
    passes run traced and even passes untraced, so both modes see the
    machine's fast and slow moments alike.
    """
    samples = []
    attempted = failed = 0
    order = list(range(len(ops)))
    shuffle = random.Random(seed)
    min_passes = 2 * MIN_PASSES if tracer else MIN_PASSES
    start = time.perf_counter()
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        pass_start = time.perf_counter()
        shuffle.shuffle(order)
        for i in order:
            op = ops[i]
            arg = op.prepare()
            if op.in_process:
                clock.calibrate()
            else:
                clock.calibrate_start()
            attempted += 1
            if traced:
                tracer.begin_op(i)
            try:
                t0 = time.perf_counter()
                result = op.call(arg)
                t1 = time.perf_counter()
            except Exception as exc:  # a raising call is a failed operation
                print(f"error: {op.kind}: {exc!r}", file=sys.stderr)
                failed += 1
                continue
            finally:
                if traced:
                    tracer.end_op(op.dim)
            try:
                ok = op.check(result)
            except Exception as exc:  # a result the check cannot read is wrong
                print(f"error: checking {op.kind}: {exc!r}", file=sys.stderr)
                ok = False
            if ok:
                samples.append((i, traced, t0, t1))
            else:
                print(f"error: {op.kind}: wrong result", file=sys.stderr)
                failed += 1
        if traced:
            tracer.uninstall()
        passes += 1
        now = time.perf_counter()
        if passes >= min_passes and now - start + (now - pass_start) > seconds:
            break
    return samples, attempted, failed, passes


def best_times(samples, ops, traced, clock=None):
    """Each op's fastest time in the given mode, at reference speed if ``clock``."""
    best = [math.inf] * len(ops)
    for i, mode, t0, t1 in samples:
        if mode != traced:
            continue
        scale = 1.0
        if clock:
            scale = clock.scale(t0, t1) if ops[i].in_process else clock.child_scale()
        best[i] = min(best[i], (t1 - t0) * scale)
    return best


def timing_stats(times):
    ts = [t for t in times if math.isfinite(t)]
    if not ts:
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_p90_ms": 0.0}
    p90 = statistics.quantiles(ts, n=10, method="inclusive")[8] if len(ts) > 1 else ts[0]
    return {
        "ops_per_s": len(ts) / sum(ts),
        "op_p50_ms": statistics.median(ts) * 1e3,
        "op_p90_ms": p90 * 1e3,
    }


def peak_rss_mb(ops):
    """Peak resident set of the process that ran the operations.

    That is this process, or for out-of-process operations the largest
    of the CLI children, as each reported when it was reaped.
    """
    if all(op.in_process for op in ops):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import workloads

    return workloads.cli_peak_rss_kib / 1024.0


def startup_probe(repeats=5):
    """Fastest interpreter start, numpy import and pptmerge import, in ms."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start_s, numpy_us, own_us = [], [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        start_s.append(time.perf_counter() - t0)
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pptmerge"],
                             env=env, check=True, capture_output=True, text=True).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1])
        numpy_us.append(cumulative.get("numpy", 0))  # 0 if pptmerge stops importing it
        own_us.append(cumulative["pptmerge"] - numpy_us[-1])
    return min(start_s) * 1e3, min(numpy_us) / 1e3, min(own_us) / 1e3


def layer_metrics(tracer, overhead_ratio, startup):
    """Per-layer metrics from the traced passes: means per operation."""
    n = max(tracer.ops, 1)
    calls, incl, own, counts = tracer.calls, tracer.incl_s, tracer.self_s, tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "linalg.eig.calls_per_op": (calls["linalg.eig"] / n, "count"),
        "linalg.eig.ms_per_op": (incl["linalg.eig"] * 1e3 / n, "ms"),
    }
    for d in EIG_DIMS:
        m[f"linalg.eig.calls_per_op.D{d}"] = (
            ratio(tracer.eig_calls_by_dim[d], tracer.ops_by_dim[d]), "count")
    m["linalg.svd.calls_per_op"] = (calls["linalg.svd"] / n, "count")
    for name in ("core.DensityMatrix", "core.partial_trace", "core.partial_transpose"):
        m[f"{name}.calls_per_op"] = (calls[name] / n, "count")
        m[f"{name}.self_ms_per_op"] = (own[name] * 1e3 / n, "ms")
    for name in ("von_neumann_entropy", "hashing_witness", "negativity_witness",
                 "is_ppt", "mutual_information"):
        m[f"measures.{name}.calls_per_op"] = (calls[f"measures.{name}"] / n, "count")
    m["measures.von_neumann_entropy.self_ms_per_op"] = (
        own["measures.von_neumann_entropy"] * 1e3 / n, "ms")
    for name in ("check_perfect_sufficient", "check_vanishing_ppt_merge",
                 "check_vanishing_locc_merge", "check_necessary_ppt",
                 "check_sep_family_obstruction", "fidelity_lower_bound"):
        m[f"classify.{name}.ms_per_op"] = (incl[f"classify.{name}"] * 1e3 / n, "ms")
    m["bloch.rank_of_family.calls_per_op"] = (calls["bloch.rank_of_family"] / n, "count")
    m["bloch.rank_of_family.ms_per_op"] = (incl["bloch.rank_of_family"] * 1e3 / n, "ms")
    m["families.build_ms"] = (tracer.setup_s["families"] * 1e3, "ms")
    solvers = ("pptopt.max_overlap_ppt", "pptopt.min_trace_distance_ppt")
    for name in solvers:
        m[f"{name}.ms_per_op"] = (incl[name] * 1e3 / n, "ms")
        m[f"{name}.sweeps_per_op"] = (counts[f"{name}.sweeps"] / n, "count")
    m["pptopt.ms_per_sweep"] = (ratio(sum(incl[s] for s in solvers) * 1e3,
                                      sum(counts[f"{s}.sweeps"] for s in solvers)), "ms")
    m["pptopt.converged_ratio"] = (ratio(sum(counts[f"{s}.converged"] for s in solvers),
                                         sum(counts[f"{s}.solves"] for s in solvers)), "ratio")
    geo = "pptopt.geometric_distillability_ppt"
    m["pptopt.bracket_width_mean"] = (
        ratio(counts[f"{geo}.bracket_width"], counts[f"{geo}.brackets"]), "1")
    m["stateio.loads_state.ms_per_op"] = (incl["stateio.loads_state"] * 1e3 / n, "ms")
    m["stateio.dumps_state.ms_per_op"] = (incl["stateio.dumps_state"] * 1e3 / n, "ms")
    m["stateio.bytes_per_op"] = (
        (counts["stateio.loads_state.bytes"] + counts["stateio.dumps_state.bytes"]) / n, "bytes")
    python_ms, numpy_ms, pptmerge_ms = startup
    m["cli.python_start_ms"] = (python_ms, "ms")
    m["cli.numpy_import_ms"] = (numpy_ms, "ms")
    m["cli.pptmerge_import_ms"] = (pptmerge_ms, "ms")
    m["cli.main.self_ms_per_op"] = (own["cli.main"] * 1e3 / n, "ms")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    args = parse_args(argv)
    SCRATCH.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=SCRATCH) as workdir:
            return run(args, workdir)
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still holds a work directory here
            pass


def run(args, workdir):
    clock = Clock()
    if args.setup_only:  # calibration loops right before and after the set-up
        for _ in range(SETUP_CALIBRATIONS):
            clock.calibrate()
    t0 = time.perf_counter()
    import_pptmerge()
    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        tracer.active = True
    ops = workloads.build(args.workload, args.seed, workdir, cli_in_process=bool(args.trace))
    setup = time.perf_counter() - t0
    if args.setup_only:
        for _ in range(SETUP_CALIBRATIONS):
            clock.calibrate()
        print(repr(setup), repr(setup * REFERENCE_LOOP_S / min(clock.loops)))
        return 0
    if tracer:
        tracer.end_setup()
        tracer.uninstall()

    samples, attempted, failed, passes = measure(ops, args.seconds, args.seed, clock, tracer)
    print(f"{args.workload}: {len(ops)} inputs, {passes} passes, "
          f"{failed}/{attempted} failed", file=sys.stderr)
    if tracer:
        untraced = timing_stats(best_times(samples, ops, False, clock))["ops_per_s"]
        traced = timing_stats(best_times(samples, ops, True, clock))["ops_per_s"]
        print(f"fastest calibration loop {clock.fastest_loop_ms():.4f} ms", file=sys.stderr)
        metrics = layer_metrics(tracer, traced / untraced if untraced else 0.0, startup_probe())
    else:
        rss = peak_rss_mb(ops)
        setups = [setup_in_subprocess(args) for _ in range(SETUP_REPEATS)]
        raw = dict(timing_stats(best_times(samples, ops, False)),
                   setup_s=min(r for r, _ in setups))
        print(f"raw: {raw}; fastest calibration loop {clock.fastest_loop_ms():.4f} ms, "
              f"numpy start {min(clock.starts, default=math.nan) * 1e3:.1f} ms", file=sys.stderr)
        values = timing_stats(best_times(samples, ops, False, clock))
        values["setup_s"] = min(s for _, s in setups)
        values["peak_rss_mb"] = rss
        metrics = {k: {"value": float(values[k]), "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
