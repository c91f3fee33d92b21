"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/steady.py --seeds 1-10 --seconds 20 [--workload W ...] [--out FILE]

Runs ``run.py`` once per (workload, seed), one after another, and prints
every end-to-end metric by name and unit with its median, quartiles and
spread: (Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)``
gives them.  ``--out`` also writes the per-run values, the summary and
a description of the machine as JSON.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine():
    """nproc, Python, numpy, and the BLAS library with its thread count."""
    import numpy

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas['name']} {blas['version']}"
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    if libs:
        get_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
        get_threads.restype = ctypes.c_int
        info["blas_threads"] = get_threads()
    return info


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"machine": machine(), "seconds": args.seconds, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        names = runs[0]["metrics"]
        summary = {name: dict(summarize([r["metrics"][name]["value"] for r in runs]),
                              unit=names[name]["unit"]) for name in names}
        report["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": summary,
        }
        print(f"{workload}: failed {report['workloads'][workload]['failed']}"
              f"/{report['workloads'][workload]['attempted']}")
        for name, s in summary.items():
            print(f"  {name:48s} {s['median']:12.5g} {s['unit']:6s} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
