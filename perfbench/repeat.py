"""Run one workload repeatedly, one seed per run, and report each metric's
median, quartiles and spread (interquartile distance over the median).

    python3 perfbench/repeat.py --workload gap1d-mixture --seeds 1-10

Quartiles are `statistics.quantiles(values, n=4)`. The share of failed
operations must be the same in every run; the command exits 1 when it is not,
or when a run is not correct.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = p.parse_args(argv)

    results = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"seed {seed} ({wall:.1f} s): correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']} {vals}", flush=True)

    ok = all(r["correct"] for r in results)
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    print(f"failed share: {sorted(str(s) for s in shares)}")
    ok &= len(shares) == 1
    print(f"{'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28s} {m['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
