"""Run bifurcrl's benchmark.

    python3 perfbench/run.py                    # every workload, one process each
    python3 perfbench/run.py --trace 1          # the traced runs: per-layer metrics
    python3 perfbench/run.py --workload gap1d-mixture --seed 3 --trace 0

Run from the root of a checkout. The program is imported from the checkout's
`src/`; outputs (train.csv rows, checkpoints, spans) go to `perfbench-out/`.
The last line a single workload prints is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gap1d-mixture", "gap1d-continuous", "bypass-mixture")
M_MMAP_THRESHOLD = -3  # glibc mallopt parameter


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload in this process (default: all, in turn)")
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload config's seed)")
    # the run length is run_seconds of BENCHMARK.json, which the bounds were
    # set for; the option exists because benchmark callers pass that value
    p.add_argument("--seconds", type=float, default=None,
                   help="must equal run_seconds of BENCHMARK.json, if given")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: install the layer wrappers and report per-layer metrics")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds not in (None, seconds):
        print(f"error: --seconds {args.seconds:g}: runs last run_seconds of "
              f"BENCHMARK.json, {seconds}", file=sys.stderr)
        return 2
    if args.workload is None:
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--trace", str(args.trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
        return status

    src = ROOT / "src"
    if not (src / "bifurcrl" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no bifurcrl sources under {src} or no configs/ beside them",
              file=sys.stderr)
        return 2
    # the nets are at most 128 wide, so a second BLAS thread adds wake-ups,
    # not speed, and on a shared 2-CPU host it makes timings unsteady; this
    # must be set before numpy is first imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    # a fixed mmap threshold: glibc otherwise raises it when a large array is
    # freed, so the next round's replay buffer may come from the heap, where
    # calloc zeroes (and makes resident) all of it, and peak RSS would depend
    # on heap history; 1 MiB is above every per-step array (128 x 128 floats)
    try:
        ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, 1 << 20)
    except (OSError, AttributeError):
        pass
    sys.path[:0] = [str(src), str(HERE)]
    import workloads
    return workloads.run(args.workload, args.seed, seconds, bool(args.trace),
                         ROOT / "perfbench-out")


if __name__ == "__main__":
    sys.exit(main())
