"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload cycle-train --seed 1 --seconds 24 --trace 0

The workload runs in a child process (``perfbench.worker``) with one BLAS
thread, so that its peak resident memory is its own and the thread count
does not vary. This launcher imports nothing of the program; it adds the
child's peak RSS to the end-to-end metrics and passes on its exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every thread pool numpy's BLAS may use is held at one thread.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="cycle-train, cycle-train-ml or hotnode-eval")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "tidegraph" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join([str(src), str(ROOT)])
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(child.stdout)
        print(f"perfbench: worker exited with code {child.returncode}", file=sys.stderr)
        return child.returncode or 4
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        print(f"  peak_rss_mb = {peak_mb:.6g} MB")
    print(f"  blas threads = 1; operations attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
