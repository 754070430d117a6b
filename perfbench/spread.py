"""Run one workload on several seeds and print each metric's median and spread.

    python3 perfbench/spread.py --workload desk-exp --seeds 1 2 3 4 5 --seconds 30

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  The pass
times of all runs are pooled for the highest percentile with at least ten
passes beyond it.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    passes: list[float] = []
    failed = 0
    for seed in args.seeds:
        done = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
        report, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
        passes += report["pass_wall_s"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
              flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, {failed} failed operations")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"  {name:45s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {share:.4f}")
    if len(passes) >= 11:
        k = len(passes) - 11
        print(f"  pooled pass wall_s: {len(passes)} passes, median {statistics.median(passes):.6g}, "
              f"p{100 * (k + 1) / len(passes):.1f} {sorted(passes)[k]:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
