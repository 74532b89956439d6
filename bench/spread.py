"""Run-to-run spread of the end-to-end metrics, from which the bounds in
BENCHMARK.json are set.

    python3 bench/spread.py --workloads catalecticant,sweet --seeds 1-10 \
        --seconds 20 [--out FILE]

Runs ``bench/run.py --trace 0`` once per workload and seed, one run at a
time, and prints for each metric its median, its quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the distance between
the quartiles as a share of the median.  With ``--out`` the values are also
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="catalecticant,partials,sweet,cli")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--out")
    args = ap.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            for name, m in json.loads(proc.stdout.splitlines()[-1])["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        report[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            report[workload][name] = {"values": vals, "median": med,
                                      "q1": q1, "q3": q3,
                                      "spread": (q3 - q1) / med}
            print(f"{workload} {name}: median {med:.6g}, quartiles "
                  f"{q1:.6g}..{q3:.6g}, spread {(q3 - q1) / med:.4f}",
                  flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
