"""Run every workload untraced and traced, and print all metrics in one table.

Run from the repository root:

    python3 bench/report.py --seed 1 --seconds 26

Rows are fail_share (failed over attempted operations), the end-to-end
metrics of the untraced run and the per-layer metrics of the traced run;
columns are the workloads of BENCHMARK.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    columns = {}
    for name in names:
        plain = run(name, args.seed, args.seconds, 0)
        traced = run(name, args.seed, args.seconds, 1)
        fail_share = {"value": plain["failed"] / plain["attempted"], "unit": "share"}
        columns[name] = {"fail_share": fail_share, **plain["metrics"], **traced["metrics"]}
    width = max(len(m) for m in columns[names[0]]) + 2
    print("metric".ljust(width) + "unit   " + "".join(n.rjust(16) for n in names))
    for metric, first in columns[names[0]].items():
        cells = "".join(f"{columns[n][metric]['value']:16.6g}" for n in names)
        print(metric.ljust(width) + first["unit"].ljust(7) + cells)
    return 0


if __name__ == "__main__":
    sys.exit(main())
