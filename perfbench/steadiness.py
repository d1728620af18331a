"""Run the benchmark once per seed and report how far each metric spreads.

    python3 perfbench/steadiness.py --workload homology --seeds 1-10 [--seconds 30]

Runs `perfbench/run.py` one seed after another (never in parallel) from the
current directory, and prints one JSON object: every run's result, and per
end-to-end metric the median, the quartiles and the spread, which is the
distance between the quartiles as a share of the median.  Each run also
keeps its log line with the reference's median and the unscaled times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="for example 1-10")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()
    run_py = Path(__file__).resolve().parent / "run.py"
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(run_py), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        speed = [line for line in proc.stdout.splitlines() if "reference median" in line]
        runs.append({"seed": seed, **result, "log": speed})
        print(seed, {k: v["value"] for k, v in result["metrics"].items()}, file=sys.stderr)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "summary": summary, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
