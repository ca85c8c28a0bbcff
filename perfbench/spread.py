"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workload linkpred --seeds 1-10

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json. Runs are untraced; each run's last stdout line is appended to
``.perfbench_work/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    log = Path(f".perfbench_work/spread-{args.workload}.jsonl")
    log.parent.mkdir(parents=True, exist_ok=True)
    values: dict = {}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"seed": seed, **json.loads(last)}) + "\n")
        result = json.loads(last)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':<46} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals * 3)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<46} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
              f"{'' if bound is None else bound:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
