"""Steadiness check of the benchmark against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--first-seed 1]
                                [--save FILE] [--against FILE]

Runs each workload once per seed, one run at a time, and prints for every
end-to-end metric the median and the spread: the distance between the first
and third quartile of the runs (statistics.quantiles, n=4) as a share of
the median.  A spread above the metric's bound fails the check; setup_s
is exempt, as its spread is not bounded.  --save writes the per-run values;
--against compares the medians with saved ones and fails when a median is
worse than the saved one by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return result, {k: m["value"] for k, m in result["metrics"].items()}


def worse_by(metric, new, old):
    """How much worse new is than old, as a share of old (negative if better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in bench["workloads"]]
    saved = json.loads(Path(args.against).read_text()) if args.against else {}
    values: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in names:
        per_metric = values.setdefault(workload, {})
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, metrics = run_once(bench, workload, seed)
            for k, v in metrics.items():
                per_metric.setdefault(k, []).append(v)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
            ok &= result["correct"]
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = per_metric[name]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= bound / 3 else "wide" if spread <= bound else "FAIL"
            if name == "setup_s":
                verdict = "exempt"
            elif spread > bound:
                ok = False
            line = (f"  {workload:15s} {name:16s} median {med:12.5g} {metric['unit']:5s} "
                    f"spread {spread:7.2%} bound {bound:.0%} {verdict}")
            if workload in saved:
                drift = worse_by(metric, med, statistics.median(saved[workload][name]))
                line += f"  vs saved {drift:+.2%}"
                if drift > bound:
                    ok = False
                    line += " FAIL"
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
