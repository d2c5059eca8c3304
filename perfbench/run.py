"""tcone benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload gb-corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ./src.
The run generates its inputs from the seed, times the set-up at least
five times and for at least a second, then repeats whole passes over
its operations, one at a time, until the next pass would end after
--seconds (and at least MIN_ABOVE_P90 samples lie above the 90th
percentile).  The timings are
scaled to a reference host speed, which hostspeed.py reads between
operations.  Every answer is checked against ground
truth built with the inputs and against sympy.  The last line of stdout
is one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics of a traced run (--trace 1).  The exit code is 0 only
if every answer is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import tracing
import workloads
from workloads import OK, WRONG

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# Set-up repeats at least this often and this long; setup_s is the median.
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 1.0
# Passes go on until at least this many samples lie above the 90th percentile.
MIN_ABOVE_P90 = 10
# Stop starting passes after this long, whatever --seconds says.
HARD_LIMIT_S = 120.0

END_TO_END = [
    ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("ok_frac", "frac"), ("conclusive_frac", "frac"), ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def import_program():
    """The tcone modules of this checkout; exits with code 1 when there are none."""
    src = ROOT / "src"
    if not (src / "tcone" / "__init__.py").is_file():
        sys.exit(f"error: no tcone sources under {src}")
    sys.path.insert(0, str(src))
    tcone = importlib.import_module("tcone")
    for name in tracing.MODULES:
        importlib.import_module(f"tcone.{name}")
    if Path(tcone.__file__).resolve().parent != (src / "tcone").resolve():
        sys.exit(f"error: tcone imported from {tcone.__file__}, not from {src}")
    return tcone, str(src)


def run_pass(ops, latencies, speed=None, tracer=None, base_id=0):
    """Each operation once, in order; returns the summed latency and the outputs.

    Between operations, outside the timed region, ``speed`` samples the host.
    """
    total, outs = 0.0, []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = base_id + i
        t0 = perf_counter()
        try:
            out, exc = op.call(), None
        except Exception as err:  # a raising operation is a failed one
            out, exc = None, err
        dt = perf_counter() - t0
        total += dt
        latencies.append(dt)
        outs.append((out, exc))
        if speed is not None:
            speed.maybe_sample()
    return total, outs


def record(ops, results, outs):
    """Keep each answer's text, and the first answer itself for its check.

    Later answers are dropped once rendered, so memory does not grow with
    the number of passes.
    """
    for op, runs, (out, exc) in zip(ops, results, outs):
        text = None if exc is not None else op.render(out)
        first = text is not None and all(t is None for _, t, _ in runs)
        runs.append((out if first else None, text, exc))


def classify(ops, results):
    """Per-op status counts over all passes, the first pass's answers, problems."""
    counts = {"attempted": 0, "failed": 0, "verify": 0, "inconclusive": 0}
    rendered, problems = [], []
    for op, runs in zip(ops, results):
        first = None
        for out, text, exc in runs:
            counts["attempted"] += 1
            counts["verify"] += op.verify
            if exc is not None:
                counts["failed"] += 1
                continue
            if first is None:
                first = text
                status, inconclusive = op.check(out)
            elif text != first:
                problems.append(f"{op.label}: answer differs between passes")
            if status == WRONG:
                problems.append(f"{op.label}: answer contradicts ground truth")
            counts["failed"] += status != OK
            counts["inconclusive"] += inconclusive
        if first is None:
            kinds = sorted({type(exc).__name__ for _, _, exc in runs})
            first = "raised " + ",".join(kinds)
        rendered.append(first)
    problems = list(dict.fromkeys(problems))
    return counts, rendered, problems


def op_means(latencies, n_ops):
    """Each operation's mean latency over the passes."""
    return [statistics.fmean(latencies[i::n_ops]) for i in range(n_ops)]


def quantile_summary(latencies, n_ops):
    """The median and 90th percentile of all samples, and the count above the latter.

    Each sample is read as its operation's mean over the passes.  The host
    flips between a fast and a slow state within seconds, so the samples of
    one operation fall in two groups, and a percentile that lands among them
    would read whichever state held more often.  A mean moves only in step
    with the time spent slow, which the host-speed factor takes out.
    """
    pooled = op_means(latencies, n_ops) * (len(latencies) // n_ops)
    p90 = statistics.quantiles(pooled, n=10)[8]
    return statistics.median(pooled), p90, sum(1 for x in pooled if x > p90)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tcone, src = import_program()
    traced = bool(args.trace)
    workdir = OUT / f"{args.workload}-{args.seed}"
    env = workloads.Env(src=src, workdir=str(workdir), traced=traced)
    rng = random.Random(f"{args.workload}:{args.seed}")
    plan = workloads.WORKLOADS[args.workload](tcone, rng, env)

    speed = hostspeed.HostSpeed()
    setup_times: list[float] = []
    setup_begin = perf_counter()
    while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_S:
        speed.sample()
        t0 = perf_counter()
        state = plan.setup()
        setup_times.append(perf_counter() - t0)
    speed.sample()
    setup_factor = speed.factor(setup_begin, perf_counter())
    ops = plan.ops(state)

    results = [[] for _ in ops]
    raw: list[float] = []
    passes = 0
    t_begin = perf_counter()
    if traced:
        tracer = tracing.Tracer(tcone)
        untraced_s = traced_s = 0.0
        while True:
            cycle0 = perf_counter()
            dt, outs = run_pass(ops, [])
            untraced_s += dt
            record(ops, results, outs)
            with tracer:
                dt, outs = run_pass(ops, [], tracer=tracer, base_id=passes * len(ops))
            traced_s += dt
            record(ops, results, outs)
            passes += 1
            elapsed = perf_counter() - t_begin
            if elapsed + (perf_counter() - cycle0) > args.seconds or elapsed > HARD_LIMIT_S:
                break
    else:
        while True:
            pass_s, outs = run_pass(ops, raw, speed)
            record(ops, results, outs)
            passes += 1
            elapsed = perf_counter() - t_begin
            if elapsed > HARD_LIMIT_S or (
                    elapsed + pass_s > args.seconds
                    and quantile_summary(raw, len(ops))[2] >= MIN_ABOVE_P90):
                break
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if plan.peak_of_children
                               else resource.RUSAGE_SELF)

    counts, rendered, problems = classify(ops, results)
    problems += plan.oracle(state, rendered)
    digest = hashlib.sha256("\n".join(f"{op.label}\t{text}" for op, text
                                      in zip(ops, rendered)).encode()).hexdigest()
    fail_frac = counts["failed"] / counts["attempted"]
    inconclusive_frac = counts["inconclusive"] / counts["verify"] if counts["verify"] else 0.0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {passes}  ops/pass {len(ops)}")
    print(f"digest sha256:{digest}")
    print(f"attempted {counts['attempted']}  failed {counts['failed']}  "
          f"fail_frac {fail_frac:.4f}  inconclusive_frac {inconclusive_frac:.4f}")
    failing = [op.label for op, runs in zip(ops, results)
               if any(exc is not None for _, _, exc in runs)]
    if failing:
        print("raised: " + ", ".join(failing))
    if traced:
        layer = tracer.layer_metrics(passes)
        layer.update(tracing.cli_import_metrics(src))
        layer["trace.slowdown"] = traced_s / untraced_s
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"spans-{args.workload}-{args.seed}.jsonl"))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in tracing.PER_LAYER}
        print(f"traced pass {traced_s / passes * 1e3:.1f} ms, untraced pass "
              f"{untraced_s / passes * 1e3:.1f} ms; {len(tracer.spans)} spans "
              f"written to .bench_out/")
    else:
        speed.sample()
        factor = speed.factor(t_begin, perf_counter())
        latencies = [dt * factor for dt in raw]
        p50, p90, above = quantile_summary(latencies, len(ops))
        values = {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3,
            "ok_frac": 1.0 - fail_frac,
            "conclusive_frac": 1.0 - inconclusive_frac,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "setup_s": statistics.median(setup_times) * setup_factor,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"samples {len(latencies)}  above p90 {above}")
        raw_p50, raw_p90, _ = quantile_summary(raw, len(ops))
        print(f"host speed factor {factor:.4f}, in set-up {setup_factor:.4f} "
              f"({len(speed.times)} reference loops); unscaled: ops_per_s "
              f"{len(raw) / sum(raw):.4f}  op_p50_ms {raw_p50 * 1e3:.4f}  "
              f"op_p90_ms {raw_p90 * 1e3:.4f}  setup_s {statistics.median(setup_times):.4f}")
        per_op = sorted(zip(op_means(latencies, len(ops)), (op.label for op in ops)),
                        reverse=True)
        print("slowest: " + ", ".join(f"{label} {t * 1e3:.1f} ms" for t, label in per_op[:5]))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:14.4f} {m['unit']}")
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
