#!/usr/bin/env python3
"""Build and run the dotest benchmark, and compare result sets.

Run one workload (builds the benchmark from source first):

    python3 perfbench/run.py --workload global-fig4 --seed 1 --seconds 30 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; everything else (build
output, per-metric lines) comes before it or on standard error.

Other modes:

    python3 perfbench/run.py self-test
        the benchmark's own checks, at tiny sizes
    python3 perfbench/run.py collect OUT.jsonl [--seeds 1-10] [--workloads a,b]
        one run per workload and seed; appends one JSON line per run
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl
        per workload and end-to-end metric: both sides' quartiles, median
        and quartile spread, the ratio NEW/OLD and a verdict (comparing a
        set with a second set of the same code checks the bounds)
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def build():
    """Build the benchmark (and the libraries it links) from source."""
    command = [
        "dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
        "--profile", "release", "--cache", "disabled",
        "./perfbench/main.exe",
    ]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr)
    except OSError as e:
        sys.exit(f"perfbench: cannot run dune: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")


def run_exe(args, **kwargs):
    return subprocess.run([os.path.join(ROOT, EXE)] + args, cwd=ROOT, **kwargs)


def load_bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def option(args, name, default):
    if name in args:
        i = args.index(name)
        return args[i + 1]
    return default


def collect(args):
    out = args[0]
    bench = load_bench()
    workloads = option(args, "--workloads", ",".join(w["name"] for w in bench["workloads"]))
    seeds = parse_seeds(option(args, "--seeds", "1-10"))
    trace = option(args, "--trace", "0")
    seconds = option(args, "--seconds", str(bench["run_seconds"]))
    build()
    for workload in workloads.split(","):
        for seed in seeds:
            done = run_exe(
                ["run", "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", trace],
                stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit(f"perfbench: {workload} seed {seed} failed (exit {done.returncode})")
            result = json.loads(lines[-1])
            notes = [l for l in lines[:-1] if l.startswith(("workload ", "repetition ", "digest ", "MISMATCH", "ERROR"))]
            record = {"workload": workload, "seed": seed, "trace": int(trace),
                      "notes": notes, "result": result}
            with open(out, "a") as f:
                f.write(json.dumps(record) + "\n")
            brief = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} correct={result['correct']} {brief}", flush=True)


def load_results(path):
    """{workload: {metric: [values]}} over the untraced runs of a file."""
    table = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if record.get("trace", 0) != 0:
                continue
            metrics = table.setdefault(record["workload"], {})
            for name, v in record["result"]["metrics"].items():
                metrics.setdefault(name, []).append(v["value"])
    return table


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def relative_spread(q1, med, q3):
    """Quartile distance as a share of the median."""
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)


def verdict(old, new, better, bound):
    """better / worse / unchanged / unresolved, by the spread rule.

    A side whose quartile spread exceeds the bound cannot resolve a change,
    unless every run of one side beats every run of the other. Otherwise a
    gain must exceed the old side's quartile spread, and a loss counts once
    it exceeds the bound."""
    sign = -1.0 if better == "lower" else 1.0
    oq1, omed, oq3 = summary(old)
    nq1, nmed, nq3 = summary(new)
    gain = sign * (nmed - omed)
    if relative_spread(oq1, omed, oq3) > bound or relative_spread(nq1, nmed, nq3) > bound:
        if min(sign * v for v in new) > max(sign * v for v in old):
            return "better"
        if max(sign * v for v in new) < min(sign * v for v in old):
            return "worse"
        return "unresolved"
    if gain > oq3 - oq1:
        return "better"
    if -gain > bound * abs(omed):
        return "worse"
    return "unchanged"


def compare(args):
    bench = load_bench()
    old, new = load_results(args[0]), load_results(args[1])
    print(f"{'workload':12s} {'metric':16s} {'old q1/median/q3 spread':>38s} "
          f"{'new q1/median/q3 spread':>38s} {'new/old':>8s} verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = old.get(workload, {}).get(name)
            b = new.get(workload, {}).get(name)
            if not a or not b or len(a) < 2 or len(b) < 2:
                print(f"{workload:12s} {name:16s} (missing on one side)")
                continue
            oq = summary(a)
            nq = summary(b)
            ratio = nq[1] / oq[1] if oq[1] else float("nan")
            print(f"{workload:12s} {name:16s} "
                  f"{oq[0]:9.4g} {oq[1]:9.4g} {oq[2]:9.4g} {relative_spread(*oq):7.4f}  "
                  f"{nq[0]:9.4g} {nq[1]:9.4g} {nq[2]:9.4g} {relative_spread(*nq):7.4f} "
                  f"{ratio:8.3f} {verdict(a, b, metric['better'], metric['bound'])}")


def main():
    args = sys.argv[1:]
    if args[:1] == ["collect"]:
        collect(args[1:])
    elif args[:1] == ["compare"]:
        compare(args[1:])
    elif args[:1] == ["self-test"]:
        build()
        sys.exit(run_exe(["self-test"]).returncode)
    else:
        build()
        sys.exit(run_exe(["run"] + args).returncode)


if __name__ == "__main__":
    main()
