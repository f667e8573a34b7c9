"""Run the benchmark on several seeds per workload and report each metric's spread.

    python3 perfbench/steady.py --seeds 10 [--first-seed 100] [--workloads a,b]
                                [--sets 2] [--traced] [--out FILE]

For every workload and end-to-end metric it prints the median, the quartiles
as statistics.quantiles(values, n=4) gives them, the spread (q3 - q1) / median
and the metric's bound from BENCHMARK.json.  Runs are sequential, one process
at a time.  --sets repeats the whole set of runs, with the same seeds, and
prints by how much each later set's median is worse than the first set's.
--traced adds one traced run per workload after the last set; --out writes
every value as JSON, which is how perfbench/baseline.json is made.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    env = json.loads(next(l[4:] for l in proc.stdout.splitlines() if l.startswith("env ")))
    return result, env


def run_set(names, seeds, seconds, bounds):
    """Untraced runs of every workload on every seed: each metric's values and spread."""
    workloads = {}
    for name in names:
        runs = []
        for seed in seeds:
            result, env = run_once(name, seed, seconds, 0)
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of {result['attempted']} failed")
            runs.append(result)
        entry = {"seeds": seeds, "environment": env, "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "end_to_end": {}}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bound / 3 else "within" if spread <= bound else "WIDE"
            print(f"{name:20s} {metric:14s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:7.2%} bound {bound:.0%} {verdict}", flush=True)
            entry["end_to_end"][metric] = {"unit": runs[0]["metrics"][metric]["unit"], "median": med,
                                           "q1": q1, "q3": q3, "spread": spread, "values": values}
        workloads[name] = entry
    return workloads


def worse_by(first, later, better):
    """How much worse the later median is than the first, as a share of the first."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    sets = []
    for number in range(args.sets):
        print(f"set {number + 1} of {args.sets}", flush=True)
        sets.append(run_set(names, seeds, spec["run_seconds"], bounds))
    report = {"run_seconds": spec["run_seconds"], "sets": sets, "agreement": {}}
    for name in names:
        report["agreement"][name] = {}
        for metric, bound in bounds.items():
            first = sets[0][name]["end_to_end"][metric]["median"]
            worse = [worse_by(first, later[name]["end_to_end"][metric]["median"], better[metric])
                     for later in sets[1:]]
            report["agreement"][name][metric] = worse
            if worse:
                verdict = "agrees" if max(worse) <= bound else "DISAGREES"
                print(f"{name:20s} {metric:14s} later sets worse by "
                      + " ".join(f"{w:+7.2%}" for w in worse) + f" bound {bound:.0%} {verdict}")
    if args.traced:
        report["per_layer"] = {}
        for name in names:
            result, _ = run_once(name, args.first_seed, spec["run_seconds"], 1)
            report["per_layer"][name] = {k: v["value"] for k, v in result["metrics"].items()}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
