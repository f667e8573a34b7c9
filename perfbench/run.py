"""Benchmark of the scma-ntn pipeline: BER sweep, GA design, exact bounds and CLI.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload sweep_ref46 --seed 1 --seconds 25 --trace 0

It sets the workload up several times (timed), then repeats the workload's
task until --seconds have passed, checks every output against
perfbench/refs, and prints a report followed by one JSON line with the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).  A traced
run alternates untraced and traced tasks; its per-layer numbers are per task.
"""

import os

# Pin BLAS to one thread before numpy loads.  OpenBLAS would start one thread
# per core, competing with cli_ref46's two worker threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 41
MIN_TASKS = 3
MIN_TRACED_PAIRS = 2


def git_rev():
    """The commit of a git checkout, or None outside one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def openblas_info():
    """(version string, thread count) of the OpenBLAS numpy loaded, if found."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_config().decode(), get_threads()
    return None, None


def environment():
    import scipy

    blas, blas_threads = openblas_info()
    digest = hashlib.sha256()
    for path in sorted((SRC / "scma_ntn").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "git_rev": git_rev(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "blas_threads": blas_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def percentile(values, pct):
    return float(numpy.percentile(values, pct)) if values else 0.0


def tail_pct(n):
    """Highest percentile with at least 10 samples beyond it, but never below the median."""
    return max(50.0, math.floor(1000 * (1 - 10 / n)) / 10) if n else 0.0


def run_task(wl, refs, rep):
    """Run and check one task: (ok, output, wall seconds)."""
    start = time.perf_counter()
    try:
        out = wl.task(rep)
    except Exception:
        traceback.print_exc()
        return False, None, time.perf_counter() - start
    wall = time.perf_counter() - start
    ref = refs.get(wl.key(rep))
    ok = ref is not None and wl.matches(out, ref)
    if not ok:
        print(f"check failed: {wl.name} {wl.key(rep)}", file=sys.stderr)
    return ok, out, wall


def measure(wl, refs, seconds):
    """Untraced tasks until the time is up: end-to-end metrics and failures."""
    walls, rates, failed = [], [], 0
    start = time.perf_counter()
    while True:
        ok, out, wall = run_task(wl, refs, len(walls))
        walls.append(wall)
        failed += not ok
        if out is not None:
            rates.append(wl.items(out) / wall)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_TASKS and elapsed + statistics.median(walls) > seconds:
            break
    print("task_s samples " + " ".join(f"{w:.4f}" for w in walls))
    metrics = {
        "items_per_s": statistics.median(rates) if rates else 0.0,
        "task_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, len(walls), failed


def traced(wl, refs, seconds, tracer):
    """A warm-up task, then pairs of an untraced and a traced task until the time is up.

    Without the warm-up, first-call costs would land in the untraced half
    and make the tracing overhead look negative.
    """
    start = time.perf_counter()
    ok, _, _ = run_task(wl, refs, 0)
    plain, with_trace, failed, last = [], [], int(not ok), None
    while True:
        rep = len(plain)
        ok, _, wall = run_task(wl, refs, rep)
        plain.append(wall)
        failed += not ok
        for owner, attr, name, count in wl.trace_sites():
            tracer.wrap(owner, attr, name, count)
        wl.tracer = tracer
        try:
            ok, out, wall = run_task(wl, refs, rep)
        finally:
            tracer.unwrap()
            wl.tracer = None
        with_trace.append(wall)
        failed += not ok
        last = out if out is not None else last
        elapsed = time.perf_counter() - start
        pair = statistics.median(p + t for p, t in zip(plain, with_trace))
        if len(plain) >= MIN_TRACED_PAIRS and elapsed + pair > seconds:
            break
    return plain, with_trace, failed, last


def layer_metrics(wl, tracer, n, plain, with_trace, last, failed_share):
    """Per-layer metrics per traced task, plus the labels of the computed counts."""
    m = {}

    def busy(name):
        return sum(tracer.durations(name))

    def calls(name):
        return len(tracer.durations(name))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def latency(prefix, name):
        ms = [1000 * d for d in tracer.durations(name)]
        pct = tail_pct(len(ms))
        m[f"{prefix}.call_ms_p50"] = percentile(ms, 50)
        m[f"{prefix}.call_ms_tail"] = percentile(ms, pct)
        m[f"{prefix}.call_ms_tail_pct"] = pct
        m[f"{prefix}.call_samples"] = len(ms)

    counters = tracer.counters
    computed = dict.fromkeys(
        [
            "detection.mpa.hypotheses",
            "simulator.codewords",
            "simulator.batches",
            "simulator.points_stopped_by_errors",
            "simulator.points_stopped_by_cap",
            "optimizer.candidates",
            "optimizer.generations",
            "codebook.io.bytes",
        ],
        0,
    )
    if last is not None:
        computed.update(wl.computed(last))
    m.update(computed)

    m["detection.mpa.calls"] = calls("detection.mpa") / n
    m["detection.mpa.receptions"] = counters["detection.mpa.receptions"] / n
    m["detection.mpa.busy_s"] = busy("detection.mpa") / n
    m["detection.mpa.receptions_per_s"] = rate(counters["detection.mpa.receptions"], busy("detection.mpa"))
    latency("detection.mpa", "detection.mpa")
    m["detection.mpa.share"] = rate(busy("detection.mpa"), busy("simulator.run_ber_sweep"))
    m["detection.ml.setup_s"] = busy("detection.ml.setup") / n
    m["detection.ml.receptions"] = counters["detection.ml.receptions"] / n
    m["detection.ml.busy_s"] = busy("detection.ml") / n
    m["detection.ml.receptions_per_s"] = rate(counters["detection.ml.receptions"], busy("detection.ml"))
    m["geometry.sample_rician.calls"] = calls("geometry.sample_rician") / n
    m["geometry.sample_rician.busy_s"] = busy("geometry.sample_rician") / n
    m["geometry.pathloss_factor.busy_s"] = busy("geometry.pathloss_factor") / n
    m["analysis.set_bep.calls"] = calls("analysis.set_bep") / n
    m["analysis.set_bep.busy_s"] = busy("analysis.set_bep") / n
    latency("analysis.set_bep", "analysis.set_bep")
    terms = calls("analysis.set_bep") * wl.union_terms()
    m["analysis.union_terms"] = terms / n
    m["analysis.union_terms_per_s"] = rate(terms, busy("analysis.set_bep"))
    m["optimizer.feasible_ratio"] = rate(counters["optimizer.feasible"], calls("optimizer.fitness"))
    m["optimizer.fitness.busy_s"] = busy("optimizer.fitness") / n
    m["codebook.build.calls"] = calls("codebook.build") / n
    m["codebook.build.busy_s"] = busy("codebook.build") / n
    m["codebook.io.busy_s"] = busy("codebook.io") / n
    m["layering.assign.calls"] = calls("layering.assign") / n
    m["layering.assign.busy_s"] = busy("layering.assign") / n
    m["constellation.build.busy_s"] = busy("constellation.build") / n
    for step in ("design", "analyze", "simulate"):
        m[f"cli.{step}_s"] = busy(f"cli.{step}") / n
    for layer in ("detection", "geometry", "simulator", "analysis", "optimizer", "codebook", "layering", "cli"):
        m[f"{layer}.self_s"] = tracer.layer_self_s(layer) / n
    # Each traced task is paired with the untraced task just before it, so
    # the host's slow drift in speed cancels out of the difference.
    m["trace.overhead_s"] = statistics.median(t - p for p, t in zip(plain, with_trace))
    m["checks.failed_share"] = failed_share
    labels = dict.fromkeys(m, "traced")
    labels.update(dict.fromkeys(list(computed) + ["analysis.union_terms"], "computed"))
    labels.update({"trace.overhead_s": "measured", "checks.failed_share": "measured"})
    return m, labels


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scma_ntn" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'scma_ntn'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import WORKLOADS, load_refs

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    refs = load_refs(wl.name)
    try:
        setup_walls = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setup_walls.append(time.perf_counter() - start)
        if not Path(wl.pkg.__file__).resolve().is_relative_to(SRC):
            print(f"scma_ntn imported from {wl.pkg.__file__}, not {SRC}", file=sys.stderr)
            return 2
        env = environment()
        if args.trace:
            tracer = Tracer()
            plain, with_trace, failed, last = traced(wl, refs, args.seconds, tracer)
            attempted = 1 + 2 * len(plain)
            metrics, labels = layer_metrics(
                wl, tracer, len(with_trace), plain, with_trace, last, failed / attempted
            )
        else:
            metrics, attempted, failed = measure(wl, refs, args.seconds)
            metrics["setup_s"] = statistics.median(setup_walls)
            labels = dict.fromkeys(metrics, "measured")
    finally:
        wl.close()

    if set(metrics) != set(units):
        print(f"metric set differs from BENCHMARK.json {group}: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {wl.name} variant {wl.variant} tasks {attempted} failed {failed}")
    print("setup_s samples " + " ".join(f"{s:.6f}" for s in setup_walls))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>18.6g} {units[name]:8s} {labels[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
