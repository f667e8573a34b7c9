"""The benchmark's workloads, each driving the public scma_ntn API.

A workload builds its inputs from the seed: seed % VARIANTS picks one of a
fixed set of input variants, and refs/<workload>.json holds the outputs the
package produced for every variant.  One task is the unit the benchmark
times and checks against that reference.
"""

import contextlib
import hashlib
import importlib
import io
import json
import shutil
import sys
import tempfile
from math import comb
from pathlib import Path

import numpy as np

VARIANTS = 16
BENCH_DIR = Path(__file__).resolve().parent
REFS_DIR = BENCH_DIR / "refs"
WORK_DIR = BENCH_DIR / "_work"

# Frozen 4x6 reference design shared with the package's detector and
# consistency tests: power-diverse groups, evenly spread rotations.
REF_DELTA = 1.5
REF_RHOS = (0.3, 0.6, 1.0)
REF_THETAS = (0.0, np.pi / 3, 2 * np.pi / 3)
KAPPA = 10.0


def import_package(with_cli=False):
    """Import scma_ntn afresh, so that its import time is part of set-up."""
    for name in [n for n in sys.modules if n == "scma_ntn" or n.startswith("scma_ntn.")]:
        del sys.modules[name]
    pkg = importlib.import_module("scma_ntn")
    if with_cli:
        importlib.import_module("scma_ntn.cli")
    return pkg


def reference_set(pkg):
    """The frozen 4x6 reference codebook set, built through the public API."""
    dims = pkg.SystemDims(4, 6, 4, 2)
    ops = tuple(pkg.ConstellationOperator(rho=r, theta=t) for r, t in zip(REF_RHOS, REF_THETAS))
    mc = pkg.build_mother_constellation(dims.m_order, dims.n_nonzero, REF_DELTA)
    return pkg.build_codebook_set(mc, pkg.assign_layers_and_power(ops, dims))


def union_terms_per_call(dims, truncation):
    """Union-bound terms one set_bep call enumerates: sum_{e<E*} C(J-1,e) P^(e+1) J."""
    j, pairs = dims.j_users, dims.m_order * (dims.m_order - 1)
    e_star = j if truncation is None else min(truncation, j)
    return sum(comb(j - 1, e) * pairs ** (e + 1) * j for e in range(e_star))


def mpa_hypotheses_per_reception(cbs, iterations):
    """Check-node hypotheses one MPA reception visits: iterations * sum_k M^d_k."""
    m = cbs.dims.m_order
    return iterations * sum(m ** len(users) for users in cbs.collision_sets())


def sweep_counts(bits_per_point, dims, max_symbols, batch_size):
    """Codewords, batches and stop reasons of a sweep, from the bits sent per SNR point.

    A point that reached max_symbols counts as stopped by the cap.
    """
    symbols = [b // dims.bits_per_symbol for b in bits_per_point]
    by_errors = sum(s < max_symbols for s in symbols)
    return {
        "simulator.codewords": sum(symbols),
        "simulator.batches": sum(-(-s // batch_size) for s in symbols),
        "simulator.points_stopped_by_errors": by_errors,
        "simulator.points_stopped_by_cap": len(symbols) - by_errors,
    }


def load_refs(name):
    path = REFS_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


class Workload:
    name = ""
    with_cli = False

    def __init__(self, seed):
        self.variant = seed % VARIANTS
        self.pkg = None
        self.tracer = None

    def span(self, name):
        """A span of the workload's own, recorded only in a traced run."""
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def setup(self):
        """Import the package and build what the task needs; timed, repeated."""
        self.pkg = import_package(self.with_cli)

    def key(self, rep):
        return f"variant{self.variant}"

    def task(self, rep):
        """Run one task and return its outputs as JSON-able values."""
        raise NotImplementedError

    def matches(self, out, ref):
        return out == ref

    def items(self, out):
        """Work items one task completed, the unit of items_per_s."""
        raise NotImplementedError

    def computed(self, out):
        """Exact work counts of one task, computed from its inputs and checked outputs."""
        return {}

    def union_terms(self):
        """Union-bound terms per set_bep call this workload makes (0 if none)."""
        return 0

    def trace_sites(self):
        """(owner, attribute, span name, counter) for every call the trace wraps."""
        pkg = self.pkg
        sim, opt, cli = pkg.simulator, pkg.optimizer, sys.modules.get("scma_ntn.cli")
        det = pkg.detection

        def receptions(key):
            def count(counters, args, result):
                counters[key] += len(np.atleast_2d(args[1]))

            return count

        def feasible(counters, args, result):
            counters["optimizer.feasible"] += bool(np.isfinite(result))

        sites = [
            (sim, "sample_rician", "geometry.sample_rician", None),
            (sim, "pathloss_factor", "geometry.pathloss_factor", None),
            (sim, "run_ber_sweep", "simulator.run_ber_sweep", None),
            (det.MpaDetector, "detect_batch", "detection.mpa", receptions("detection.mpa.receptions")),
            (det.MlDetector, "detect_batch", "detection.ml", receptions("detection.ml.receptions")),
            (det.MlDetector, "__init__", "detection.ml.setup", None),
            (pkg.analysis, "set_bep", "analysis.set_bep", None),
            (opt, "set_bep", "analysis.set_bep", None),
            (opt, "run_ga", "optimizer.run_ga", None),
            (opt, "fitness", "optimizer.fitness", feasible),
            (opt, "build_codebook_set", "codebook.build", None),
            (opt, "assign_layers_and_power", "layering.assign", None),
            (opt, "build_mother_constellation", "constellation.build", None),
        ]
        if cli is not None:
            sites += [
                (cli, "run_ber_sweep", "simulator.run_ber_sweep", None),
                (cli, "set_bep", "analysis.set_bep", None),
                (cli, "run_ga", "optimizer.run_ga", None),
                (cli, "export_codebook_set", "codebook.io", None),
                (cli, "import_codebook_set", "codebook.io", None),
            ]
        return sites

    def close(self):
        pass


class SweepRef46(Workload):
    """Monte Carlo BER sweep with the max-log MPA detector on the 4x6 set.

    Batches have the package's default size, 2048 codewords, so every MPA
    call detects 2048 x J receptions.  At 0 and 4 dB every user reaches
    target_errors in the first batch; at 20 and 24 dB the point stops at
    max_symbols, two batches.  So every variant sends the same 12288
    codewords, and both stopping rules run.
    """

    name = "sweep_ref46"
    ITERATIONS = 8

    def setup(self):
        super().setup()
        pkg = self.pkg
        self.cbs = reference_set(pkg)
        pkg.MpaDetector(self.cbs, iterations=self.ITERATIONS)
        self.cfg = pkg.SimConfig(
            kappa=KAPPA,
            snr_grid_db=(0.0, 4.0, 20.0, 24.0),
            max_symbols=4096,
            target_errors=100,
            batch_size=2048,
            iterations=self.ITERATIONS,
            seed=self.variant,
            threads=1,
        )

    def task(self, rep):
        res = self.pkg.simulator.run_ber_sweep(self.cfg, self.cbs)
        return {"errors": res.errors.tolist(), "bits": res.bits.tolist()}

    def items(self, out):
        return sum(row[0] for row in out["bits"]) // self.cbs.dims.bits_per_symbol

    def computed(self, out):
        dims = self.cbs.dims
        counts = sweep_counts([row[0] for row in out["bits"]], dims, self.cfg.max_symbols, self.cfg.batch_size)
        counts["detection.mpa.hypotheses"] = (
            counts["simulator.codewords"]
            * dims.j_users
            * mpa_hypotheses_per_reception(self.cbs, self.cfg.iterations)
        )
        return counts


class GaDesign510(Workload):
    """GA design on 5x10 (d_f = 4) with the truncated E* = 3 fitness."""

    name = "ga_design_5x10"
    POPULATION = 8
    GENERATIONS = 3

    def setup(self):
        super().setup()
        pkg = self.pkg
        self.space = pkg.DesignSpace(dims=pkg.SystemDims(5, 10, 4, 2))
        pkg.candidate_codebooks(pkg.baseline_candidate(self.space), self.space)
        self.cfg = pkg.GaConfig(
            population=self.POPULATION,
            generations=self.GENERATIONS,
            design_snr_db=12.0,
            kappa=KAPPA,
            truncation=3,
            seed=self.variant,
            workers=1,
        )

    def task(self, rep):
        res = self.pkg.optimizer.run_ga(self.space, self.cfg)
        return {
            "best": res.best.as_vector().tolist(),
            "best_fitness": res.best.fitness,
            "history": res.history.tolist(),
        }

    def items(self, out):
        cfg = self.cfg
        return cfg.population + cfg.generations * (cfg.population - cfg.elitism)

    def computed(self, out):
        return {
            "optimizer.candidates": self.items(out),
            "optimizer.generations": self.cfg.generations,
        }

    def union_terms(self):
        return union_terms_per_call(self.space.dims, self.cfg.truncation)


class ExactBound46(Workload):
    """Exact (untruncated) mean-mode union bounds on the 4x6 set, one SNR point per task."""

    name = "exact_bound_ref46"
    SNR_GRID = tuple(1.5 * i for i in range(VARIANTS))

    def setup(self):
        super().setup()
        self.cbs = reference_set(self.pkg)
        self.geom = self.pkg.CellGeometry()

    def snr(self, rep):
        return self.SNR_GRID[(self.variant + rep) % len(self.SNR_GRID)]

    def key(self, rep):
        return f"snr{self.snr(rep):g}"

    def task(self, rep):
        analysis = self.pkg.analysis
        n0 = analysis.snr_db_to_n0(self.snr(rep), self.cbs.dims)
        res = analysis.set_bep(self.cbs, self.geom, KAPPA, n0, truncation=None)
        return {"per_user": res.per_user.tolist()}

    def matches(self, out, ref):
        got, want = np.asarray(out["per_user"]), np.asarray(ref["per_user"])
        return got.shape == want.shape and bool(np.all(np.abs(got - want) <= 1e-12 * np.abs(want)))

    def items(self, out):
        return len(out["per_user"])

    def union_terms(self):
        return union_terms_per_call(self.cbs.dims, None)


class Cli46(Workload):
    """CLI design -> analyze -> simulate (ML detector) on 4x6, in-process.

    The outputs must be byte-identical to the single-thread reference, which
    checks that the worker count does not change a result.
    """

    name = "cli_ref46"
    with_cli = True
    OUTPUTS = ("designed_codebook.txt", "design_history.csv", "bep.csv", "ber.csv")
    POPULATION = 6
    GENERATIONS = 1
    # The package's default batch size; two batches per SNR point, so each
    # point is one wave on the two worker threads.
    MAX_SYMBOLS = 4096
    BATCH_SIZE = 2048
    CONFIG = (
        f"[simulate]\nmax_symbols = {MAX_SYMBOLS}\ntarget_errors = 100\nbatch_size = {BATCH_SIZE}\n"
        f"[design]\npopulation = {POPULATION}\ngenerations = {GENERATIONS}\n"
    )

    def __init__(self, seed, threads=2):
        super().__init__(seed)
        self.threads = threads
        WORK_DIR.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli_", dir=WORK_DIR))
        self.config = self.work / "bench.ini"
        self.config.write_text(self.CONFIG)

    def setup(self):
        super().setup()
        self.cbs = reference_set(self.pkg)
        self.pkg.MlDetector(self.cbs)

    def commands(self, out):
        common = ["--config", str(self.config), "--seed", str(self.variant),
                  "--threads", str(self.threads), "--out", str(out)]
        codebook = ["--codebook", str(out / "designed_codebook.txt")]
        return [
            ("design", ["design"] + common),
            ("analyze", ["analyze"] + common + codebook + ["--snr-grid", "0,6,12,18"]),
            ("simulate", ["simulate"] + common + codebook + ["--snr-grid", "0,20", "--detector", "ml"]),
        ]

    def task(self, rep):
        main = sys.modules["scma_ntn.cli"].main
        out = self.work / f"rep{rep}"
        try:
            for step, argv in self.commands(out):
                with self.span(f"cli.{step}"), contextlib.redirect_stdout(io.StringIO()):
                    code = main(argv)
                if code != 0:
                    raise RuntimeError(f"cli {step} exited with {code}")
            result = {
                "sha256": {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in self.OUTPUTS},
                "codebook_bytes": (out / "designed_codebook.txt").stat().st_size,
                "ber_bits": [int(line.split(",")[2]) for line in (out / "ber.csv").read_text().splitlines()[1:]],
            }
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return result

    def items(self, out):
        return 1

    def computed(self, out):
        counts = sweep_counts(out["ber_bits"][:: self.cbs.dims.j_users], self.cbs.dims, self.MAX_SYMBOLS, self.BATCH_SIZE)
        return counts | {
            # exported once by design, imported once each by analyze and simulate
            "codebook.io.bytes": 3 * out["codebook_bytes"],
            "optimizer.candidates": self.POPULATION
            + self.GENERATIONS * (self.POPULATION - self.pkg.GaConfig().elitism),
            "optimizer.generations": self.GENERATIONS,
        }

    def union_terms(self):
        return union_terms_per_call(self.cbs.dims, 3)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


WORKLOADS = {w.name: w for w in (SweepRef46, GaDesign510, ExactBound46, Cli46)}
