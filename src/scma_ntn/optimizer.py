"""Genetic-algorithm search over (delta, {rho_i, theta_i}).

The decision vector is the MC amplitude parameter plus the d_f shared
constellation operators; fitness is the worst-user analytical BEP of the
codebook set those parameters induce at the design SNR.  A generational GA
with elitism, tournament selection, blend crossover and clipped Gaussian
mutation minimizes it.  Runs are bit-reproducible for a given seed.
"""

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .analysis import set_bep, snr_db_to_n0
from .codebook import CodebookSet, build_codebook_set
from .constellation import build_mother_constellation
from .geometry import CellGeometry
from .layering import ConstellationOperator, LayeringError, SystemDims, assign_layers_and_power

__all__ = [
    "DesignSpace",
    "GaConfig",
    "Candidate",
    "GaResult",
    "baseline_candidate",
    "candidate_codebooks",
    "fitness",
    "run_ga",
]

# Design box: delta in (1, DELTA_MAX], rho in [RHO_MIN, 1], theta in [0, pi).
DELTA_MAX = 4.0
RHO_MIN = 0.05
# GA recipe: tournament size, blend-crossover alpha, and the mutation
# standard deviation as a fraction of each parameter's range.
TOURNAMENT = 3
BLEND_ALPHA = 0.5
MUTATION_SIGMA_FRAC = 0.1


@dataclass(frozen=True)
class DesignSpace:
    """Box bounds of the 2*d_f + 1 design parameters for given dims."""

    dims: SystemDims

    @property
    def n_operators(self) -> int:
        return self.dims.df_collisions

    @property
    def dimension(self) -> int:
        return 2 * self.n_operators + 1

    def lower(self) -> np.ndarray:
        d = self.n_operators
        return np.concatenate([[1.0], np.full(d, RHO_MIN), np.zeros(d)])

    def upper(self) -> np.ndarray:
        d = self.n_operators
        # theta strictly below pi; delta strictly above 1 is enforced by clip epsilon
        return np.concatenate([[DELTA_MAX], np.ones(d), np.full(d, np.pi - 1e-9)])

    def clip(self, vec: np.ndarray) -> np.ndarray:
        lo = self.lower()
        lo[0] = np.nextafter(1.0, 2.0)
        return np.clip(vec, lo, self.upper())


@dataclass(frozen=True)
class GaConfig:
    """GA settings; defaults follow the documented reproducible recipe."""

    population: int = 50
    generations: int = 20
    design_snr_db: float = 12.0
    kappa: float = 10.0
    geometry: CellGeometry = field(default_factory=CellGeometry)
    elitism: int = 2
    crossover_rate: float = 0.9
    mutation_rate: float = 0.15
    truncation: int | None = 3
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must be in [0, population)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        for name in ("crossover_rate", "mutation_rate"):
            rate = getattr(self, name)
            if not (np.isfinite(rate) and 0.0 <= rate <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if not np.isfinite(self.design_snr_db):
            raise ValueError(f"design SNR must be finite, got {self.design_snr_db}")
        if self.truncation is not None and not (
            isinstance(self.truncation, Integral) and self.truncation >= 1
        ):
            raise ValueError(f"truncation must be None or an integer >= 1, got {self.truncation!r}")


@dataclass(frozen=True)
class Candidate:
    """One decision vector: MC amplitude parameter plus d_f operators."""

    delta: float
    rhos: tuple
    thetas: tuple
    fitness: float | None = None

    def as_vector(self) -> np.ndarray:
        return np.concatenate([[self.delta], self.rhos, self.thetas])

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_operators: int) -> "Candidate":
        return cls(
            delta=float(vec[0]),
            rhos=tuple(float(x) for x in vec[1 : 1 + n_operators]),
            thetas=tuple(float(x) for x in vec[1 + n_operators :]),
        )

    def sorted_operators(self) -> tuple:
        """Operators ordered by ascending rho, as the assignment requires."""
        order = np.argsort(np.asarray(self.rhos), kind="stable")
        return tuple(
            ConstellationOperator(rho=self.rhos[i], theta=self.thetas[i]) for i in order
        )


@dataclass(frozen=True)
class GaResult:
    best: Candidate
    codebooks: CodebookSet
    history: np.ndarray

    def write_history_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["generation", "best_worst_bep"])
            for g, v in enumerate(self.history):
                writer.writerow([g + 1, format(v, ".12g")])


def baseline_candidate(space: DesignSpace, delta: float = 2.0) -> Candidate:
    """Equal-power, unrotated reference point (users in a group coincide)."""
    d = space.n_operators
    return Candidate(delta=delta, rhos=(1.0,) * d, thetas=(0.0,) * d)


def candidate_codebooks(cand: Candidate, space: DesignSpace) -> CodebookSet:
    """Assemble the normalized codebook set a candidate encodes."""
    dims = space.dims
    mc = build_mother_constellation(dims.m_order, dims.n_nonzero, cand.delta)
    sig = assign_layers_and_power(cand.sorted_operators(), dims)
    return build_codebook_set(mc, sig)


def fitness(cand: Candidate, cfg: GaConfig, space: DesignSpace) -> float:
    """Worst-user BEP bound of the candidate's set at the design SNR.

    Out-of-bounds or structurally infeasible candidates score +inf.
    """
    dims = space.dims
    lo, hi = space.lower(), space.upper()
    vec = cand.as_vector()
    if cand.delta <= 1.0 or np.any(vec < lo - 1e-12) or np.any(vec > hi + 1e-12):
        return float("inf")
    try:
        cbs = candidate_codebooks(cand, space)
    except (LayeringError, ValueError):
        return float("inf")
    n0 = snr_db_to_n0(cfg.design_snr_db, dims)
    return set_bep(cbs, cfg.geometry, cfg.kappa, n0, truncation=cfg.truncation).worst


def _evaluate(population, cfg: GaConfig, space: DesignSpace):
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            scores = list(pool.map(lambda c: fitness(c, cfg, space), population))
    else:
        scores = [fitness(c, cfg, space) for c in population]
    return [replace(c, fitness=s) for c, s in zip(population, scores)]


def run_ga(space: DesignSpace, cfg: GaConfig, initial=None) -> GaResult:
    """Generational GA with elitism; history of best fitness per generation.

    With elitism >= 1 the history is non-increasing.  initial seeds the
    first population (padded with uniform draws if short).  The returned
    codebook set is rebuilt from the best-ever candidate.
    """
    rng = np.random.default_rng(cfg.seed)
    n_ops = space.n_operators
    lo, hi = space.lower(), space.upper()
    lo_open = lo.copy()
    lo_open[0] = np.nextafter(1.0, 2.0)

    pop_vecs = rng.uniform(lo_open, hi, size=(cfg.population, space.dimension))
    seeded = list(initial or [])[: cfg.population]
    candidates = seeded + [
        Candidate.from_vector(v, n_ops) for v in pop_vecs[len(seeded) :]
    ]
    population = _evaluate(candidates, cfg, space)

    def tournament_pick():
        idx = rng.integers(0, len(population), TOURNAMENT)
        return min(idx, key=lambda i: population[i].fitness)

    history = []
    best = min(population, key=lambda c: c.fitness)
    sigma = MUTATION_SIGMA_FRAC * (hi - lo)
    for _ in range(cfg.generations):
        elite = sorted(population, key=lambda c: c.fitness)[: cfg.elitism]
        children = []
        while len(children) < cfg.population - cfg.elitism:
            p1 = population[tournament_pick()].as_vector()
            p2 = population[tournament_pick()].as_vector()
            if rng.random() < cfg.crossover_rate:
                lo_g = np.minimum(p1, p2)
                hi_g = np.maximum(p1, p2)
                span = hi_g - lo_g
                child = rng.uniform(lo_g - BLEND_ALPHA * span, hi_g + BLEND_ALPHA * span)
            else:
                child = p1.copy()
            mutate = rng.random(space.dimension) < cfg.mutation_rate
            child = child + mutate * rng.normal(0.0, 1.0, space.dimension) * sigma
            children.append(Candidate.from_vector(space.clip(child), n_ops))
        population = elite + _evaluate(children, cfg, space)
        gen_best = min(population, key=lambda c: c.fitness)
        if gen_best.fitness < best.fitness:
            best = gen_best
        history.append(best.fitness)
    return GaResult(best=best, codebooks=candidate_codebooks(best, space), history=np.array(history))
