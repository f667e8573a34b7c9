"""Genetic-algorithm search over (delta, {rho_i, theta_i}).

The decision vector is the MC amplitude parameter plus the d_f shared
constellation operators; fitness is the worst-user analytical BEP of the
codebook set those parameters induce at the design SNR.  A generational GA
with elitism, tournament selection, blend crossover and clipped Gaussian
mutation minimizes it over one (population, dimension) array of decision
vectors.  Runs are bit-reproducible for a given seed.
"""

from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .analysis import set_bep, snr_db_to_n0
from .codebook import CodebookSet, build_codebook_set
from .constellation import build_mother_constellation
from .geometry import CellGeometry
from .layering import ConstellationOperator, SystemDims, assign_layers_and_power, check_counts

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
# GA recipe: tournament size, crossover probability, blend-crossover alpha,
# per-parameter mutation probability, and the mutation standard deviation as
# a fraction of each parameter's range.
TOURNAMENT = 3
CROSSOVER_RATE = 0.9
BLEND_ALPHA = 0.5
MUTATION_RATE = 0.15
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
    """GA settings; defaults follow the documented reproducible recipe.

    elitism, the candidates each generation keeps, is fixed with TOURNAMENT
    and the rates.  Counts are integers >= 1, population >= elitism + 1 and
    seed >= 0.
    """

    elitism: ClassVar[int] = 2
    population: int = 50
    generations: int = 20
    design_snr_db: float = 12.0
    kappa: float = 10.0
    geometry: CellGeometry = field(default_factory=CellGeometry)
    truncation: int | None = 3
    seed: int = 0
    # Accepted and validated, but changes neither results nor speed: every
    # generation is scored by one call on the calling thread.
    workers: int = 1

    def __post_init__(self):
        check_counts(self, population=self.elitism + 1, generations=1, workers=1, seed=0)
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not np.isfinite(self.design_snr_db):
            raise ValueError(f"design SNR must be finite, got {self.design_snr_db}")
        if self.truncation is not None:
            check_counts(self, truncation=1)


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


def baseline_candidate(space: DesignSpace) -> Candidate:
    """Equal-power, unrotated reference point (users in a group coincide), at delta = 2."""
    d = space.n_operators
    return Candidate(delta=2.0, rhos=(1.0,) * d, thetas=(0.0,) * d)


def candidate_codebooks(cand: Candidate, space: DesignSpace) -> CodebookSet:
    """Assemble the normalized codebook set a candidate encodes."""
    dims = space.dims
    mc = build_mother_constellation(dims.m_order, dims.n_nonzero, cand.delta)
    sig = assign_layers_and_power(cand.sorted_operators(), dims)
    return build_codebook_set(mc, sig)


def fitness(cand: Candidate, cfg: GaConfig, space: DesignSpace) -> float:
    """Worst-user BEP bound of the candidate's set at the design SNR.

    A candidate outside the operators' domain (delta < 1, rho outside
    (0, 1], theta outside [0, pi)) raises their ValueError, and dims with no
    layer packing raise LayeringError.
    """
    return _evaluate(cand.as_vector()[None], cfg, space)[0]


def _evaluate(vectors: np.ndarray, cfg: GaConfig, space: DesignSpace) -> np.ndarray:
    """Worst-user bounds (P,) of the (P, dimension) decision vectors, from one set_bep call.

    run_ga draws every vector through space.clip, so each one builds.
    """
    sets = [candidate_codebooks(Candidate.from_vector(v, space.n_operators), space) for v in vectors]
    n0 = snr_db_to_n0(cfg.design_snr_db, space.dims)
    bounds = set_bep(sets, cfg.geometry, cfg.kappa, n0, truncation=cfg.truncation)
    return np.array([b.worst for b in bounds])


def run_ga(space: DesignSpace, cfg: GaConfig) -> GaResult:
    """Generational GA with elitism; history of the best fitness per generation.

    The elite lead, so a generation's first lowest fitness is the best so far,
    ties included.  Tournaments and the returned best also take the first lowest.
    """
    rng = np.random.default_rng(cfg.seed)
    lo, hi = space.lower(), space.upper()
    pop = rng.uniform(space.clip(lo), hi, size=(cfg.population, space.dimension))
    fit = _evaluate(pop, cfg, space)
    history = []
    sigma = MUTATION_SIGMA_FRAC * (hi - lo)
    for _ in range(cfg.generations):
        children = []
        while len(children) < cfg.population - cfg.elitism:
            draws = [rng.integers(0, cfg.population, TOURNAMENT) for _ in range(2)]
            p1, p2 = (pop[d[fit[d].argmin()]] for d in draws)
            child = p1
            if rng.random() < CROSSOVER_RATE:
                lo_g = np.minimum(p1, p2)
                hi_g = np.maximum(p1, p2)
                span = hi_g - lo_g
                child = rng.uniform(lo_g - BLEND_ALPHA * span, hi_g + BLEND_ALPHA * span)
            mutate = rng.random(space.dimension) < MUTATION_RATE
            child = child + mutate * rng.normal(0.0, 1.0, space.dimension) * sigma
            children.append(space.clip(child))
        elite = np.argsort(fit, kind="stable")[: cfg.elitism]
        pop = np.concatenate([pop[elite], children])
        fit = np.concatenate([fit[elite], _evaluate(pop[cfg.elitism :], cfg, space)])
        history.append(fit.min())
    i = fit.argmin()
    best = replace(Candidate.from_vector(pop[i], space.n_operators), fitness=float(fit[i]))
    return GaResult(best=best, codebooks=candidate_codebooks(best, space), history=np.array(history))
