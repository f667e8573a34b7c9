"""Monte Carlo bit error rate harness for the downlink.

Each trial re-draws user positions (sorted into distance ranks), pairs the
rank-r user with the rank-r power column of the codebook set, transmits one
superimposed codeword, and detects at every receiver through its own
Rician/path-loss channel, counting only that receiver's bits.  Per-SNR
accumulation stops at a target bit-error count per user or a symbol cap.

Reproducibility: the sweep derives one child random stream per (seed,
snr index, batch index), so results are bit-identical for a given seed and
batch structure regardless of the worker count.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .analysis import snr_db_to_n0
from .codebook import CodebookSet
from .detection import MlDetector, MpaDetector
from .geometry import CellGeometry, pathloss_factor, sample_radii, sample_rician
from .layering import check_counts

__all__ = ["SimConfig", "BerResult", "run_ber_sweep"]


@dataclass(frozen=True)
class SimConfig:
    """Sweep settings: link parameters, SNR grid, stopping rule, detector; counts >= 1, seed >= 0."""

    kappa: float = 10.0
    geometry: CellGeometry = field(default_factory=CellGeometry)
    snr_grid_db: tuple = (0.0, 4.0, 8.0, 12.0, 16.0)
    max_symbols: int = 200_000
    target_errors: int = 100
    detector: str = "mpa"
    iterations: int = 8
    seed: int = 0
    batch_size: int = 2048
    threads: int = 1

    def __post_init__(self):
        check_counts(self, max_symbols=1, target_errors=1, batch_size=1, threads=1, iterations=1, seed=0)
        if not (np.isfinite(self.kappa) and self.kappa >= 0):
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not np.all(np.isfinite(self.snr_grid_db)):
            raise ValueError(f"snr grid values must be finite, got {self.snr_grid_db}")
        if list(self.snr_grid_db) != sorted(self.snr_grid_db):
            raise ValueError("snr grid must be sorted ascending")
        if self.detector not in ("mpa", "ml"):
            raise ValueError(f"unknown detector {self.detector!r}")


@dataclass(frozen=True)
class BerResult:
    """Bit errors and bits per (SNR point, user rank), with summary BERs."""

    snr_db: np.ndarray
    errors: np.ndarray
    bits: np.ndarray

    @property
    def ber(self) -> np.ndarray:
        return self.errors / np.maximum(self.bits, 1)

    @property
    def ber_avg(self) -> np.ndarray:
        return self.ber.mean(axis=1)

    @property
    def ber_worst(self) -> np.ndarray:
        return self.ber.max(axis=1)


def _make_detector(cfg: SimConfig, cbs: CodebookSet):
    if cfg.detector == "ml":
        det = MlDetector(cbs)
        return lambda y, h, n0: det.detect_batch(y, h)
    det = MpaDetector(cbs, iterations=cfg.iterations)
    return lambda y, h, n0: det.detect_batch(y, h, n0)


def _run_batch(cfg: SimConfig, cbs: CodebookSet, detect, n0: float, batch: int, rng):
    """Vectorized batch of trials; returns per-rank error counts (J,).

    Distances are sorted ascending, so row r of c2 is the rank-r user; it is
    served by col_of_rank[r], the r-th weakest column (CodebookSet.columns_by_rank).
    Draw order (radii, tx indices, channels, noise) is fixed, so a seeded
    generator reproduces the counts bit-identically.
    """
    dims = cbs.dims
    j_users, k, m_order = dims.j_users, dims.k_resources, dims.m_order
    c2 = np.sort(sample_radii((batch, j_users), rng), axis=1)
    col_of_rank = cbs.columns_by_rank()
    tx_col = rng.integers(0, m_order, (batch, j_users))
    superposed = cbs.superimpose(tx_col)
    g = sample_rician((batch, j_users, k), cfg.kappa, rng)
    noise = np.sqrt(n0 / 2.0) * (
        rng.standard_normal((batch, j_users, k)) + 1j * rng.standard_normal((batch, j_users, k))
    )
    plf = pathloss_factor(cfg.geometry, c2)  # (batch, J), rank order
    h = plf[:, :, None] * g
    y = h * superposed[:, None, :] + noise
    decided = detect(y.reshape(-1, k), h.reshape(-1, k), n0).reshape(batch, j_users, j_users)
    own = decided[:, np.arange(j_users), col_of_rank]  # (batch, J): each receiver's own column
    return np.bitwise_count(tx_col[:, col_of_rank] ^ own).sum(axis=0, dtype=np.int64)


def run_ber_sweep(cfg: SimConfig, cbs: CodebookSet) -> BerResult:
    """BER over the SNR grid with the per-user stopping rule.

    Point s has ceil(max_symbols / batch_size) batches; batch b sends
    min(batch_size, max_symbols - b * batch_size) codewords drawn from
    SeedSequence((seed, s, b)).  Batches run in waves of `threads`, the first on
    the calling thread, and fold in batch order, so the thread count changes no
    count; the point stops at the first batch whose fold gives every user rank
    target_errors bit errors, or at its last batch.
    """
    dims = cbs.dims
    detect = _make_detector(cfg, cbs)
    snr_grid = np.asarray(cfg.snr_grid_db, dtype=float)
    all_errors = np.zeros((snr_grid.size, dims.j_users), dtype=np.int64)
    all_bits = np.zeros_like(all_errors)
    n0s = [snr_db_to_n0(snr, dims) for snr in snr_grid]  # every point's N0 is checked before any runs
    n_batches = -(-cfg.max_symbols // cfg.batch_size)

    def numbered_batch(si: int, n0: float, b: int) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, si, b)))
        return _run_batch(cfg, cbs, detect, n0, min(cfg.batch_size, cfg.max_symbols - b * cfg.batch_size), rng)

    with ThreadPoolExecutor(max_workers=max(cfg.threads - 1, 1)) as pool:
        for si, n0 in enumerate(n0s):
            errors = all_errors[si]  # a view: each fold lands in all_errors
            b = -1  # the last batch folded
            while b + 1 < n_batches and errors.min() < cfg.target_errors:
                wave = range(b + 1, min(b + 1 + cfg.threads, n_batches))
                rest = pool.map(partial(numbered_batch, si, n0), wave[1:])  # submitted first, to run beside wave[0]
                for b, res in zip(wave, [numbered_batch(si, n0, wave[0]), *rest]):
                    errors += res
                    if errors.min() >= cfg.target_errors:
                        break
            all_bits[si] = min((b + 1) * cfg.batch_size, cfg.max_symbols) * dims.bits_per_symbol
    return BerResult(snr_db=snr_grid, errors=all_errors, bits=all_bits)
