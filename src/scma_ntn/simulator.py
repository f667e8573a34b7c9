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
from numbers import Integral

import numpy as np

from .analysis import snr_db_to_n0
from .codebook import CodebookSet
from .detection import MlDetector, MpaDetector
from .geometry import CellGeometry, pathloss_factor, sample_radii, sample_rician

__all__ = ["SimConfig", "BerResult", "run_ber_sweep"]


@dataclass(frozen=True)
class SimConfig:
    """Sweep settings: link parameters, SNR grid, stopping rule, detector."""

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
        for name in ("max_symbols", "target_errors", "batch_size", "threads", "iterations", "seed"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.max_symbols < 1 or self.target_errors < 1 or self.batch_size < 1:
            raise ValueError("counts must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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

    CSV_HEADER = "snr_db,user_rank,bits,errors,ber,ber_avg,ber_worst\n"

    def csv_rows(self, prefix: str = "") -> str:
        """The CSV rows under CSV_HEADER, one per (SNR point, user rank), each led by prefix."""
        return "".join(
            f"{prefix}{snr},{j + 1},{int(self.bits[si, j])},{int(self.errors[si, j])},"
            f"{self.ber[si, j]:.12g},{self.ber_avg[si]:.12g},{self.ber_worst[si]:.12g}\n"
            for si, snr in enumerate(self.snr_db)
            for j in range(self.errors.shape[1])
        )

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.CSV_HEADER + self.csv_rows())


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
    errors = np.zeros(j_users, dtype=np.int64)
    for r in range(j_users):
        c = col_of_rank[r]
        errors[r] = int(np.bitwise_count(tx_col[:, c] ^ decided[:, r, c]).sum())
    return errors


def run_ber_sweep(cfg: SimConfig, cbs: CodebookSet) -> BerResult:
    """BER over the SNR grid with the per-user stopping rule.

    Each point accumulates until every user rank has target_errors bit
    errors or max_symbols codewords were sent, whichever comes first.
    """
    dims = cbs.dims
    j_users = dims.j_users
    bits_per = dims.bits_per_symbol
    detect = _make_detector(cfg, cbs)
    snr_grid = np.asarray(cfg.snr_grid_db, dtype=float)
    all_errors = np.zeros((snr_grid.size, j_users), dtype=np.int64)
    all_bits = np.zeros((snr_grid.size, j_users), dtype=np.int64)
    n0s = [snr_db_to_n0(snr, dims) for snr in snr_grid]  # every point's N0 is checked before any runs

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        # One thread runs the batches on the calling thread, so no worker is started.
        run = map if cfg.threads == 1 else pool.map
        for si, n0 in enumerate(n0s):
            symbols = 0
            errors = np.zeros(j_users, dtype=np.int64)
            batch_counter = 0

            def stop() -> bool:
                return symbols >= cfg.max_symbols or errors.min() >= cfg.target_errors

            while not stop():
                wave = []
                budget = cfg.max_symbols - symbols
                for _ in range(cfg.threads):
                    size = min(cfg.batch_size, budget)
                    if size <= 0:
                        break
                    budget -= size
                    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, si, batch_counter)))
                    wave.append((size, rng))
                    batch_counter += 1
                results = list(run(lambda w: _run_batch(cfg, cbs, detect, n0, *w), wave))
                # Fold strictly in batch order and re-check the stopping rule per
                # batch, so the outcome does not depend on the worker count.
                for (size, _), res in zip(wave, results):
                    errors += res
                    symbols += size
                    if stop():
                        break
            all_errors[si] = errors
            all_bits[si] = symbols * bits_per
    return BerResult(snr_db=snr_grid, errors=all_errors, bits=all_bits)
