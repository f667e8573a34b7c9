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
    fixed_distance_ratios: tuple | None = None
    batch_size: int = 2048
    threads: int = 1

    def __post_init__(self):
        if self.max_symbols < 1 or self.target_errors < 1 or self.batch_size < 1:
            raise ValueError("counts must be positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if list(self.snr_grid_db) != sorted(self.snr_grid_db):
            raise ValueError("snr grid must be sorted ascending")
        if self.detector not in ("mpa", "ml"):
            raise ValueError(f"unknown detector {self.detector!r}")
        if self.fixed_distance_ratios is not None and not all(
            0.0 <= r <= 1.0 for r in self.fixed_distance_ratios
        ):
            raise ValueError(
                f"fixed distance ratios must lie in [0, 1], got {self.fixed_distance_ratios}"
            )


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

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("snr_db,user_rank,bits,errors,ber,ber_avg,ber_worst\n")
            for si, snr in enumerate(self.snr_db):
                for j in range(self.errors.shape[1]):
                    fh.write(
                        f"{snr},{j + 1},{int(self.bits[si, j])},{int(self.errors[si, j])},"
                        f"{self.ber[si, j]:.12g},{self.ber_avg[si]:.12g},{self.ber_worst[si]:.12g}\n"
                    )


def _make_detector(cfg: SimConfig, cbs: CodebookSet):
    if cfg.detector == "ml":
        det = MlDetector(cbs)
        return lambda y, h, n0: det.detect_batch(y, h)
    det = MpaDetector(cbs, iterations=cfg.iterations)
    return lambda y, h, n0: det.detect_batch(y, h, n0)


def _run_batch(cfg: SimConfig, cbs: CodebookSet, detect, n0: float, batch: int, rng):
    """Vectorized batch of trials; returns per-rank error counts (J,).

    Distances are sorted ascending, so row r of c2 is the rank-r user; it is
    served by col_of_rank[r], the r-th weakest column (ties by index).
    Draw order (radii, tx indices, channels, noise) is fixed, so a seeded
    generator reproduces the counts bit-identically.
    """
    dims = cbs.dims
    j_users, k, m_order = dims.j_users, dims.k_resources, dims.m_order
    if cfg.fixed_distance_ratios is not None:
        c2 = np.tile(np.sort(np.asarray(cfg.fixed_distance_ratios, dtype=float)), (batch, 1))
    else:
        c2 = np.sort(sample_radii((batch, j_users), rng), axis=1)
    col_of_rank = np.argsort(cbs.traces(), kind="stable")
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
    if cfg.fixed_distance_ratios is not None and len(cfg.fixed_distance_ratios) != j_users:
        raise ValueError("fixed_distance_ratios must hold one ratio per user")
    bits_per = dims.bits_per_symbol
    detect = _make_detector(cfg, cbs)
    snr_grid = np.asarray(cfg.snr_grid_db, dtype=float)
    all_errors = np.zeros((snr_grid.size, j_users), dtype=np.int64)
    all_bits = np.zeros((snr_grid.size, j_users), dtype=np.int64)

    for si, snr in enumerate(snr_grid):
        n0 = snr_db_to_n0(snr, dims)
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
            if not wave:
                break
            if len(wave) == 1:
                results = [_run_batch(cfg, cbs, detect, n0, wave[0][0], wave[0][1])]
            else:
                with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                    results = list(
                        pool.map(lambda w: _run_batch(cfg, cbs, detect, n0, w[0], w[1]), wave)
                    )
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
