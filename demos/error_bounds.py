"""Walkthrough: pairwise error probabilities and per-user BEP bounds.

The Q-function is replaced by two exponentials, each Rician-averaged into
a product of moment generating functions; union-bounding over codeword
pairs (with the rank-j mean distance inside) gives per-user BEP curves.
Truncating the enumeration to a few simultaneously-wrong users is the mode
the design loop uses; the exact bound, one factor-graph contraction for all
users, is for reporting.
"""

import time

import numpy as np

from scma_ntn import CellGeometry, ConstellationOperator, SystemDims, set_bep, snr_db_to_n0
from scma_ntn import assign_layers_and_power, build_codebook_set, build_mother_constellation

dims = SystemDims(4, 6, 4, 2)
geom = CellGeometry()
kappa = 10.0
ops = tuple(
    ConstellationOperator(rho=r, theta=t)
    for r, t in zip((0.3, 0.6, 1.0), (0.0, np.pi / 3, 2 * np.pi / 3))
)
cbs = build_codebook_set(build_mother_constellation(4, 2, 1.5), assign_layers_and_power(ops, dims))

print("per-user BEP bounds (exact, factor-graph contraction), kappa = 10:")
print(f"{'snr_db':>6} " + " ".join(f"{f'user{j}':>9}" for j in range(1, 7)) + f" {'worst':>9}")
for snr in (12.0, 16.0, 20.0, 24.0):
    summary = set_bep(cbs, geom, kappa, snr_db_to_n0(snr, dims), truncation=None)
    row = " ".join(f"{v:>9.2e}" for v in summary.per_user)
    print(f"{snr:>6} {row} {summary.worst:>9.2e}")

print("\ntruncated vs exact at 16 dB:")
n0 = snr_db_to_n0(16.0, dims)
t0 = time.time()
exact = set_bep(cbs, geom, kappa, n0, truncation=None)
t_exact = time.time() - t0
for e_star in (1, 2, 3):
    t0 = time.time()
    approx = set_bep(cbs, geom, kappa, n0, truncation=e_star)
    dt = time.time() - t0
    gap = abs(approx.worst - exact.worst) / exact.worst
    print(f"  E*={e_star}: worst {approx.worst:.4e} (gap {gap:.1%}, {dt * 1e3:.0f} ms)")
print(f"  exact (contraction): worst {exact.worst:.4e} ({t_exact * 1e3:.0f} ms)")
