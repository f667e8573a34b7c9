"""Exhaustive joint ML detection: the reference the min-sum elimination of MlDetector is checked against."""

import numpy as np


def exhaustive_ml(cbs, y, channel):
    """Joint ML decisions over all M^J codeword tuples: (B, K) inputs -> (B, J) indices.

    Tuple t encodes (m_1, ..., m_J) in mixed radix with user 1 most
    significant; argmin ties resolve to the lowest t.  ||y - h s||^2 expands
    to const - 2 Re(<conj(y) h, s>) + <|h|^2, |s|^2>, so the search is two
    matrix products against the tuple table, taken over row blocks that keep
    each block's cost matrix near 2^21 entries.
    """
    j, k, m = cbs.codebooks.shape
    table = np.zeros((1, k), dtype=complex)
    for l in range(j):
        table = (table[:, None, :] + cbs.codebooks[l].T[None, :, :]).reshape(-1, k)
    table = table.T.copy()  # (K, M^J)
    table2 = table.real**2 + table.imag**2
    y = np.atleast_2d(y)
    channel = np.atleast_2d(channel)
    best_idx = np.zeros(y.shape[0], dtype=np.int64)
    step = max(1, (1 << 21) // table.shape[1])
    for lo in range(0, y.shape[0], step):
        hi = min(lo + step, y.shape[0])
        u = np.conj(y[lo:hi]) * channel[lo:hi]
        w = channel[lo:hi].real**2 + channel[lo:hi].imag**2
        cost = w @ table2 - 2.0 * (u @ table).real
        best_idx[lo:hi] = np.argmin(cost, axis=1)
    return np.stack(np.unravel_index(best_idx, (m,) * j), axis=1)
