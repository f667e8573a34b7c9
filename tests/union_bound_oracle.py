"""The union bound enumerated row by row: the reference both bound kernels are checked against."""

from itertools import combinations

import numpy as np

from scma_ntn.analysis import rician_mgf


def _difference_tables(cbs):
    """Per-user ordered-pair codeword differences (J, P, K) and bit-error weights (P,), pairs (m, mhat), m != mhat."""
    j, k, m = cbs.codebooks.shape
    pairs = [(a, b) for a in range(m) for b in range(m) if b != a]
    diffs = np.empty((j, len(pairs), k), dtype=complex)
    for p, (a, b) in enumerate(pairs):
        diffs[:, p, :] = cbs.codebooks[:, :, a] - cbs.codebooks[:, :, b]
    bit_weights = np.array([bin(a ^ b).count("1") for a, b in pairs], dtype=float)
    return diffs, bit_weights


def _pep_from_sk(sk, kappa):
    """PEP over rows of per-RN effective SNRs, shape (n, K) -> (n,)."""
    m4 = np.prod(rician_mgf(sk / 4.0, kappa), axis=-1)
    m3 = np.prod(rician_mgf(sk / 3.0, kappa), axis=-1)
    return m4 / 12.0 + m3 / 4.0


def enumerate_user_bep(cbs, target, gammas, kappa, n0, max_users_in_error):
    """Truncated union-bound numerators of one target at each geometry gain, factorized over error supports.

    Sums M^(J-|S|) * n(m_j, mhat_j) * PEP over every support S containing the
    target and every per-user ordered difference pair, |S| <= E*.  Below
    E* = J the truncated kernel must equal it bit for bit; at E* = J the
    exact contraction must equal it to 1e-12.
    """
    j_users = cbs.dims.j_users
    m = cbs.dims.m_order
    diffs, bit_weights = _difference_tables(cbs)
    n_pairs = diffs.shape[1]
    supports = cbs.supports()
    others = [l for l in range(j_users) if l != target]
    totals = np.zeros(len(gammas))
    for extra in range(max_users_in_error):
        for combo in combinations(others, extra):
            users = sorted(combo + (target,))
            active = np.nonzero(np.any(supports[users, :], axis=0))[0]
            agg = np.zeros((1, active.size), dtype=complex)
            weights = np.ones(1)
            for l in users:
                agg = (agg[:, None, :] + diffs[l][None, :, active]).reshape(agg.shape[0] * n_pairs, active.size)
                w_l = bit_weights if l == target else np.ones(n_pairs)
                weights = (weights[:, None] * w_l[None, :]).reshape(-1)
            mult = float(m) ** (j_users - len(users))
            abs2 = np.abs(agg) ** 2
            for gi, gamma in enumerate(gammas):
                totals[gi] += mult * float(weights @ _pep_from_sk(abs2 / (n0 * gamma), kappa))
    return totals
