"""Analytical error-probability machinery.

Pairwise error probabilities under Rician fading follow from a two-term
exponential approximation of the Gaussian Q-function: averaging each
exponential over the per-RN fading powers turns the PEP into products of
the Rician moment generating function evaluated at s_k/4 and s_k/3, where
s_k is the per-RN effective SNR of the codeword difference.  Per-user bit
error probabilities are union bounds over all transmit/detect codeword
pairs, with the user's distance ratio replaced by its order-statistic mean
(a quadrature mode that averages over the full ordered-distance density is
available for comparison).

The exact bound is a sum-product over the SCMA factor graph: each s_k
depends only on the d_k users on RN k, so the sum over all error tuples
contracts one MGF table per RN, with each user's values being "no error"
or one of its M(M-1) ordered codeword pairs.  A truncated bound (at most
E* < J users in error) enumerates the error supports instead.

SNR convention used throughout (analysis and simulation share one axis):
the codebook set carries total power J*M over M codeword uses and K RNs,
so per-RN signal power is J/K and N0 = (J/K) * 10^(-snr_db/10).
"""

import csv
import string
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .codebook import CodebookSet
from .geometry import CellGeometry, expected_distance_ratio, ordered_distance_pdf

__all__ = [
    "ErrorEvent",
    "BepSummary",
    "q_approx",
    "rician_mgf",
    "snr_db_to_n0",
    "effective_snr_terms",
    "pep",
    "user_bep",
    "set_bep",
    "write_bep_csv",
]

_CHUNK = 1 << 17
# Largest table, in elements, the exact bound may hold: an RN's MGF table or
# an intermediate of its contraction path.
_MAX_ELEMENTS = 1 << 24
# Gauss-Legendre nodes of the quadrature distance mode.
_QUAD_ORDER = 32


def q_approx(x):
    """Two-term exponential approximation of the Gaussian tail Q(x).

    (1/12) e^{-x^2/2} + (1/4) e^{-2 x^2/3}; equals 1/3 at x = 0 and upper
    bounds the true Q on x >= 0.
    """
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x**2) / 12.0 + np.exp(-2.0 * x**2 / 3.0) / 4.0
    return out if out.ndim else float(out)


def rician_mgf(s, kappa: float):
    """E[exp(-s |g|^2)] for a unit-mean-square Rician gain g.

    (1+kappa)/(1+kappa+s) * exp(-kappa s / (1+kappa+s)); kappa = 0 gives
    the Rayleigh form 1/(1+s).
    """
    s = np.asarray(s, dtype=float)
    c = 1.0 + kappa
    out = c / (c + s) * np.exp(-kappa * s / (c + s))
    return out if out.ndim else float(out)


def snr_db_to_n0(snr_db: float, dims) -> float:
    """Noise level N0 for a given SNR in dB: N0 = J / (K * 10^(snr/10))."""
    return dims.j_users / (dims.k_resources * 10.0 ** (snr_db / 10.0))


@dataclass(frozen=True)
class ErrorEvent:
    """A joint transmit tuple and a detect tuple differing at the target user."""

    tx_indices: tuple
    rx_indices: tuple
    target_user: int

    def __post_init__(self):
        if len(self.tx_indices) != len(self.rx_indices):
            raise ValueError("tx and rx tuples must have equal length")
        if not 0 <= self.target_user < len(self.tx_indices):
            raise ValueError("target_user out of range")
        if self.tx_indices[self.target_user] == self.rx_indices[self.target_user]:
            raise ValueError("error event must differ at the target user")


@dataclass(frozen=True)
class BepSummary:
    """Per-user BEP bounds with their mean and max."""

    per_user: np.ndarray

    @property
    def average(self) -> float:
        return float(self.per_user.mean())

    @property
    def worst(self) -> float:
        return float(self.per_user.max())

    @property
    def worst_user_rank(self) -> int:
        return int(self.per_user.argmax()) + 1


def _geometry_gain(geom: CellGeometry, c2: float) -> float:
    """Power-domain residual path loss (c1^2 + c2^2)^(alpha/2), R = 1."""
    return float((geom.radius_ratio_c1**2 + c2**2) ** (geom.pathloss_alpha / 2.0))


def effective_snr_terms(
    event: ErrorEvent, cbs: CodebookSet, c2: float, geom: CellGeometry, n0: float
) -> np.ndarray:
    """Per-RN effective SNR s_k of one error event at distance ratio c2.

    s_k = |sum_l (x_l[k] - xhat_l[k])|^2 / (N0 (c1^2+c2^2)^(alpha/2)); the
    layer powers are already merged into the codewords.
    """
    diff = np.zeros(cbs.dims.k_resources, dtype=complex)
    for l, (m, mh) in enumerate(zip(event.tx_indices, event.rx_indices)):
        diff += cbs.codebooks[l, :, m] - cbs.codebooks[l, :, mh]
    return np.abs(diff) ** 2 / (n0 * _geometry_gain(geom, c2))


def _pep_from_sk(sk: np.ndarray, kappa: float) -> np.ndarray:
    """Vectorized PEP over rows of per-RN effective SNRs, shape (n, K) -> (n,)."""
    m4 = np.prod(rician_mgf(sk / 4.0, kappa), axis=-1)
    m3 = np.prod(rician_mgf(sk / 3.0, kappa), axis=-1)
    return m4 / 12.0 + m3 / 4.0


def pep(
    event: ErrorEvent,
    cbs: CodebookSet,
    c2: float,
    geom: CellGeometry,
    kappa: float,
    n0: float,
) -> float:
    """Pairwise error probability of one event, in (0, 1/3]."""
    sk = effective_snr_terms(event, cbs, c2, geom, n0)
    return float(_pep_from_sk(sk[None, :], kappa)[0])


def _difference_tables(cbs: CodebookSet):
    """Per-user ordered-pair codeword differences and bit-error weights.

    Returns diffs (J, P, K) with P = M(M-1) ordered pairs (m, mhat), m != mhat,
    and bit_weights (P,) = popcount(m XOR mhat) under natural labeling.
    """
    j, k, m = cbs.codebooks.shape
    pairs = [(a, b) for a in range(m) for b in range(m) if b != a]
    diffs = np.empty((j, len(pairs), k), dtype=complex)
    for p, (a, b) in enumerate(pairs):
        diffs[:, p, :] = cbs.codebooks[:, :, a] - cbs.codebooks[:, :, b]
    bit_weights = np.array([bin(a ^ b).count("1") for a, b in pairs], dtype=float)
    return diffs, bit_weights


def _enumerate_user_bep(
    cbs: CodebookSet,
    target: int,
    gammas: np.ndarray,
    kappa: float,
    n0: float,
    max_users_in_error: int,
) -> np.ndarray:
    """Truncated union-bound numerators at each geometry gain, factorized over error supports.

    Sums M^(J-|S|) * n(m_j, mhat_j) * PEP over every support S containing the
    target and every per-user ordered difference pair, |S| <= E*.  user_bep
    uses it for E* < J; at E* = J it is the test oracle of the contraction.
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
                acc = 0.0
                for lo in range(0, abs2.shape[0], _CHUNK):
                    hi = lo + _CHUNK
                    sk = abs2[lo:hi] / (n0 * gamma)
                    acc += float(weights[lo:hi] @ _pep_from_sk(sk, kappa))
                totals[gi] += mult * acc
    return totals


def _path_sizes(terms, path, dim: int) -> list:
    """Elements each step of an einsum path over equal-sized axes holds.

    A pairwise step holds its result; a step on more operands, which numpy
    takes when no pairwise step fits its memory limit, loops over the
    product of all its axes.
    """
    terms = [set(t) for t in terms]
    sizes = []
    for step in path[1:]:
        taken = [terms.pop(i) for i in sorted(step, reverse=True)]
        axes = set().union(*taken)
        result = axes & set().union(*terms)
        sizes.append(dim ** len(result if len(step) <= 2 else axes))
        terms.append(result)
    return sizes


def _contraction_path(dims, rn_users: list, size: int):
    """Subscripts and greedy einsum path contracting one table per busy RN.

    Raises ValueError, before any table is allocated, when an RN table or a
    step of the path would exceed _MAX_ELEMENTS elements.
    """
    placed = sorted({u for users in rn_users for u in users})
    graph = f"{dims.k_resources}x{dims.j_users} graph (M = {dims.m_order}, d_f = {max(map(len, rn_users))})"
    if len(placed) > len(string.ascii_letters):
        raise ValueError(f"exact bound on the {graph}: {len(placed)} users on RNs, einsum labels at most 52")
    terms = ["".join(string.ascii_letters[placed.index(u)] for u in users) for users in rn_users]
    expr = ",".join(terms) + "->"
    shapes = [np.broadcast_to(0.0, (size,) * len(t)) for t in terms]
    # numpy's default limit is the largest input, which on 4x6 forbids every pairwise step.
    path, _ = np.einsum_path(expr, *shapes, optimize=("greedy", _MAX_ELEMENTS))
    largest = max([size ** len(t) for t in terms] + _path_sizes(terms, path, size))
    if largest > _MAX_ELEMENTS:
        raise ValueError(
            f"exact bound on the {graph}: a table or contraction step of {largest:.3g} elements, "
            f"above the limit of {_MAX_ELEMENTS}; use a truncated bound"
        )
    return expr, path


def _contract_user_bep(
    cbs: CodebookSet, target: int, gammas: np.ndarray, kappa: float, n0: float
) -> np.ndarray:
    """Exact union-bound numerators at each geometry gain, as a factor-graph contraction.

    Each user takes one of P + 1 values: 0 is "no error" (weight M, 0 for
    the target), 1 + p is ordered pair p (weight 1, the bit weight for the
    target).  RN k holds MGF(|sum_u d_u[k]|^2 / (N0 gamma c)) over the values
    of its users, for c = 4 and 3; the weighted sum of the tables' product
    over all values is the enumeration at E* = J.  Each user's weights are
    folded into the first RN it occupies; a user on no RN contributes their
    sum, an idle RN contributes 1.
    """
    dims = cbs.dims
    diffs, bit_weights = _difference_tables(cbs)
    size = diffs.shape[1] + 1
    weights = np.ones((dims.j_users, size))
    weights[:, 0] = dims.m_order
    weights[target] = np.concatenate([[0.0], bit_weights])
    rns = [(k, users) for k, users in enumerate(cbs.collision_sets()) if users]
    placed = {u for _, users in rns for u in users}
    rest = float(np.prod([weights[u].sum() for u in range(dims.j_users) if u not in placed]))
    if not rns:  # no RN carries a difference: every PEP is 1/12 + 1/4
        return np.full(len(gammas), rest / 3.0)
    expr, path = _contraction_path(dims, [users for _, users in rns], size)

    # |sum d|^2 tables and folded weights, shared by every gain and both MGF terms.
    step = np.concatenate([np.zeros((dims.j_users, 1, dims.k_resources)), diffs], axis=1)
    abs2, folds, homed = [], [], set()
    for k, users in rns:
        abs2.append(np.abs(reduce(np.add.outer, [step[u, :, k] for u in users])) ** 2)
        folds.append(reduce(np.multiply.outer, [np.ones(size) if u in homed else weights[u] for u in users]))
        homed.update(users)

    totals = np.empty(len(gammas))
    for gi, gamma in enumerate(gammas):
        m4, m3 = (
            np.einsum(expr, *[rician_mgf(a / (n0 * gamma * c), kappa) * f for a, f in zip(abs2, folds)], optimize=path)
            for c in (4.0, 3.0)
        )
        totals[gi] = rest * (m4 / 12.0 + m3 / 4.0)
    return totals


def _distance_gains(j_rank: int, j_users: int, geom: CellGeometry, distance_mode: str, c2: float | None):
    """Geometry gains the PEP is evaluated at, and their weights in the bound."""
    if c2 is not None:
        return np.array([_geometry_gain(geom, c2)]), np.array([1.0])
    if distance_mode == "mean":
        return np.array([_geometry_gain(geom, expected_distance_ratio(j_rank, j_users))]), np.array([1.0])
    if distance_mode == "quadrature":
        nodes, w = np.polynomial.legendre.leggauss(_QUAD_ORDER)
        x = 0.5 * (nodes + 1.0)
        quad_w = 0.5 * w * ordered_distance_pdf(j_rank, j_users, x)
        return np.array([_geometry_gain(geom, xi) for xi in x]), quad_w
    raise ValueError(f"unknown distance_mode {distance_mode!r}")


def user_bep(
    j_rank: int,
    cbs: CodebookSet,
    geom: CellGeometry,
    kappa: float,
    n0: float,
    truncation: int | None = None,
    distance_mode: str = "mean",
    c2: float | None = None,
) -> float:
    """Upper bound on the BEP of the user at distance rank j (1-based).

    truncation caps how many users' codewords may differ in an error event
    (E*); None means exact (E* = J), computed as a factor-graph contraction.
    distance_mode "mean" substitutes the order-statistic mean distance ratio
    into the PEP, "quadrature" averages the PEP over the ordered-distance
    density instead; c2 overrides both.
    """
    j_users = cbs.dims.j_users
    if not 1 <= j_rank <= j_users:
        raise ValueError(f"j_rank must be in 1..{j_users}")
    e_star = j_users if truncation is None else int(truncation)
    if e_star < 1:
        raise ValueError("truncation must be >= 1")

    gammas, quad_w = _distance_gains(j_rank, j_users, geom, distance_mode, c2)
    if e_star >= j_users:
        totals = _contract_user_bep(cbs, j_rank - 1, gammas, kappa, n0)
    else:
        totals = _enumerate_user_bep(cbs, j_rank - 1, gammas, kappa, n0, e_star)
    m = cbs.dims.m_order
    norm = float(m) ** j_users * np.log2(m)
    return float((quad_w @ totals) / norm)


def set_bep(
    cbs: CodebookSet,
    geom: CellGeometry,
    kappa: float,
    n0: float,
    truncation: int | None = None,
    distance_mode: str = "mean",
) -> BepSummary:
    """Average and worst BEP bounds over all users, plus the per-user vector."""
    per_user = np.array(
        [
            user_bep(j, cbs, geom, kappa, n0, truncation=truncation, distance_mode=distance_mode)
            for j in range(1, cbs.dims.j_users + 1)
        ]
    )
    return BepSummary(per_user=per_user)


def write_bep_csv(path, snr_db_grid, per_user_matrix) -> None:
    """Per-user BEP table as CSV with columns snr_db, user_rank, bep."""
    per_user_matrix = np.asarray(per_user_matrix)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "user_rank", "bep"])
        for si, snr in enumerate(snr_db_grid):
            for j in range(per_user_matrix.shape[1]):
                writer.writerow([snr, j + 1, format(per_user_matrix[si, j], ".12g")])
