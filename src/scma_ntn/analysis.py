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

Each s_k depends only on the d_k users on RN k, and a user's ordered pairs
enter only through their difference vectors, so pairs with equal vectors
are lumped into one class (variable merging, Kschischang, Frey & Loeliger
2001): 8 classes instead of 12 pairs on the 4x6 reference design.  The exact
bound contracts one MGF table per RN over the factor graph, batched over
(target user, gain, MGF term) so that one contraction serves a set_bep call.
A truncated bound (at most E* < J users in error) multiplies per-(RN, users)
tables over each error support's classes, repeating the floating-point
operations of the row-by-row enumeration the tests keep as the oracle.

SNR convention used throughout (analysis and simulation share one axis):
the codebook set carries total power J*M over M codeword uses and K RNs,
so per-RN signal power is J/K and N0 = (J/K) * 10^(-snr_db/10).
"""

import csv
import string
from dataclasses import dataclass
from functools import lru_cache, reduce
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
# Largest table, in elements, the exact bound may hold (an RN's MGF table or
# an intermediate of its path); its batch chunks keep each step's arrays within it.
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
    return float(np.prod(rician_mgf(sk / 4.0, kappa)) / 12.0 + np.prod(rician_mgf(sk / 3.0, kappa)) / 4.0)


@lru_cache(maxsize=64)
def _contraction_plan(rn_users: tuple, domain_sizes: tuple, limit: int):
    """Greedy pairwise plan contracting one table per busy RN over a leading batch axis.

    rn_users holds each busy RN's users, domain_sizes each user's number of
    values.  Returns the steps, as (operand positions to take, their axis
    labels, the result's labels) and, per batch entry, the largest table or
    step and the most elements held at once.  The path is searched once per
    graph, domain and limit; the steps then run as batched matrix products.
    """
    placed = sorted({u for users in rn_users for u in users})
    labels = {u: string.ascii_letters[i] for i, u in enumerate(placed)}
    sizes = {labels[u]: domain_sizes[u] for u in placed}
    terms = ["".join(labels[u] for u in users) for users in rn_users]
    shapes = [np.broadcast_to(0.0, [sizes[a] for a in t]) for t in terms]
    # numpy's default limit is the largest input, which on 4x6 forbids every pairwise step.
    path, _ = np.einsum_path(",".join(terms) + "->", *shapes, optimize=("greedy", limit))
    largest = max(shape.size for shape in shapes)
    held = sum(shape.size for shape in shapes)
    steps, live = [], list(terms)
    for step in path[1:]:
        positions = tuple(sorted(step, reverse=True))
        taken = tuple(live.pop(i) for i in positions)
        axes = set().union(*taken)
        result = "".join(sorted(axes & set().union(*live)))
        # A pairwise step holds its result; a step on more operands, which numpy
        # takes when no pairwise step fits the limit, loops over all its axes.
        largest = max(largest, int(np.prod([sizes[a] for a in (result if len(taken) <= 2 else axes)])))
        steps.append((positions, taken, result))
        live.append(result)
        # The other live tables, the step's inputs (or their reordered copies) and its product coexist.
        held = max(held, sum(int(np.prod([sizes[a] for a in t])) for t in live + list(taken)))
    return tuple(steps), largest, held


def _sum_to(t: np.ndarray, labels: str, order: list) -> np.ndarray:
    """t[Z, *labels] summed over the labels not in order, then transposed to [Z, *order]."""
    gone = tuple(1 + i for i, a in enumerate(labels) if a not in order)
    if gone:
        t = t.sum(axis=gone)
    kept = [a for a in labels if a in order]
    return t.transpose([0] + [1 + kept.index(a) for a in order])


def _contract_pair(operands: list, xl: str, yl: str, result: str) -> np.ndarray:
    """sum x[Z, *xl] y[Z, *yl] down to [Z, *result] as one batched matrix product.

    Takes x and y from operands, which it empties, so that each input is
    freed once its reordered copy exists.
    """
    batch = [a for a in result if a in xl and a in yl]
    shared = [a for a in xl if a in yl and a not in result]
    x_free = [a for a in result if a in xl and a not in yl]
    y_free = [a for a in result if a in yl and a not in xl]
    x = _sum_to(operands.pop(0), xl, batch + x_free + shared)
    lead, n_batch = x.shape[: 1 + len(batch)], 1 + len(batch)
    x_shape = x.shape[n_batch : n_batch + len(x_free)]
    x = x.reshape(lead + (int(np.prod(x_shape)), -1))
    y = _sum_to(operands.pop(0), yl, batch + shared + y_free)
    y_shape = y.shape[n_batch + len(shared) :]
    y = y.reshape(lead + (x.shape[-1], -1))
    out = batch + x_free + y_free
    return (x @ y).reshape(lead + x_shape + y_shape).transpose([0] + [1 + out.index(a) for a in result])


def _lumped_pairs(cbs: CodebookSet):
    """Each user's ordered codeword pairs (m, mhat), m != mhat, lumped into classes of equal difference vectors.

    Returns each user's class vectors (C_u, K), in order of first appearance,
    each pair's class (J, P) and its bit-error weight popcount(m XOR mhat)
    (P,).  Pairs in one class give every error event the same PEP.
    """
    a, b = np.nonzero(~np.eye(cbs.dims.m_order, dtype=bool))
    # + 0.0 turns -0.0 into 0.0, so equal vectors have equal bytes
    diffs = np.ascontiguousarray((cbs.codebooks[:, :, a] - cbs.codebooks[:, :, b] + 0.0).transpose(0, 2, 1))
    rows = diffs.view(np.dtype((np.void, diffs[0, 0].nbytes)))[..., 0].tolist()
    classes = [{row: c for c, row in enumerate(dict.fromkeys(user_rows))} for user_rows in rows]
    inverse = np.array([[index[row] for row in user_rows] for index, user_rows in zip(classes, rows)])
    vectors = [np.frombuffer(b"".join(index), dtype=complex).reshape(len(index), -1) for index in classes]
    return vectors, inverse, np.array([bin(x).count("1") for x in a ^ b], dtype=float)


def _truncated_user_bep(
    cbs: CodebookSet, targets, gammas: np.ndarray, kappa: float, n0: float, e_star: int
) -> np.ndarray:
    """Truncated union-bound numerators of several targets, over error supports of at most e_star users.

    targets are 0-based users and gammas (T, G) their geometry gains; returns
    (T, G).  RN k's MGF factor depends only on the classes of the support's
    users on k, so one table per (RN, users) serves every support.  The
    tables are multiplied in ascending RN order, the PEP is gathered back to
    ordered-pair order and summed in _CHUNK slices, and each target adds up
    its supports in the enumeration's order: the result equals the
    enumeration's bit for bit.
    """
    j_users, m = cbs.dims.j_users, cbs.dims.m_order
    vectors, inverse, bits = _lumped_pairs(cbs)
    on_rn = [{int(u) for u in users} for users in cbs.collision_sets()]
    gains, gain_of = np.unique(gammas, return_inverse=True)
    gain_of = gain_of.reshape(gammas.shape).tolist()
    position = {t: i for i, t in enumerate(targets)}

    def gains_at(users):  # sorted indices into gains of the targets among users
        return sorted({g for u in users if u in position for g in gain_of[position[u]]})

    # MGF at s/4 and s/3 of each (RN, users on it) a support can hold, at every gain; a table of
    # e_star users serves only the support they form, so it takes only their targets' gains.
    keys = [(k, us) for k, on_k in enumerate(on_rn) for n in range(e_star) for us in combinations(sorted(on_k), n + 1)]
    sums_k = [reduce(np.add.outer, [vectors[u][:, k] for u in users]) for k, users in keys]
    at = [np.arange(gains.size) if len(users) < e_star else gains_at(users) for _, users in keys]
    sk = np.abs(np.concatenate([a.ravel() for a in sums_k])) ** 2 / (n0 * gains)[:, None]
    sk = [s[g] for s, g in zip(np.split(sk, np.cumsum([a.size for a in sums_k]), axis=1), at)]
    mgf = rician_mgf(np.concatenate([s.ravel() for s in sk]) / np.array([[4.0], [3.0]]), kappa)
    mgf = np.split(mgf, np.cumsum([s.size for s in sk]), axis=1)
    tables = {key: t.reshape((2, len(s)) + a.shape) for key, t, s, a in zip(keys, mgf, sk, sums_k)}

    # Supports run by size, then in lexicographic order, which is each target's enumeration order.
    totals = np.zeros(gammas.shape)
    for size in range(1, e_star + 1):
        # The bit weights of the ordered-pair rows, by the target's place in the support.
        weights = [np.repeat(np.tile(bits, bits.size**i), bits.size ** (size - 1 - i)) for i in range(size)]
        for support in combinations(range(j_users), size):
            hit = [position[u] for u in support if u in position]
            if not hit:
                continue
            need = gains_at(support)
            prod = np.ones((2, len(need)) + (1,) * size)
            for k, on_k in enumerate(on_rn):
                users = tuple(u for u in support if u in on_k)
                if users:
                    table = tables[k, users] if len(users) == e_star else tables[k, users][:, need]
                    prod = prod * table.reshape([2, -1] + [len(vectors[u]) if u in users else 1 for u in support])
            rows = reduce(lambda r, u: np.add.outer(r * len(vectors[u]), inverse[u]).ravel(), support, 0)
            peps = np.take((prod[0] / 12.0 + prod[1] / 4.0).reshape(len(need), -1), rows, axis=1)
            for i in hit:
                w = weights[support.index(targets[i])]
                dots = [[float(w[lo : lo + _CHUNK] @ peps[need.index(g), lo : lo + _CHUNK])
                         for lo in range(0, w.size, _CHUNK)] for g in gain_of[i]]
                totals[i] += float(m) ** (j_users - size) * np.array([sum(d) for d in dots])
    return totals


def _exact_user_bep(
    cbs: CodebookSet, targets, gammas: np.ndarray, kappa: float, n0: float
) -> np.ndarray:
    """Exact union-bound numerators of several targets, as one factor-graph contraction.

    targets are 0-based users and gammas (T, G) their geometry gains; returns
    (T, G).  A user takes one of 1 + C values: 0 is "no error" (weight M, 0
    for the target), 1 + c is its lumped pair class c (weight the class's
    pair count, its summed bit weights for the target).  RN k holds
    MGF(|sum_u d_u[k]|^2 / (N0 gamma c)) over its users' values, with a
    leading batch axis Z = (target, gain, c in {4, 3}); the weighted sum of
    the tables' product over all values is the enumeration at E* = J.  Each
    user's weights are folded into the first RN it occupies; a user on no
    RN contributes their sum, an idle RN contributes 1.  Z runs in chunks
    that keep what a step holds at once within _MAX_ELEMENTS elements.
    """
    dims = cbs.dims
    m = dims.m_order
    vectors, inverse, bit_weights = _lumped_pairs(cbs)
    collision = cbs.collision_sets()
    rns = [users for users in collision if users]
    placed = sorted({u for users in rns for u in users})
    rest = np.array(
        [np.prod([bit_weights.sum() if u == t else float(m * m) for u in range(dims.j_users) if u not in placed])
         for t in targets]
    )
    if not rns:  # no RN carries a difference: every PEP is 1/12 + 1/4
        return np.repeat(rest[:, None] / 3.0, gammas.shape[1], axis=1)

    graph = f"{dims.k_resources}x{dims.j_users} graph (M = {m}, d_f = {max(map(len, rns))})"
    if len(placed) > len(string.ascii_letters):
        raise ValueError(f"exact bound on the {graph}: {len(placed)} users on RNs, einsum labels at most 52")
    values, weights, bits = {}, {}, {}
    for u in placed:
        values[u] = np.concatenate([np.zeros((1, dims.k_resources)), vectors[u]])
        weights[u] = np.concatenate([[float(m)], np.bincount(inverse[u]).astype(float)])
        bits[u] = np.concatenate([[0.0], np.bincount(inverse[u], weights=bit_weights)])
    domain = tuple(len(values[u]) if u in values else 0 for u in range(dims.j_users))
    steps, largest, held = _contraction_plan(tuple(map(tuple, rns)), domain, _MAX_ELEMENTS)
    if largest > _MAX_ELEMENTS:
        raise ValueError(
            f"exact bound on the {graph}: a table or contraction step of {largest:.3g} elements, "
            f"above the limit of {_MAX_ELEMENTS}; use a truncated bound"
        )

    # |sum d|^2 tables and per-target folded weights, shared by every gain and both MGF terms.
    abs2, folds, homed = [], [], set()
    for k, users in enumerate(collision):
        if not users:
            continue
        abs2.append(np.abs(reduce(np.add.outer, [values[u][:, k] for u in users])) ** 2)
        home = [u for u in users if u not in homed]
        factors = [[(bits if u == t else weights)[u] if u in home else np.ones(domain[u]) for u in users]
                   for t in targets]
        folds.append(np.stack([reduce(np.multiply.outer, f) for f in factors]))
        homed.update(users)

    scale = (n0 * gammas[:, :, None] * np.array([4.0, 3.0])).reshape(-1)
    target_of = np.repeat(np.arange(len(targets)), scale.size // len(targets))
    chunk = max(1, _MAX_ELEMENTS // held)
    sums = np.empty(scale.size)
    for lo in range(0, scale.size, chunk):
        z = slice(lo, lo + chunk)
        ops = [
            rician_mgf(a / scale[z].reshape((-1,) + (1,) * a.ndim), kappa) * f[target_of[z]]
            for a, f in zip(abs2, folds)
        ]
        for positions, labels, result in steps:
            taken = [ops.pop(i) for i in positions]
            if len(taken) == 2:
                ops.append(_contract_pair(taken, *labels, result))
            else:
                ops.append(np.einsum(",".join("..." + t for t in labels) + "->..." + result, *taken))
        sums[z] = ops[0]
    m4, m3 = sums.reshape(gammas.shape + (2,)).transpose(2, 0, 1)
    return rest[:, None] * (m4 / 12.0 + m3 / 4.0)


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


def _user_beps(
    ranks, cbs: CodebookSet, geom: CellGeometry, kappa: float, n0: float, truncation, distance_mode, c2
) -> np.ndarray:
    """BEP bounds of the users at the given distance ranks, all from one call of the exact or truncated kernel."""
    j_users = cbs.dims.j_users
    e_star = j_users if truncation is None else int(truncation)
    if e_star < 1:
        raise ValueError("truncation must be >= 1")
    gains = [_distance_gains(j_rank, j_users, geom, distance_mode, c2) for j_rank in ranks]
    gammas = np.array([g for g, _ in gains])
    if e_star >= j_users:
        totals = _exact_user_bep(cbs, [j_rank - 1 for j_rank in ranks], gammas, kappa, n0)
    else:
        totals = _truncated_user_bep(cbs, [j_rank - 1 for j_rank in ranks], gammas, kappa, n0, e_star)
    m = cbs.dims.m_order
    norm = float(m) ** j_users * np.log2(m)
    return np.array([float((w @ t) / norm) for (_, w), t in zip(gains, totals)])


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
    return float(_user_beps([j_rank], cbs, geom, kappa, n0, truncation, distance_mode, c2)[0])


def set_bep(
    cbs: CodebookSet,
    geom: CellGeometry,
    kappa: float,
    n0: float,
    truncation: int | None = None,
    distance_mode: str = "mean",
) -> BepSummary:
    """Average and worst BEP bounds over all users, plus the per-user vector.

    Takes the same truncation and distance_mode as user_bep; either bound
    serves every user from one kernel call.
    """
    ranks = range(1, cbs.dims.j_users + 1)
    return BepSummary(per_user=_user_beps(ranks, cbs, geom, kappa, n0, truncation, distance_mode, None))


def write_bep_csv(path, snr_db_grid, per_user_matrix) -> None:
    """Per-user BEP table as CSV with columns snr_db, user_rank, bep."""
    per_user_matrix = np.asarray(per_user_matrix)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr_db", "user_rank", "bep"])
        for si, snr in enumerate(snr_db_grid):
            for j in range(per_user_matrix.shape[1]):
                writer.writerow([snr, j + 1, format(per_user_matrix[si, j], ".12g")])
