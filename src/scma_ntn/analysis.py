"""Analytical error-probability machinery.

Pairwise error probabilities under Rician fading follow from a two-term
exponential approximation of the Gaussian Q-function: averaging each
exponential over the per-RN fading powers turns the PEP into products of
the Rician moment generating function evaluated at s_k/4 and s_k/3, where
s_k is the per-RN effective SNR of the codeword difference.  Per-user bit
error probabilities are union bounds over all transmit/detect codeword
pairs, with the user's distance ratio replaced by its order-statistic mean.

Each s_k depends only on the d_k users on RN k, and a user's ordered pairs
enter only through their difference vectors, so pairs with equal vectors
are lumped into one class (variable merging, Kschischang, Frey & Loeliger
2001): 8 classes instead of 12 pairs on the 4x6 reference design.  The exact
bound contracts one MGF table per busy RN and one weight vector per user
(one more unary factor) over the factor graph, batched over (user, MGF term)
so that one contraction serves a set_bep call; numpy's einsum runs it on a
greedy path cached per graph.
A truncated bound (at most E* < J users in error) runs one error support at
a time: it multiplies per-(RN, users) tables, taken at the gains of the
support's users, over their classes, repeating the floating-point operations
of the row-by-row enumeration the tests keep as the oracle.  Given several
sets (a GA generation), it runs them on a leading candidate axis, each set at
its own columns' gains.

SNR convention used throughout (analysis and simulation share one axis):
the codebook set carries total power J*M over M codeword uses and K RNs,
so per-RN signal power is J/K and N0 = (J/K) * 10^(-snr_db/10).
"""

import math
import string
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from math import prod
from numbers import Integral

import numpy as np

from .codebook import CodebookSet
from .geometry import CellGeometry, expected_distance_ratio

__all__ = [
    "ErrorEvent",
    "BepSummary",
    "q_approx",
    "rician_mgf",
    "snr_db_to_n0",
    "effective_snr_terms",
    "pep",
    "set_bep",
]

# Elements one chunk of the truncated bound's stacked sets may hold: their
# MGF tables and one support's PEP.
_STACK_ELEMENTS = 1 << 21
# Largest table, in elements, the exact bound may hold (an RN's MGF table or
# an intermediate of its path); its batch chunks keep each step's arrays within it.
_MAX_ELEMENTS = 1 << 24
# 10^x is a nonzero, finite float for |x| < 308.
_MAX_DECADES = 308.0


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
    """Noise level N0 for a given SNR in dB: N0 = J / (K * 10^(snr/10)).

    Raises ValueError unless 0 < N0 < inf.  The power is taken only where
    10^(snr/10) is a nonzero, finite float, so no float overflow comes first.
    """
    decades = snr_db / 10.0
    n0 = dims.j_users / (dims.k_resources * 10.0**decades) if abs(decades) < _MAX_DECADES else math.nan
    if not 0.0 < n0 < math.inf:
        raise ValueError(f"SNR {snr_db:g} dB has no finite, positive noise level N0")
    return n0


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
def _contraction_plan(scopes: tuple, domain_sizes: tuple, limit: int):
    """Einsum subscripts and greedy path contracting one table per scope over a leading batch axis.

    scopes holds each operand's users: each busy RN's, then each single user
    for its weights, so users run 0..J-1 and user u is labelled
    string.ascii_letters[u].  domain_sizes holds each user's number of values.
    Returns the subscripts ("...ab,...a,...b->..."), the path, which numpy's
    einsum runs with each pairwise step as a batched matrix product, and,
    per batch entry, the largest table or step and the most elements held
    at once.  The path is searched once per graph, domain and limit.
    """
    sizes = dict(zip(string.ascii_letters, domain_sizes))
    terms = ["".join(string.ascii_letters[u] for u in users) for users in scopes]
    shapes = [np.broadcast_to(0.0, [sizes[a] for a in t]) for t in terms]
    # numpy's default limit is the largest input, which on 4x6 forbids every pairwise step.
    path, _ = np.einsum_path(",".join(terms) + "->", *shapes, optimize=("greedy", limit))

    def size(axes):
        return int(np.prod([sizes[a] for a in axes]))

    largest = max(shape.size for shape in shapes)
    tables = held = sum(shape.size for shape in shapes)
    # einsum's caller holds every input table for the whole call, so live pairs each
    # operand's labels with what it adds to the tables: an intermediate's size, 0 for a table.
    live = [(t, 0) for t in terms]
    for step in path[1:]:
        taken = [live.pop(i) for i in sorted(step, reverse=True)]
        axes = set().union(*(t for t, _ in taken))
        result = "".join(sorted(axes & set().union(*(t for t, _ in live))))
        # A pairwise step holds its result; a step on more operands, which numpy
        # takes when no pairwise step fits the limit, loops over all its axes.
        largest = max(largest, size(result if len(taken) <= 2 else axes))
        # Each input's reordered copy keeps the axes the other inputs or the result share.
        copies = sum(
            size(set(t) & set(result).union(*(o for j, (o, _) in enumerate(taken) if j != i)))
            for i, (t, _) in enumerate(taken)
        )
        held = max(held, tables + sum(n for _, n in live + taken) + copies + size(result))
        live.append((result, size(result)))
    return ",".join("..." + t for t in terms) + "->...", tuple(path), largest, held


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


def _truncated_user_bep(sets, gains: np.ndarray, kappa: float, n0: float, e_star: int) -> np.ndarray:
    """Truncated union-bound numerators of every column of several sets, over error supports of at most e_star users.

    sets share dims, and gains (S, J) holds each set's geometry gain of the
    rank each column serves; returns (S, J).  RN k's MGF factor depends only
    on the classes of the support's users on k, so one table per (RN, users)
    serves every support.  The tables of fewer than e_star users are built
    once per set, at every column's gain; a table of e_star users serves only
    the support they form, which builds it at its users' gains.

    Sets with equal collision sets and pair classes share every support's
    table shapes and gather rows.  Such a group runs on a leading candidate
    axis, in chunks that hold at most _STACK_ELEMENTS elements of tables and
    of one support's PEP (at least one set), so a GA generation pays each
    support's numpy calls once per chunk, not once per set.

    The tables are multiplied in ascending RN order, the PEP is gathered back
    to ordered-pair order and summed against the bit weights in one np.vecdot,
    and each column adds up its supports in the enumeration's order, so every
    set's result equals the enumeration's bit for bit.  np.vecdot runs BLAS
    ddot on each (set, place) row as `w @ p` does; np.matmul would run gemv
    and move the last ulp.
    """
    totals = np.zeros(gains.shape)
    j_users, m = sets[0].dims.j_users, sets[0].dims.m_order
    lumped = [_lumped_pairs(c) for c in sets]
    scale = n0 * gains

    groups = {}
    for s, (c, (_, inverse, _)) in enumerate(zip(sets, lumped)):
        groups.setdefault((tuple(map(tuple, c.collision_sets())), inverse.tobytes()), []).append(s)
    for (collision, _), members in groups.items():
        vectors, inverse, bits = lumped[members[0]]
        classes = [len(v) for v in vectors]
        on_rn = [{int(u) for u in users} for users in collision]
        keys = [
            (k, us) for k, on_k in enumerate(on_rn) for n in range(e_star - 1) for us in combinations(sorted(on_k), n + 1)
        ]
        cells = np.cumsum([0] + [prod(classes[u] for u in users) for _, users in keys])
        # The bit weights of the ordered-pair rows of a support of each size, by the erring user's place.
        weights = [
            np.array([np.repeat(np.tile(bits, bits.size**i), bits.size ** (size - 1 - i)) for i in range(size)])
            for size in range(1, e_star + 1)
        ]
        # Per set: the shared tables, and the largest support's product of tables and its gathered PEP.
        support_pep = e_star * (4 * max(classes) ** e_star + weights[-1].shape[1])
        chunk = max(1, _STACK_ELEMENTS // (2 * j_users * int(cells[-1]) + support_pep))
        for first in range(0, len(members), chunk):
            batch = members[first : first + chunk]
            stacked = [np.stack([lumped[s][0][u] for s in batch]) for u in range(j_users)]
            shared = np.concatenate(
                [_mgf_tables([v[b : b + 1] for v in stacked], keys, scale[[s]], kappa) for b, s in enumerate(batch)]
            )
            tables = {key: shared[..., lo:hi] for key, lo, hi in zip(keys, cells, cells[1:])}
            sums = np.zeros((len(batch), j_users))
            # Supports run by size, then in lexicographic order, which is each column's enumeration order.
            for size, w in enumerate(weights, 1):
                for support in combinations(range(j_users), size):
                    at = np.array(support)
                    pep = np.ones((1, 2, size) + (1,) * size)
                    for k, on_k in enumerate(on_rn):
                        users = tuple(u for u in support if u in on_k)
                        if len(users) == e_star:
                            table = _mgf_tables(stacked, [(k, users)], scale[batch][:, at], kappa)
                        elif users:
                            table = tables[k, users].take(at, axis=2)
                        else:
                            continue
                        tail = tuple(classes[u] if u in users else 1 for u in support)
                        pep = pep * table.reshape((-1, 2, size) + tail)
                    rows = reduce(lambda r, u: np.add.outer(r * classes[u], inverse[u]).ravel(), support, 0)
                    pep = (pep[:, 0] / 12.0 + pep[:, 1] / 4.0).reshape(len(pep), size, -1).take(rows, axis=2)
                    # Place i's rows at its user's gain against place i's weights.
                    dots = np.vecdot(pep, w)
                    # Each user adds its supports in order onto 0, as the enumeration does.
                    sums[:, at] += float(m) ** (j_users - size) * dots
            totals[batch] = sums
    return totals


def _mgf_tables(vectors, keys, scale: np.ndarray, kappa: float) -> np.ndarray:
    """MGF at s/4 and s/3 of each (RN k, users) key's class sums, for a leading axis of sets.

    vectors holds each user's class vectors (B, C_u, K), and s is
    |sum_u d_u[k]|^2 / scale for each of a set's G scales, scale (B, G).
    Returns (B, 2, G, cells): each key's classes, flattened, follow the
    previous key's; no keys give no cells.
    """

    def outer(a, v):  # np.add.outer(a, v) of every set's rows
        return a[..., None] + v.reshape(v.shape[:1] + (1,) * (a.ndim - 1) + v.shape[1:])

    sums = [reduce(outer, [vectors[u][:, :, k] for u in users]).reshape(len(vectors[0]), -1) for k, users in keys]
    sk = (np.abs(np.concatenate([np.empty((len(vectors[0]), 0))] + sums, axis=1)) ** 2)[:, None] / scale[..., None]
    return rician_mgf(sk[:, None] / np.array([4.0, 3.0])[:, None, None], kappa)


def _exact_user_bep(cbs: CodebookSet, gammas: np.ndarray, kappa: float, n0: float) -> np.ndarray:
    """Exact union-bound numerators of every column, as one factor-graph contraction.

    gammas (J,) holds the geometry gain of the rank each column serves;
    returns (J,).  A user takes one of 1 + C values: 0 is "no error" (weight
    M, 0 for the target), 1 + c is its lumped pair class c (weight the
    class's pair count, its summed bit weights for the target).  Each busy
    RN k holds MGF(|sum_u d_u[k]|^2 / (N0 gamma_target c)) over its users'
    values, and each user its weights, with a leading batch axis
    Z = (target, c in {4, 3}); the sum over all values of the product of
    every operand is the enumeration at E* = J.  A user on no RN meets only
    its own weights, and an idle RN is no operand at all.  Each chunk of Z is
    one numpy einsum on the cached path of _contraction_plan; the chunks
    keep what the call holds at once within _MAX_ELEMENTS elements.
    """
    dims = cbs.dims
    j_users, m = dims.j_users, dims.m_order
    collision = cbs.collision_sets()
    graph = f"{dims.k_resources}x{j_users} graph (M = {m}, d_f = {max(map(len, collision))})"
    if j_users + 1 > len(string.ascii_letters):  # a label per user and one for the batch axis
        raise ValueError(f"exact bound on the {graph}: {j_users} users and a batch axis, einsum labels at most 52")
    vectors, inverse, bit_weights = _lumped_pairs(cbs)
    values = [np.concatenate([np.zeros((1, dims.k_resources)), v]) for v in vectors]
    counts = [np.concatenate([[float(m)], np.bincount(i).astype(float)]) for i in inverse]
    bits = [np.concatenate([[0.0], np.bincount(i, weights=bit_weights)]) for i in inverse]
    busy = [(k, tuple(users)) for k, users in enumerate(collision) if users]
    scopes = tuple(users for _, users in busy) + tuple((u,) for u in range(j_users))
    domain = tuple(len(v) for v in values)
    subscripts, path, largest, held = _contraction_plan(scopes, domain, _MAX_ELEMENTS)
    if largest > _MAX_ELEMENTS:
        raise ValueError(
            f"exact bound on the {graph}: a table or contraction step of {largest:.3g} elements, "
            f"above the limit of {_MAX_ELEMENTS}; use a truncated bound"
        )

    # |sum d|^2 tables, shared by both MGF terms, and each user's weights per Z entry.
    abs2 = [np.abs(reduce(np.add.outer, [values[u][:, k] for u in users])) ** 2 for k, users in busy]
    target_of = np.repeat(np.arange(j_users), 2)
    weights = [np.where((target_of == u)[:, None], bits[u], counts[u]) for u in range(j_users)]
    scale = (n0 * gammas[:, None] * np.array([4.0, 3.0])).reshape(-1)
    # Every chunk's tables come on top of the |sum d|^2 tables and weights, which the call holds throughout.
    chunk = max(1, (_MAX_ELEMENTS - sum(a.size for a in abs2) - sum(w.size for w in weights)) // held)
    sums = np.empty(scale.size)
    for lo in range(0, scale.size, chunk):
        z = slice(lo, lo + chunk)
        # A generator, so that no chunk's tables outlive its einsum call.
        tables = (rician_mgf(a / scale[z].reshape((-1,) + (1,) * a.ndim), kappa) for a in abs2)
        sums[z] = np.einsum(subscripts, *tables, *(w[z] for w in weights), optimize=path)
    m4, m3 = sums.reshape(-1, 2).T
    return m4 / 12.0 + m3 / 4.0


def set_bep(
    cbs,
    geom: CellGeometry,
    kappa: float,
    n0: float,
    truncation: int | None = None,
):
    """Upper bounds on every user's BEP, each at its own distance rank: their mean, max and per-rank vector.

    Rank r (1-based) is served by column CodebookSet.columns_by_rank()[r - 1],
    as in the simulation.  truncation caps how many users' codewords may
    differ in an error event (E*); None means exact (E* = J), computed as a
    factor-graph contraction.  Each rank's PEP is taken at the
    order-statistic mean of its distance ratio.  cbs is one
    CodebookSet, which returns one BepSummary, or a sequence of sets with
    equal dims, which returns a list of them: the truncated bound serves all
    sets from one kernel call, the exact bound each set from one.
    """
    sets = [cbs] if isinstance(cbs, CodebookSet) else list(cbs)
    if not sets:
        return []
    if len({c.dims for c in sets}) > 1:
        raise ValueError("the sets of one set_bep call must share dims")
    j_users, m = sets[0].dims.j_users, sets[0].dims.m_order
    if truncation is not None and not (isinstance(truncation, Integral) and truncation >= 1):
        raise ValueError(f"truncation must be >= 1 and an integer, or None, got {truncation!r}")
    e_star = j_users if truncation is None else int(truncation)
    if not (np.isfinite(kappa) and kappa >= 0):
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    if not 0 < n0 < np.inf:
        raise ValueError(f"n0 must be finite and > 0, got {n0}")
    gammas = np.array([_geometry_gain(geom, expected_distance_ratio(r, j_users)) for r in range(1, j_users + 1)])
    columns = np.array([c.columns_by_rank() for c in sets])
    gains = gammas[np.argsort(columns, axis=1)]  # each column's gain: that of the rank it serves
    if e_star >= j_users:
        totals = np.array([_exact_user_bep(c, g, kappa, n0) for c, g in zip(sets, gains)])
    else:
        totals = _truncated_user_bep(sets, gains, kappa, n0, e_star)
    per_user = np.take_along_axis(totals, columns, axis=1) / (float(m) ** j_users * np.log2(m))
    summaries = [BepSummary(per_user=p) for p in per_user]
    return summaries[0] if isinstance(cbs, CodebookSet) else summaries

