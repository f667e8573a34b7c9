"""Factor-graph layering and joint layer/power assignment.

A layer is a binary K-vector with N ones marking the resource nodes (RNs)
its codewords occupy.  Layers are packed into d_f orthogonal groups plus
residual layers, and the d_f constellation operators q_i = rho_i e^{i theta_i}
are distributed so every RN carries each operator exactly once (per-RN power
balance).  Columns of the resulting signature matrix are sorted by ascending
total power, which later pairs low-power codebooks with near users.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from numbers import Integral

import numpy as np

__all__ = [
    "SystemDims",
    "ConstellationOperator",
    "SignatureMatrix",
    "SignatureReport",
    "LayeringError",
    "assign_layers_and_power",
    "validate_signature",
]


class LayeringError(ValueError):
    """Raised when no valid layer packing exists for the requested dims."""


def check_counts(owner, **least) -> None:
    """Raise ValueError unless each named attribute of owner is an integer >= its least value."""
    for name, low in least.items():
        value = getattr(owner, name)
        if not (isinstance(value, Integral) and value >= low):
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class SystemDims:
    """Factor-graph scale (K resources, J layers, M-ary codebooks, N nonzeros)."""

    k_resources: int
    j_users: int
    m_order: int
    n_nonzero: int

    def __post_init__(self):
        check_counts(self, k_resources=1, j_users=1, m_order=2, n_nonzero=1)
        if self.m_order & (self.m_order - 1) != 0:
            raise ValueError(f"m_order must be a power of two >= 2, got {self.m_order}")
        if self.n_nonzero > self.k_resources:
            raise ValueError(f"n_nonzero must be <= k_resources, got {self.n_nonzero} > {self.k_resources}")

    @property
    def overload(self) -> float:
        return self.j_users / self.k_resources

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.m_order))

    @property
    def df_collisions(self) -> int:
        """Per-RN collision degree J*N/K; defined only for regular graphs."""
        num = self.j_users * self.n_nonzero
        if num % self.k_resources != 0:
            raise LayeringError(
                f"irregular dims: d_f = J*N/K = {num}/{self.k_resources} is not an integer"
            )
        return num // self.k_resources


@dataclass(frozen=True)
class ConstellationOperator:
    """Joint power scaling rho in (0, 1] and phase rotation theta in [0, pi)."""

    rho: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must be in (0, 1], got {self.rho}")
        if not 0.0 <= self.theta < np.pi:
            raise ValueError(f"theta must be in [0, pi), got {self.theta}")

    @property
    def value(self) -> complex:
        return self.rho * np.exp(1j * self.theta)


@dataclass(frozen=True)
class SignatureMatrix:
    """K x J matrix of operator indices (0 = vacant, 1..d_f = q index).

    groups lists the full orthogonal groups as tuples of column indices;
    residuals lists columns outside any full group.  Both refer to the
    power-sorted column order stored in entries.
    """

    entries: np.ndarray
    operators: tuple
    groups: tuple
    residuals: tuple = ()

    @property
    def support(self) -> np.ndarray:
        return (self.entries > 0).astype(int)

    def column_powers(self) -> np.ndarray:
        """Total power per column: sum of rho^2 over its operators."""
        rho2 = np.concatenate(([0.0], np.array([op.rho for op in self.operators]) ** 2))  # entry 0 is vacant
        return rho2[self.entries].sum(axis=0)


@dataclass(frozen=True)
class SignatureReport:
    """Outcome of the three structural checks plus support regularity."""

    row_balance: bool
    group_orthogonality: bool
    power_sorted: bool
    support_regular: bool
    messages: tuple = ()

    @property
    def ok(self) -> bool:
        return self.row_balance and self.group_orthogonality and self.power_sorted and self.support_regular


def _patterns(k: int, n: int) -> list:
    """All C(K, N) binary columns with N ones, lexicographic by positions."""
    return [frozenset(rows) for rows in combinations(range(k), n)]


@lru_cache(maxsize=64)
def _pack_layers(k: int, n: int, d_f: int, n_group: int, n_residual: int):
    """Pack d_f orthogonal groups of L = n_group layers plus R residual layers.

    Deterministic DFS over the J layer slots: group g's i-th layer fills
    slot g*L + i, residual v slot L*d_f + v.  Candidates are scanned in
    pattern-lex order, ascending within a group and among the residuals,
    each group's leader after the previous group's leader; a group's layers
    share no RN and no RN exceeds degree d_f.  J*N = K*d_f ones with no row
    above d_f leave every RN at degree exactly d_f.  Returns the K x J
    boolean support, column s the pattern of slot s, read-only, or None.
    The search runs once per argument tuple, so a GA run pays it once.
    """
    pats = _patterns(k, n)
    n_grouped = n_group * d_f
    chosen: list = []  # pattern index of each filled slot
    row_deg = [0] * k
    used = [False] * len(pats)

    def dfs(s: int) -> bool:
        if s == n_grouped + n_residual:
            return True
        if s < n_grouped:
            leader = s - s % n_group
            start = chosen[-1] + 1 if s > leader else (chosen[s - n_group] + 1 if s else 0)
            taken = set().union(*(pats[p] for p in chosen[leader:]))
        else:
            start = chosen[-1] + 1 if s > n_grouped else 0
            taken = set()
        for p in range(start, len(pats)):
            if used[p] or any(row_deg[r] == d_f for r in pats[p]) or not taken.isdisjoint(pats[p]):
                continue
            for r in pats[p]:
                row_deg[r] += 1
            chosen.append(p)
            used[p] = True
            if dfs(s + 1):
                return True
            chosen.pop()
            used[p] = False
            for r in pats[p]:
                row_deg[r] -= 1
        return False

    if not dfs(0):
        return None
    support = np.array([[r in pats[p] for p in chosen] for r in range(k)])
    support.flags.writeable = False
    return support


def assign_layers_and_power(operators, dims: SystemDims) -> SignatureMatrix:
    """Joint layer and power assignment over the factor graph.

    operators must be sorted by ascending rho; their count must equal d_f.
    Builds L = floor(K/N) orthogonal layers per group, distributes the
    R = J - L*d_f residual layers, binds operator indices through a per-RN
    countdown so every RN carries each operator exactly once, and finally
    sorts columns by ascending total power.
    """
    ops = tuple(operators)
    k, j, n = dims.k_resources, dims.j_users, dims.n_nonzero
    d_f = dims.df_collisions
    if len(ops) != d_f:
        raise ValueError(f"expected d_f = {d_f} operators, got {len(ops)}")
    rhos = [op.rho for op in ops]
    if any(rhos[i] > rhos[i + 1] for i in range(len(rhos) - 1)):
        raise ValueError("operators must be sorted by ascending rho")
    if j > comb(k, n):
        raise LayeringError(f"J = {j} exceeds the C({k},{n}) distinct layer patterns")

    n_group = k // n
    n_grouped = n_group * d_f
    if j < n_grouped:
        raise LayeringError(
            f"infeasible dims: J = {j} < L*d_f = {n_grouped} full-group layers"
        )
    support = _pack_layers(k, n, d_f, n_group, j - n_grouped)
    if support is None:
        raise LayeringError(f"no orthogonal layer packing exists for K={k}, J={j}, N={n}")
    # covers[r, g]: group g has a layer on row r (at most one, as its layers are orthogonal).
    covers = support[:, :n_grouped].reshape(k, d_f, n_group).any(axis=2)

    # Per-RN countdown: row r hands out q_{d_f}, ..., q_1 in the order its
    # layers are visited; every row hosts exactly d_f ones, so balance holds.
    # Each row of a residual layer first visits the earliest unvisited group
    # that leaves the row free; the groups still unvisited follow in order.
    entries = np.zeros((k, j), dtype=int)
    countdown = np.full(k, d_f)
    unvisited = list(range(d_f))

    def visit(g: int) -> None:
        cols = slice(g * n_group, (g + 1) * n_group)
        entries[:, cols] = support[:, cols] * countdown[:, None]
        countdown[covers[:, g]] -= 1
        unvisited.remove(g)

    for c in range(n_grouped, j):
        for r in np.flatnonzero(support[:, c]):
            free = [g for g in unvisited if not covers[r, g]]
            if free:
                visit(free[0])
            entries[r, c] = countdown[r]
            countdown[r] -= 1
    for g in list(unvisited):
        visit(g)

    order = np.argsort(SignatureMatrix(entries, ops, ()).column_powers(), kind="stable")
    # Sorted column c holds packed column order[c], of group order[c] // L or a residual layer.
    groups = tuple(tuple(np.flatnonzero(order // n_group == g).tolist()) for g in range(d_f))
    residuals = tuple(np.flatnonzero(order >= n_grouped).tolist())
    return SignatureMatrix(entries=entries[:, order], operators=ops, groups=groups, residuals=residuals)


def validate_signature(sig: SignatureMatrix) -> SignatureReport:
    """Check per-RN operator balance, group orthogonality and power sorting."""
    entries = sig.entries
    k, j = entries.shape
    d_f = len(sig.operators)
    msgs = []

    row_balance = True
    for r in range(k):
        ops_here = sorted(entries[r, entries[r, :] > 0])
        if ops_here != list(range(1, d_f + 1)):
            row_balance = False
            msgs.append(f"row {r}: operator multiset {ops_here} != 1..{d_f}")

    group_orthogonality = True
    support = sig.support
    for g, cols in enumerate(sig.groups):
        for a, b in combinations(cols, 2):
            if support[:, a] @ support[:, b] != 0:
                group_orthogonality = False
                msgs.append(f"group {g}: columns {a} and {b} share an RN")

    powers = sig.column_powers()
    power_sorted = bool(np.all(np.diff(powers) >= -1e-12))
    if not power_sorted:
        msgs.append("column powers are not ascending")

    col_weights = support.sum(axis=0)
    row_weights = support.sum(axis=1)
    support_regular = bool(
        np.all(col_weights == col_weights[0])
        and np.all(row_weights == d_f)
        and len({tuple(support[:, c]) for c in range(j)}) == j
    )
    if not support_regular:
        msgs.append("support is not a regular indicator matrix with distinct columns")

    return SignatureReport(
        row_balance=row_balance,
        group_orthogonality=group_orthogonality,
        power_sorted=power_sorted,
        support_regular=support_regular,
        messages=tuple(msgs),
    )
