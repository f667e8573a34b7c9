"""Factor-graph layering and joint layer/power assignment.

A layer is a binary K-vector with N ones marking the resource nodes (RNs)
its codewords occupy.  Layers are packed into d_f orthogonal groups plus
residual layers, and the d_f constellation operators q_i = rho_i e^{i theta_i}
are distributed so every RN carries each operator exactly once (per-RN power
balance).  Columns of the resulting signature matrix are sorted by ascending
total power, which later pairs low-power codebooks with near users.
"""

from dataclasses import dataclass
from itertools import combinations
from math import comb

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


@dataclass(frozen=True)
class SystemDims:
    """Factor-graph scale (K resources, J layers, M-ary codebooks, N nonzeros)."""

    k_resources: int
    j_users: int
    m_order: int
    n_nonzero: int

    def __post_init__(self):
        if self.k_resources < 1 or self.j_users < 1:
            raise ValueError("k_resources and j_users must be positive")
        if self.m_order < 2 or self.m_order & (self.m_order - 1) != 0:
            raise ValueError(f"m_order must be a power of two >= 2, got {self.m_order}")
        if not 1 <= self.n_nonzero <= self.k_resources:
            raise ValueError("n_nonzero must be in 1..k_resources")

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
    def k_resources(self) -> int:
        return self.entries.shape[0]

    @property
    def j_users(self) -> int:
        return self.entries.shape[1]

    @property
    def support(self) -> np.ndarray:
        return (self.entries > 0).astype(int)

    def operator_rhos(self) -> np.ndarray:
        return np.array([op.rho for op in self.operators])

    def column_powers(self) -> np.ndarray:
        """Total power per column: sum of rho^2 over its operators."""
        rho2 = self.operator_rhos() ** 2
        powers = np.zeros(self.j_users)
        for c in range(self.j_users):
            idx = self.entries[:, c]
            powers[c] = rho2[idx[idx > 0] - 1].sum()
        return powers


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


def _pack_layers(k: int, n: int, d_f: int, n_groups_size: int, n_residual: int):
    """Pack d_f orthogonal groups of L layers plus R residual layers.

    Deterministic DFS: candidates scanned in pattern-lex order, indices
    ascending within a group, group leaders ascending across groups, and
    residual layers chosen so that every RN ends with degree exactly d_f.
    Returns (groups, residuals) as lists of pattern row-sets, or None.
    """
    pats = _patterns(k, n)
    n_pat = len(pats)
    used = [False] * n_pat
    row_deg = [0] * k
    groups = [[] for _ in range(d_f)]

    def row_fits(p_idx: int) -> bool:
        return all(row_deg[r] < d_f for r in pats[p_idx])

    def place(p_idx: int) -> None:
        used[p_idx] = True
        for r in pats[p_idx]:
            row_deg[r] += 1

    def unplace(p_idx: int) -> None:
        used[p_idx] = False
        for r in pats[p_idx]:
            row_deg[r] -= 1

    def residual_dfs(chosen: list, start: int, remaining: int) -> bool:
        if remaining == 0:
            return all(row_deg[r] == d_f for r in range(k))
        for p in range(start, n_pat):
            if used[p] or not row_fits(p):
                continue
            place(p)
            chosen.append(p)
            if residual_dfs(chosen, p + 1, remaining - 1):
                return True
            chosen.pop()
            unplace(p)
        return False

    residuals: list = []

    def group_dfs(u: int, slot: int, start: int) -> bool:
        if u == d_f:
            return residual_dfs(residuals, 0, n_residual)
        if slot == n_groups_size:
            next_leader = groups[u][0] + 1 if groups[u] else 0
            return group_dfs(u + 1, 0, next_leader)
        group_rows = set().union(*(pats[p] for p in groups[u])) if groups[u] else set()
        for p in range(start, n_pat):
            if used[p] or not row_fits(p):
                continue
            if pats[p] & group_rows:
                continue
            place(p)
            groups[u].append(p)
            if group_dfs(u, slot + 1, p + 1):
                return True
            groups[u].pop()
            unplace(p)
        return False

    if not group_dfs(0, 0, 0):
        return None
    return [list(g) for g in groups], list(residuals), pats


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
    n_residual = j - n_group * d_f
    if n_residual < 0:
        raise LayeringError(
            f"infeasible dims: J = {j} < L*d_f = {n_group * d_f} full-group layers"
        )

    packed = _pack_layers(k, n, d_f, n_group, n_residual)
    if packed is None:
        raise LayeringError(f"no orthogonal layer packing exists for K={k}, J={j}, N={n}")
    group_pats, residual_pats, pats = packed

    # Per-RN countdown: row r hands out q_{d_f}, ..., q_1 in the order its
    # layers are visited; every row hosts exactly d_f ones, so balance holds.
    countdown = [d_f] * k
    group_row_op = [dict() for _ in range(d_f)]
    residual_row_op = [dict() for _ in range(n_residual)]
    group_assigned = [False] * d_f
    group_rows = [sorted(set().union(*(pats[p] for p in group_pats[g]))) for g in range(d_f)]

    def assign_group(g: int) -> None:
        for r in group_rows[g]:
            group_row_op[g][r] = countdown[r]
            countdown[r] -= 1
        group_assigned[g] = True

    for v, p in enumerate(residual_pats):
        for r in sorted(pats[p]):
            for g in range(d_f):
                if not group_assigned[g] and r not in group_rows[g]:
                    assign_group(g)
                    break
            residual_row_op[v][r] = countdown[r]
            countdown[r] -= 1
    for g in range(d_f):
        if not group_assigned[g]:
            assign_group(g)
    if any(c != 0 for c in countdown):
        raise LayeringError("operator countdown left an unbalanced row; dims unsupported")

    entries = np.zeros((k, j), dtype=int)
    col_group = {}
    col = 0
    for g in range(d_f):
        for p in group_pats[g]:
            for r in pats[p]:
                entries[r, col] = group_row_op[g][r]
            col_group[col] = g
            col += 1
    residual_cols = []
    for v, p in enumerate(residual_pats):
        for r in pats[p]:
            entries[r, col] = residual_row_op[v][r]
        residual_cols.append(col)
        col += 1

    rho2 = np.array([op.rho**2 for op in ops])
    powers = np.array([rho2[entries[:, c][entries[:, c] > 0] - 1].sum() for c in range(j)])
    order = np.argsort(powers, kind="stable")
    entries = entries[:, order]
    new_pos = {old: new for new, old in enumerate(order)}
    groups = tuple(
        tuple(sorted(new_pos[c] for c in col_group if col_group[c] == g)) for g in range(d_f)
    )
    residuals = tuple(sorted(new_pos[c] for c in residual_cols))
    return SignatureMatrix(entries=entries, operators=ops, groups=groups, residuals=residuals)


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
