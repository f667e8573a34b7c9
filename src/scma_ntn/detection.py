"""Downlink multiuser detection at a single receiver, joint over the M^J codeword tuples.

Exact ML by min-sum elimination and iterative max-log message passing (MPA, the
workhorse of Monte Carlo sweeps), both over the sparse factor graph and both
from the same per-RN cost tables, with the batch on the last axis.
"""

from functools import reduce

import numpy as np

from .codebook import CodebookSet
from .layering import check_counts

__all__ = ["MlDetector", "MpaDetector"]

# Table entries a detector holds per chunk of receptions; more for one reception is refused.
_MAX_ELEMENTS = 1 << 20


def _chunk_size(entries: int, detector: str) -> int:
    """Receptions per chunk when one reception holds entries table entries, refused above _MAX_ELEMENTS."""
    if entries > _MAX_ELEMENTS:
        raise ValueError(f"{detector} detection needs {entries} table entries per reception, above {_MAX_ELEMENTS}")
    return _MAX_ELEMENTS // entries


def _local_tables(codebooks: np.ndarray, rn_users: list) -> list:
    """Per-RN superpositions over the M^{d_k} collision hypotheses, first user leading, then a unit batch axis."""
    zero = np.zeros((), dtype=complex)  # each entry sums 0 + x_0 + x_1 + ..., in user order
    return [reduce(np.add.outer, codebooks[users, k, :], zero)[..., None] for k, users in enumerate(rn_users)]


def _rn_costs(local: list, y: np.ndarray, channel: np.ndarray, n0: float) -> list:
    """Per-RN costs |y_k - h_k s|^2 / n0 of (B, K) receptions, each of shape local[k].shape[:-1] + (B,)."""
    y, channel = np.ascontiguousarray(y.T), np.ascontiguousarray(channel.T)  # (K, B)
    resid = (y[k] - channel[k] * tab for k, tab in enumerate(local))
    return [(r.real**2 + r.imag**2) / n0 for r in resid]


def _in_chunks(detect, step: int, y: np.ndarray, channel: np.ndarray, *args) -> np.ndarray:
    """detect(y, channel, *args) over row chunks of at most step receptions, concatenated; an empty batch is one chunk."""
    return np.concatenate([detect(y[lo : lo + step], channel[lo : lo + step], *args) for lo in range(0, len(y) or 1, step)])


class MlDetector:
    """Exact joint ML detection by min-sum elimination over the factor graph.

    ||y - h s||^2 sums per-RN costs |y_k - h_k s_k|^2 over the d_k users on
    each RN, so bucket elimination (Dechter 1999) finds its minimum: for u =
    J-1, ..., 0 the tables holding u are summed over their users' union (axes
    in descending user order, so u leads) and minimized over u.  Backtracking
    from user 0 decides u as the first-occurrence argmin of that sum, re-added
    in the forward order at the users already decided, so ties go to the
    lexicographically lowest tuple, an exhaustive search's lowest joint index.
    A user on no RN decides 0.  The guard: one reception's largest table,
    M^|union|, may not exceed _MAX_ELEMENTS; the batch runs in chunks within it.
    """

    def __init__(self, cbs: CodebookSet):
        self.j_users, _, m = cbs.codebooks.shape
        rn_users = cbs.collision_sets()
        # Users of table f, descending: RN k's cost is table k, step i's minimum is table K + i.
        scopes = {k: tuple(reversed(users)) for k, users in enumerate(rn_users) if users}
        self.steps = []  # (u, [(table, its shape over the union, its users below u)])
        for u in range(self.j_users - 1, -1, -1):
            bucket = {f: scopes.pop(f) for f in [f for f, scope in scopes.items() if u in scope]}
            if bucket:
                union = sorted(set().union(*bucket.values()), reverse=True)
                shapes = [tuple(m if v in s else 1 for v in union) for s in bucket.values()]
                self.steps.append((u, [(f, shape, s[1:]) for (f, s), shape in zip(bucket.items(), shapes)]))
                scopes[len(rn_users) + len(self.steps) - 1] = tuple(union[1:])
        self.step = _chunk_size(max([m ** len(bucket[0][1]) for _, bucket in self.steps], default=1), "ML")
        self.local = [tab[..., 0].T[..., None] for tab in _local_tables(cbs.codebooks, rn_users)]

    def detect_batch(self, y: np.ndarray, channel: np.ndarray) -> np.ndarray:
        """Joint decisions for a batch: (B, K) inputs -> (B, J) indices."""
        return _in_chunks(self._detect_chunk, self.step, np.atleast_2d(y), np.atleast_2d(channel))

    def _detect_chunk(self, y: np.ndarray, channel: np.ndarray) -> np.ndarray:
        b = y.shape[0]
        tables = _rn_costs(self.local, y, channel, 1.0)
        for _, bucket in self.steps:
            parts = [tables[f].reshape(shape + (b,)) for f, shape, _ in bucket]
            tables.append(sum(parts[1:], parts[0]).min(axis=0))
        decisions = np.zeros((b, self.j_users), dtype=np.int64)
        rows = np.arange(b)
        for u, bucket in reversed(self.steps):
            sums = [tables[f][(slice(None), *decisions[:, list(below)].T, rows)] for f, _, below in bucket]
            decisions[:, u] = np.argmin(sum(sums[1:], sums[0]), axis=0)
        return decisions


class MpaDetector:
    """Max-log message passing over the factor graph.

    Works in the negative log domain (min-sum), which is underflow-free;
    messages are normalized to min zero each of the iterations >= 1 passes.
    An RN's cost is (M,)*d + (B,) and each message (M, B).  Decisions are
    bit-identical to the batch-leading reference in tests/test_detection.py
    only while every floating-point addition keeps its order (cost + u_0 +
    u_1 + ..., beliefs summed over the edges in user_edges order, ext -
    ext.min) and the residual keeps channel * local (numpy's complex multiply
    is not bitwise commutative).
    """

    def __init__(self, cbs: CodebookSet, iterations: int = 8):
        self.iterations = iterations
        check_counts(self, iterations=1)
        self.j_users, _, self.m_order = cbs.codebooks.shape
        self.rn_users = cbs.collision_sets()
        self.user_edges = [  # (k, position in rn_users[k])
            [(k, users.index(l)) for k, users in enumerate(self.rn_users) if l in users] for l in range(self.j_users)
        ]
        # One reception holds a cost table and a scratch table per RN.
        self.step = _chunk_size(2 * sum(self.m_order ** len(users) for users in self.rn_users), "MPA")
        self.local = _local_tables(cbs.codebooks, self.rn_users)
        # Per RN and colliding user i, the other users' axes: the message to i minimizes over them.
        self.other_axes = [[tuple(a for a in range(len(us)) if a != i) for i in range(len(us))] for us in self.rn_users]

    def detect_batch(self, y: np.ndarray, channel: np.ndarray, n0: float) -> np.ndarray:
        return _in_chunks(self._detect_chunk, self.step, np.atleast_2d(y), np.atleast_2d(channel), n0)

    def _detect_chunk(self, y: np.ndarray, channel: np.ndarray, n0: float) -> np.ndarray:
        b, m = y.shape[0], self.m_order
        cost = _rn_costs(self.local, y, channel, n0)
        # Scratch buffer per RN for the cost plus the incoming user messages.
        total = [np.empty_like(c) for c in cost]
        rn_msg = [[np.zeros((m, b)) for _ in users] for users in self.rn_users]
        user_msg = [[np.zeros((m, b)) for _ in users] for users in self.rn_users]
        for _ in range(self.iterations):
            for k, others in enumerate(self.other_axes):
                np.copyto(total[k], cost[k])
                for i, axes in enumerate(others):
                    total[k] += np.expand_dims(user_msg[k][i], axes)
                for i, axes in enumerate(others):
                    rn_msg[k][i] = total[k].min(axis=axes) - user_msg[k][i]
            for edges in self.user_edges:
                incoming = [rn_msg[k][pos] for k, pos in edges]
                full = sum(incoming[1:], incoming[0]) if edges else None
                for (k, pos), msg in zip(edges, incoming):
                    ext = full - msg
                    user_msg[k][pos] = ext - ext.min(axis=0)
        # A user on no RN keeps decision 0: its codewords all tie, and ML takes the lowest tuple.
        decisions = np.zeros((b, self.j_users), dtype=np.int64)
        for l, edges in enumerate(self.user_edges):
            if edges:
                incoming = [rn_msg[k][pos] for k, pos in edges]
                decisions[:, l] = np.argmin(sum(incoming[1:], incoming[0]), axis=0)
        return decisions
