"""Downlink multiuser detection at a single receiver.

All layers reach a receiver through the same channel vector, so detection
is joint over the M^J codeword tuples.  Two detectors are provided: an
exhaustive maximum-likelihood search (the oracle) and an iterative max-log
message passing algorithm (MPA) over the sparse factor graph, which is the
workhorse for Monte Carlo sweeps.  Both operate on batches for speed.
"""

import numpy as np

from .codebook import CodebookSet

__all__ = ["MlDetector", "MpaDetector", "MAX_JOINT_TUPLES"]

MAX_JOINT_TUPLES = 17_000_000


class MlDetector:
    """Exhaustive joint ML detection over all M^J codeword tuples.

    Tuple t encodes (m_1, ..., m_J) in mixed radix with user 1 most
    significant; argmin ties resolve to the lowest t.
    """

    def __init__(self, cbs: CodebookSet):
        j, k, m = cbs.codebooks.shape
        if m**j > MAX_JOINT_TUPLES:
            raise ValueError(f"M^J = {m**j} exceeds the enumerable guard {MAX_JOINT_TUPLES}")
        self.m_order = m
        self.j_users = j
        table = np.zeros((1, k), dtype=complex)
        for l in range(j):
            table = (table[:, None, :] + cbs.codebooks[l].T[None, :, :]).reshape(-1, k)
        self.table = table.T.copy()  # (K, M^J)

    def detect_batch(self, y: np.ndarray, channel: np.ndarray) -> np.ndarray:
        """Joint decisions for a batch: (B, K) inputs -> (B, J) indices.

        ||y - h s||^2 expands to const - 2 Re(<conj(y) h, s>) + <|h|^2, |s|^2>,
        so the search is two matrix products against the tuple table.
        """
        y = np.atleast_2d(y)
        channel = np.atleast_2d(channel)
        best_idx = np.zeros(y.shape[0], dtype=np.int64)
        table2 = self.table.real**2 + self.table.imag**2
        step = max(1, (1 << 25) // max(1, self.table.shape[1]))
        for lo in range(0, y.shape[0], step):
            hi = min(lo + step, y.shape[0])
            u = np.conj(y[lo:hi]) * channel[lo:hi]
            w = channel[lo:hi].real**2 + channel[lo:hi].imag**2
            cost = w @ table2 - 2.0 * (u @ self.table).real
            best_idx[lo:hi] = np.argmin(cost, axis=1)
        return self._unpack(best_idx)

    def _unpack(self, joint: np.ndarray) -> np.ndarray:
        out = np.zeros((joint.size, self.j_users), dtype=np.int64)
        rem = joint.copy()
        for l in range(self.j_users - 1, -1, -1):
            out[:, l] = rem % self.m_order
            rem //= self.m_order
        return out


class MpaDetector:
    """Max-log message passing over the factor graph.

    Works in the negative log domain (min-sum), which is underflow-free;
    messages are normalized to min zero each pass.  iterations = 0 degrades
    to per-user single-layer demapping that ignores interference.

    Every tensor carries the batch as its last, contiguous axis: the cost of
    an RN with d colliding users is (M,)*d + (B,) and each message is (M, B),
    so the min over the other users' axes runs over leading axes.  Decisions
    are bit-identical to the same algorithm with the batch leading (kept in
    tests/test_detection.py as the reference), which holds only while two
    things stay as they are: the order of every floating-point addition
    (cost + u_0 + u_1 + ..., beliefs summed over the edges in user_edges
    order, ext - ext.min), and the operand order of the complex product in
    the residual, channel * local (numpy's complex multiply is not bitwise
    commutative).
    """

    def __init__(self, cbs: CodebookSet, iterations: int = 8):
        if iterations < 0:
            raise ValueError("iterations must be >= 0")
        self.iterations = iterations
        self.m_order = cbs.dims.m_order
        self.j_users, self.k_resources, _ = cbs.codebooks.shape
        self.codebooks = cbs.codebooks
        self.rn_users = cbs.collision_sets()
        self.user_edges = [[] for _ in range(self.j_users)]  # (k, position in rn_users[k])
        for k, users in enumerate(self.rn_users):
            for pos, l in enumerate(users):
                self.user_edges[l].append((k, pos))
        # Per-RN local superpositions over the M^{d_k} collision hypotheses,
        # first colliding user on the leading axis, with a trailing unit axis
        # that broadcasts against the batch.
        self.local = []
        for k, users in enumerate(self.rn_users):
            d = len(users)
            tab = np.zeros((self.m_order,) * d, dtype=complex) if d else np.zeros((), dtype=complex)
            for i, l in enumerate(users):
                shape = [1] * d
                shape[i] = self.m_order
                tab = tab + self.codebooks[l, k, :].reshape(shape)
            self.local.append(tab[..., None])
        # Per RN and colliding user i, the other users' axes: the RN-to-user
        # message minimizes over them, and user i's message broadcasts along them.
        self.other_axes = [
            [tuple(a for a in range(len(users)) if a != i) for i in range(len(users))]
            for users in self.rn_users
        ]

    def detect_batch(self, y: np.ndarray, channel: np.ndarray, n0: float) -> np.ndarray:
        y = np.atleast_2d(y)
        channel = np.atleast_2d(channel)
        if self.iterations == 0:
            return self._single_user_batch(y, channel)
        # Chunk for cache locality; message tensors grow as B * M^d_k.
        step = 2048
        if y.shape[0] <= step:
            return self._detect_chunk(y, channel, n0)
        return np.concatenate(
            [
                self._detect_chunk(y[lo : lo + step], channel[lo : lo + step], n0)
                for lo in range(0, y.shape[0], step)
            ]
        )

    def _detect_chunk(self, y: np.ndarray, channel: np.ndarray, n0: float) -> np.ndarray:
        b = y.shape[0]
        m = self.m_order
        y = np.ascontiguousarray(y.T)  # (K, B)
        channel = np.ascontiguousarray(channel.T)
        cost = []
        for k in range(self.k_resources):
            resid = y[k] - channel[k] * self.local[k]
            cost.append((resid.real**2 + resid.imag**2) / n0)
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
            for l in range(self.j_users):
                edges = self.user_edges[l]
                incoming = [rn_msg[k][pos] for k, pos in edges]
                full = sum(incoming[1:], incoming[0])
                for (k, pos), msg in zip(edges, incoming):
                    ext = full - msg
                    user_msg[k][pos] = ext - ext.min(axis=0)
        decisions = np.zeros((b, self.j_users), dtype=np.int64)
        for l in range(self.j_users):
            incoming = [rn_msg[k][pos] for k, pos in self.user_edges[l]]
            decisions[:, l] = np.argmin(sum(incoming[1:], incoming[0]), axis=0)
        return decisions

    def _single_user_batch(self, y: np.ndarray, channel: np.ndarray) -> np.ndarray:
        b = y.shape[0]
        decisions = np.zeros((b, self.j_users), dtype=np.int64)
        for l in range(self.j_users):
            ks = [k for k, _ in self.user_edges[l]]
            resid = y[:, ks, None] - channel[:, ks, None] * self.codebooks[l, ks, :][None, :, :]
            belief = np.sum(resid.real**2 + resid.imag**2, axis=1)
            decisions[:, l] = np.argmin(belief, axis=1)
        return decisions
