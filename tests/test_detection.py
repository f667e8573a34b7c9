import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scma_ntn import CellGeometry, CodebookSet, SimConfig, SystemDims, pathloss_factor, sample_rician, snr_db_to_n0
from scma_ntn.detection import MAX_JOINT_TUPLES, MlDetector, MpaDetector
from scma_ntn.simulator import _run_batch


def _received_batch(cbs, snr_db, batch, seed, kappa=10.0):
    rng = np.random.default_rng(seed)
    dims = cbs.dims
    n0 = snr_db_to_n0(snr_db, dims)
    tx = rng.integers(0, dims.m_order, (batch, dims.j_users))
    s = cbs.superimpose(tx)
    g = sample_rician((batch, dims.k_resources), kappa, rng)
    c2 = np.sqrt(rng.random(batch))
    h = pathloss_factor(CellGeometry(), c2)[:, None] * g
    noise = np.sqrt(n0 / 2) * (
        rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
    )
    return tx, h * s + noise, h, n0


def test_ml_recovers_noiseless_tuple(ref_cbs):
    rng = np.random.default_rng(0)
    tx = rng.integers(0, 4, 6)
    h = sample_rician(4, 10.0, rng)
    y = h * ref_cbs.superimpose(tx)[0]
    assert np.array_equal(MlDetector(ref_cbs).detect_batch(y, h)[0], tx)


def test_mpa_recovers_noiseless_tuple(ref_cbs):
    rng = np.random.default_rng(1)
    tx = rng.integers(0, 4, 6)
    h = sample_rician(4, 10.0, rng)
    y = h * ref_cbs.superimpose(tx)[0]
    assert np.array_equal(MpaDetector(ref_cbs, iterations=8).detect_batch(y, h, 1e-6)[0], tx)


def test_ml_tie_break_lowest_joint_index():
    # antipodal single-user codebook and y = 0: both hypotheses tie
    dims = SystemDims(2, 1, 2, 1)
    books = np.zeros((1, 2, 2), dtype=complex)
    books[0] = [[1.0, -1.0], [1.0, -1.0]]
    cbs = CodebookSet.from_codebooks(books, dims, normalize=False)
    y, h = np.zeros((1, 2), dtype=complex), np.ones((1, 2), dtype=complex)
    first = MlDetector(cbs).detect_batch(y, h)
    second = MlDetector(cbs).detect_batch(y, h)
    assert np.array_equal(first, second)
    assert first[0, 0] == 0


def test_ml_low_error_rate_at_high_snr(ref_cbs):
    tx, y, h, _ = _received_batch(ref_cbs, 24.0, 10_000, seed=2)
    decided = MlDetector(ref_cbs).detect_batch(y, h)
    ser = np.mean(decided != tx)
    print(f"\nML per-user symbol error rate at 24 dB: {ser:.2e}")
    assert ser < 1e-3


def test_mpa_equals_ml_for_single_user(ref_cbs):
    dims = SystemDims(2, 1, 4, 2)
    books = ref_cbs.codebooks[:1, :2, :].copy()
    cbs = CodebookSet.from_codebooks(books, dims)
    tx, y, h, n0 = _received_batch(cbs, 5.0, 4000, seed=3)
    ml = MlDetector(cbs).detect_batch(y, h)
    mpa = MpaDetector(cbs, iterations=1).detect_batch(y, h, n0)
    assert np.array_equal(ml, mpa)


def test_mpa_equals_ml_on_tree_graph(reduced_cbs):
    # two disjoint stars: max-log message passing is exact
    tx, y, h, n0 = _received_batch(reduced_cbs, 6.0, 20_000, seed=4, kappa=5.0)
    ml = MlDetector(reduced_cbs).detect_batch(y, h)
    for iterations in (1, 3, 8):
        mpa = MpaDetector(reduced_cbs, iterations=iterations).detect_batch(y, h, n0)
        assert np.array_equal(ml, mpa)


@st.composite
def tree_graph_receptions(draw):
    """Receptions over a random tree factor graph, plus one RN no user occupies.

    The tree grows one leaf at a time: a new user on an RN holding fewer
    than three, or a new RN under an existing user.  Returns the codebook
    set, (y, channel, n0) and an iteration count no smaller than the depth.
    """
    m = draw(st.sampled_from([2, 4]))
    rn_users = [[0]]
    j = 1
    for new_rn in draw(st.lists(st.booleans(), min_size=1, max_size=6 if m == 2 else 4)):
        open_rns = [k for k, users in enumerate(rn_users) if len(users) < 3]
        if new_rn or not open_rns:
            rn_users.append([draw(st.integers(0, j - 1))])
        else:
            rn_users[draw(st.sampled_from(open_rns))].append(j)
            j += 1
    rn_users.insert(draw(st.integers(0, len(rn_users))), [])
    k = len(rn_users)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    books = np.zeros((j, k, m), dtype=complex)
    for rn, users in enumerate(rn_users):
        for l in users:
            books[l, rn] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    cbs = CodebookSet.from_codebooks(books, SystemDims(k, j, m, 1))
    batch = 200
    tx = rng.integers(0, m, (batch, j))
    h, w = (rng.standard_normal((2, batch, k)) + 1j * rng.standard_normal((2, batch, k))) / np.sqrt(2)
    n0 = 10 ** (-draw(st.floats(0.0, 20.0)) / 10)
    return cbs, h * cbs.superimpose(tx) + np.sqrt(n0) * w, h, n0, k + j


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(tree_graph_receptions())
def test_mpa_equals_ml_on_random_tree_graphs(case):
    # max-log MPA is exact on a tree once messages have crossed its depth
    cbs, y, h, n0, depth = case
    ml = MlDetector(cbs).detect_batch(y, h)
    for iterations in (depth, depth + 3):
        assert np.array_equal(MpaDetector(cbs, iterations=iterations).detect_batch(y, h, n0), ml)


def test_mpa_chunk_boundaries_and_shapes(ref_cbs):
    tx, y, h, n0 = _received_batch(ref_cbs, 6.0, 2 * 2048 + 3, seed=9)
    det = MpaDetector(ref_cbs, iterations=8)
    whole = det.detect_batch(y, h, n0)
    bounds = ((0, 2048), (2048, 4096), (4096, 4099))
    parts = [det.detect_batch(y[lo:hi], h[lo:hi], n0) for lo, hi in bounds]
    assert whole.shape == (4099, 6)
    assert np.array_equal(whole, np.concatenate(parts))
    single = det.detect_batch(y[5], h[5], n0)
    assert single.shape == (1, 6)
    assert np.array_equal(single, whole[5:6])


def _batch_leading_mpa(det, y, channel, n0):
    """The detector's max-log MPA with the batch on the leading axis.

    The reference layout: (B,) + (M,)*d costs and (B, M) messages, with the
    same additions in the same order, so decisions must match bit for bit.
    """
    b, m = y.shape[0], det.m_order
    cost = []
    for k, users in enumerate(det.rn_users):
        shape = (b,) + (1,) * len(users)
        resid = y[:, k].reshape(shape) - channel[:, k].reshape(shape) * det.local[k][None, ..., 0]
        cost.append((resid.real**2 + resid.imag**2) / n0)
    rn_msg = [[np.zeros((b, m)) for _ in users] for users in det.rn_users]
    user_msg = [[np.zeros((b, m)) for _ in users] for users in det.rn_users]
    for _ in range(det.iterations):
        for k, users in enumerate(det.rn_users):
            d = len(users)
            total = cost[k]
            for i in range(d):
                shape = [b] + [1] * d
                shape[1 + i] = m
                total = total + user_msg[k][i].reshape(shape)
            for i in range(d):
                axes = tuple(a for a in range(1, d + 1) if a != i + 1)
                rn_msg[k][i] = (total.min(axis=axes) if axes else total) - user_msg[k][i]
        for edges in det.user_edges:
            incoming = [rn_msg[k][pos] for k, pos in edges]
            full = np.sum(incoming, axis=0)
            for (k, pos), msg in zip(edges, incoming):
                ext = full - msg
                user_msg[k][pos] = ext - ext.min(axis=1, keepdims=True)
    beliefs = [np.sum([rn_msg[k][pos] for k, pos in edges], axis=0) for edges in det.user_edges]
    return np.stack([np.argmin(belief, axis=1) for belief in beliefs], axis=1)


@pytest.mark.parametrize("snr_db", [0.0, 6.0, 12.0, 24.0])
def test_mpa_matches_batch_leading_reference(ref_cbs, reduced_cbs, snr_db):
    tx, y, h, n0 = _received_batch(ref_cbs, snr_db, 4096, seed=10)
    det = MpaDetector(ref_cbs, iterations=8)
    assert np.array_equal(det.detect_batch(y, h, n0), _batch_leading_mpa(det, y, h, n0))
    tx, y, h, n0 = _received_batch(reduced_cbs, snr_db, 4096, seed=11)
    for iterations in (1, 3):
        det = MpaDetector(reduced_cbs, iterations=iterations)
        assert np.array_equal(det.detect_batch(y, h, n0), _batch_leading_mpa(det, y, h, n0))


def test_mpa_agreement_with_ml_on_loopy_graph(ref_cbs):
    tx, y, h, n0 = _received_batch(ref_cbs, 8.0, 4000, seed=5)
    ml = MlDetector(ref_cbs).detect_batch(y, h)
    mpa = MpaDetector(ref_cbs, iterations=8).detect_batch(y, h, n0)
    agreement = np.all(ml == mpa, axis=1).mean()
    print(f"\nMPA/ML joint agreement at 8 dB: {agreement:.4f}")
    assert agreement >= 0.98


def test_mpa_zero_iterations_is_interference_blind_demapping(ref_cbs):
    tx, y, h, n0 = _received_batch(ref_cbs, 10.0, 500, seed=6)
    got = MpaDetector(ref_cbs, iterations=0).detect_batch(y, h, n0)
    want = np.zeros_like(got)
    for l in range(6):
        ks = np.nonzero(ref_cbs.supports()[l])[0]
        resid = y[:, ks, None] - h[:, ks, None] * ref_cbs.codebooks[l, ks, :][None, :, :]
        want[:, l] = np.argmin(np.sum(np.abs(resid) ** 2, axis=1), axis=1)
    assert np.array_equal(got, want)


def test_detection_invariant_common_phase(ref_cbs):
    # exact in exact arithmetic; float epsilons can flip near-tied beliefs,
    # so check bit-equality at a margin-safe SNR and near-equality lower down
    tx, y, h, n0 = _received_batch(ref_cbs, 25.0, 1000, seed=7)
    phase = np.exp(1.2j)
    det = MpaDetector(ref_cbs, iterations=8)
    assert np.array_equal(det.detect_batch(y, h, n0), det.detect_batch(phase * y, phase * h, n0))
    ml = MlDetector(ref_cbs)
    assert np.array_equal(ml.detect_batch(y, h), ml.detect_batch(phase * y, phase * h))
    tx, y, h, n0 = _received_batch(ref_cbs, 10.0, 2000, seed=7)
    a = det.detect_batch(y, h, n0)
    b = det.detect_batch(phase * y, phase * h, n0)
    assert np.all(a == b, axis=1).mean() >= 0.995


def test_detection_invariant_common_scaling(ref_cbs):
    tx, y, h, n0 = _received_batch(ref_cbs, 25.0, 1000, seed=8)
    c = 3.7
    det = MpaDetector(ref_cbs, iterations=8)
    assert np.array_equal(det.detect_batch(y, h, n0), det.detect_batch(c * y, c * h, c**2 * n0))
    tx, y, h, n0 = _received_batch(ref_cbs, 10.0, 2000, seed=8)
    a = det.detect_batch(y, h, n0)
    b = det.detect_batch(c * y, c * h, c**2 * n0)
    assert np.all(a == b, axis=1).mean() >= 0.995


def test_ml_guard_on_huge_joint_space():
    dims = SystemDims(3, 13, 4, 1)
    books = np.zeros((13, 3, 4), dtype=complex)
    books[:, 0, :] = np.linspace(1, 2, 52).reshape(13, 4)
    cbs = CodebookSet.from_codebooks(books, dims)
    assert 4**13 > MAX_JOINT_TUPLES
    with pytest.raises(ValueError):
        MlDetector(cbs)


def _decide_in_batch(cbs, decide, seed=0, batch=64):
    """Per-rank bit errors of _run_batch when every receiver decides decide(tx).

    tx is the (B, J) index batch the simulator sends, replayed from the same
    seed (radii first, then the indices); decide maps it to a (B, J) tuple.
    """
    j = cbs.dims.j_users
    replay = np.random.default_rng(seed)
    replay.random((batch, j))
    tx = replay.integers(0, cbs.dims.m_order, (batch, j))
    decided = np.repeat(np.asarray(decide(tx), dtype=np.int64), j, axis=0)

    def detect(y, h, n0):
        return decided

    errors = _run_batch(SimConfig(), cbs, detect, 1.0, batch, np.random.default_rng(seed))
    return errors, tx


def test_count_bit_errors(ref_cbs):
    # decisions vs sent indices, counted in bits: none, every bit, the low bit
    errors, tx = _decide_in_batch(ref_cbs, lambda tx: tx)
    assert np.array_equal(errors, np.zeros(6))
    errors, tx = _decide_in_batch(ref_cbs, lambda tx: tx ^ 3)
    assert np.array_equal(errors, np.full(6, 2 * tx.shape[0]))
    errors, tx = _decide_in_batch(ref_cbs, lambda tx: tx ^ 1)
    assert np.array_equal(errors, np.full(6, tx.shape[0]))
    with pytest.raises(ValueError):
        _decide_in_batch(ref_cbs, lambda tx: tx[:, :-1])


def test_indices_to_bits_natural_labeling(ref_cbs):
    # index m carries the natural binary label of m, MSB first
    labels = ["00", "01", "10", "11"]
    decided = [3, 0, 1, 2, 3, 0]
    errors, tx = _decide_in_batch(ref_cbs, lambda tx: np.tile(decided, (tx.shape[0], 1)), seed=2)
    col_of_rank = np.argsort(ref_cbs.traces(), kind="stable")
    for r, c in enumerate(col_of_rank):
        want = sum(a != b for t in tx[:, c] for a, b in zip(labels[t], labels[decided[c]]))
        assert errors[r] == want
