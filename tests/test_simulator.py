import numpy as np
import pytest

from scma_ntn import CodebookSet, SimConfig, SystemDims, run_ber_sweep
from scma_ntn.simulator import _make_detector, _run_batch


def _blind_batch(cbs, decided, seed=0, batch=64):
    """_run_batch with a detector that always decides the tuple `decided`.

    Returns the per-rank error counts and the (B, J) indices the batch sent,
    replayed from the same seed (radii first, then the indices).
    """
    j = cbs.dims.j_users

    def detect(y, h, n0):
        return np.tile(np.asarray(decided, dtype=np.int64), (y.shape[0], 1))

    errors = _run_batch(SimConfig(), cbs, detect, 1.0, batch, np.random.default_rng(seed))
    replay = np.random.default_rng(seed)
    replay.random((batch, j))
    return errors, replay.integers(0, cbs.dims.m_order, (batch, j))


def _ones(indices):
    return np.bitwise_count(indices).sum(axis=0)


def test_allocate_reverses_descending_distances(ref_cbs):
    # columns stored strictly strongest first: the nearest rank gets the last column
    scale = np.linspace(1.5, 1.0, 6)[:, None, None]
    flipped = CodebookSet.from_codebooks(scale * ref_cbs.codebooks[::-1], ref_cbs.dims)
    errors, tx = _blind_batch(flipped, [0] * 6)
    assert np.array_equal(errors, _ones(tx)[::-1])
    assert not np.array_equal(errors, _ones(tx))


def test_allocate_equal_powers_identity():
    dims = SystemDims(2, 2, 4, 1)
    books = np.zeros((2, 2, 4), dtype=complex)
    books[0, 0, :] = [-1, -0.5, 0.5, 1]
    books[1, 1, :] = [-1, -0.5, 0.5, 1]
    cbs = CodebookSet.from_codebooks(books, dims)
    errors, tx = _blind_batch(cbs, [0, 0], seed=3)
    assert np.array_equal(errors, _ones(tx))


def test_allocate_farthest_gets_max_power(ref_cbs):
    perm = np.random.default_rng(9).permutation(6)
    scale = np.linspace(1.0, 1.5, 6)[:, None, None]  # breaks the reference set's power ties
    shuffled = CodebookSet.from_codebooks(scale * ref_cbs.codebooks[perm], ref_cbs.dims)
    errors, tx = _blind_batch(shuffled, [0] * 6, seed=1)
    assert errors[-1] == _ones(tx)[np.argmax(shuffled.traces())]


def test_allocate_length_mismatch(ref_cbs):
    with pytest.raises(ValueError):
        run_ber_sweep(SimConfig(fixed_distance_ratios=(0.5, 0.5)), ref_cbs)


def test_run_batch_deterministic(ref_cbs):
    cfg = SimConfig(kappa=10.0, snr_grid_db=(10.0,), seed=0)
    detect = _make_detector(cfg, ref_cbs)
    a = _run_batch(cfg, ref_cbs, detect, 0.15, 50, np.random.default_rng(123))
    b = _run_batch(cfg, ref_cbs, detect, 0.15, 50, np.random.default_rng(123))
    assert np.array_equal(a, b)
    assert a.shape == (6,)


def test_sweep_error_free_without_noise(ref_cbs):
    cfg = SimConfig(
        kappa=1e12, snr_grid_db=(60.0,), fixed_distance_ratios=(0.0,) * 6, max_symbols=500, batch_size=500
    )
    assert run_ber_sweep(cfg, ref_cbs).errors.sum() == 0


def test_fixed_distance_ratios_order_is_irrelevant(ref_cbs):
    # the rank-r user is the r-th nearest, whatever order the ratios are given in
    base = dict(kappa=10.0, snr_grid_db=(12.0,), max_symbols=2000, target_errors=10**6, batch_size=2000, seed=1)
    ratios = (0.1, 0.2, 0.4, 0.6, 0.8, 0.95)
    ascending = run_ber_sweep(SimConfig(fixed_distance_ratios=ratios, **base), ref_cbs)
    reversed_ = run_ber_sweep(SimConfig(fixed_distance_ratios=ratios[::-1], **base), ref_cbs)
    assert np.array_equal(ascending.errors, reversed_.errors)


def test_sweep_error_free_at_extreme_snr(ref_cbs):
    cfg = SimConfig(
        kappa=10.0, snr_grid_db=(60.0,), max_symbols=1000, target_errors=100, batch_size=500, seed=3
    )
    res = run_ber_sweep(cfg, ref_cbs)
    assert res.errors.sum() == 0
    assert np.all(res.bits == 2000)


def test_sweep_deterministic_and_thread_invariant(ref_cbs):
    base = dict(kappa=10.0, snr_grid_db=(8.0,), max_symbols=4000, target_errors=50, batch_size=1000)
    res1 = run_ber_sweep(SimConfig(seed=7, threads=1, **base), ref_cbs)
    res2 = run_ber_sweep(SimConfig(seed=7, threads=1, **base), ref_cbs)
    res3 = run_ber_sweep(SimConfig(seed=7, threads=2, **base), ref_cbs)
    assert np.array_equal(res1.errors, res2.errors)
    assert np.array_equal(res1.errors, res3.errors)
    assert np.array_equal(res1.bits, res3.bits)


def test_sweep_symmetric_orthogonal_users():
    # two users on disjoint RNs with equal power: rank BERs agree within noise
    dims = SystemDims(2, 2, 4, 1)
    books = np.zeros((2, 2, 4), dtype=complex)
    row = np.array([-3.0, -1.0, 1.0, 3.0])
    books[0, 0, :] = row
    books[1, 1, :] = row
    cbs = CodebookSet.from_codebooks(books, dims)
    cfg = SimConfig(
        kappa=10.0,
        snr_grid_db=(6.0,),
        max_symbols=40_000,
        target_errors=100_000,
        batch_size=10_000,
        seed=5,
        fixed_distance_ratios=(0.0, 0.0),
    )
    res = run_ber_sweep(cfg, cbs)
    e0, e1 = res.errors[0]
    spread = abs(e0 - e1) / np.sqrt(e0 + e1)
    assert spread < 4.0


def test_sweep_summary_relations(ref_cbs):
    cfg = SimConfig(
        kappa=10.0, snr_grid_db=(4.0, 16.0), max_symbols=6000, target_errors=100, batch_size=2000, seed=2
    )
    res = run_ber_sweep(cfg, ref_cbs)
    assert np.all(res.ber_worst >= res.ber_avg)
    assert np.all(res.ber_avg >= 0)
    assert res.ber_worst[0] > res.ber_worst[-1]


def test_sweep_stops_at_error_target(ref_cbs):
    cfg = SimConfig(
        kappa=10.0, snr_grid_db=(0.0,), max_symbols=1_000_000, target_errors=50, batch_size=500, seed=4
    )
    res = run_ber_sweep(cfg, ref_cbs)
    assert res.errors.min() >= 50
    assert res.bits[0, 0] < 100_000  # stopped long before the cap


def test_sweep_with_ml_detector(ref_cbs):
    base = dict(kappa=10.0, snr_grid_db=(10.0,), max_symbols=2000, target_errors=100, batch_size=1000, seed=6)
    res_ml = run_ber_sweep(SimConfig(detector="ml", **base), ref_cbs)
    res_mpa = run_ber_sweep(SimConfig(detector="mpa", **base), ref_cbs)
    assert res_ml.errors.sum() > 0
    # same channels and symbols, near-ML detector: error counts track closely
    assert abs(res_ml.errors.sum() - res_mpa.errors.sum()) / res_ml.errors.sum() < 0.2


def test_ber_csv_schema(tmp_path, ref_cbs):
    cfg = SimConfig(kappa=10.0, snr_grid_db=(8.0,), max_symbols=2000, target_errors=10, batch_size=1000)
    res = run_ber_sweep(cfg, ref_cbs)
    path = tmp_path / "ber.csv"
    res.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "snr_db,user_rank,bits,errors,ber,ber_avg,ber_worst"
    assert len(lines) == 1 + 6


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(snr_grid_db=(10.0, 5.0))
    with pytest.raises(ValueError):
        SimConfig(detector="zf")
    with pytest.raises(ValueError):
        SimConfig(max_symbols=0)
    with pytest.raises(ValueError):
        SimConfig(threads=0)
    with pytest.raises(ValueError):
        SimConfig(iterations=-1)
    for bad in (5.0, 1.5, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SimConfig(fixed_distance_ratios=(0.5,) * 5 + (bad,))
    SimConfig(fixed_distance_ratios=(0.0,) * 3 + (1.0,) * 3)
