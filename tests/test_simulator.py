from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from scma_ntn import CellGeometry, CodebookSet, SimConfig, SystemDims, run_ber_sweep, snr_db_to_n0
from scma_ntn.cli import _ber_rows, _write_csv
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


def test_allocate_ulp_power_tie_keeps_index_order(ref_cbs):
    # column 0 a few ulps stronger than column 1, its equal-power twin: still a tie
    books = ref_cbs.codebooks.copy()
    books[0] *= 1 + 4 * np.finfo(float).eps
    tied = CodebookSet(codebooks=books, dims=ref_cbs.dims)
    assert np.argsort(tied.traces(), kind="stable")[0] == 1
    errors, tx = _blind_batch(tied, [0] * 6)
    assert np.array_equal(errors, _ones(tx))
    assert _ones(tx)[0] != _ones(tx)[1]


def test_allocate_farthest_gets_max_power(ref_cbs):
    perm = np.random.default_rng(9).permutation(6)
    scale = np.linspace(1.0, 1.5, 6)[:, None, None]  # breaks the reference set's power ties
    shuffled = CodebookSet.from_codebooks(scale * ref_cbs.codebooks[perm], ref_cbs.dims)
    errors, tx = _blind_batch(shuffled, [0] * 6, seed=1)
    assert errors[-1] == _ones(tx)[np.argmax(shuffled.traces())]


def test_run_batch_deterministic(ref_cbs):
    cfg = SimConfig(kappa=10.0, snr_grid_db=(10.0,), seed=0)
    detect = _make_detector(cfg, ref_cbs)
    a = _run_batch(cfg, ref_cbs, detect, 0.15, 50, np.random.default_rng(123))
    b = _run_batch(cfg, ref_cbs, detect, 0.15, 50, np.random.default_rng(123))
    assert np.array_equal(a, b)
    assert a.shape == (6,)


def test_sweep_error_free_without_noise(ref_cbs):
    cfg = SimConfig(kappa=1e12, snr_grid_db=(60.0,), max_symbols=500, batch_size=500)
    assert run_ber_sweep(cfg, ref_cbs).errors.sum() == 0


def test_sweep_error_free_at_extreme_snr(ref_cbs):
    cfg = SimConfig(
        kappa=10.0, snr_grid_db=(60.0,), max_symbols=1000, target_errors=100, batch_size=500, seed=3
    )
    res = run_ber_sweep(cfg, ref_cbs)
    assert res.errors.sum() == 0
    assert np.all(res.bits == 2000)


def test_sweep_deterministic_and_thread_invariant(ref_cbs):
    # Point s runs batches b = 0, 1, ... of 300 codewords from SeedSequence((seed, s, b)); the
    # cap of 2500 is no multiple of 300, so batch 8 sends 100.  With three threads the 8 dB
    # point stops on errors at batch 1, in the middle of its first wave, and 20 dB at the cap.
    base = dict(kappa=10.0, snr_grid_db=(0.0, 8.0, 20.0), max_symbols=2500, target_errors=40, batch_size=300, seed=7)
    n0 = snr_db_to_n0(8.0, ref_cbs.dims)
    for detector in ("mpa", "ml"):
        runs = [run_ber_sweep(SimConfig(detector=detector, threads=t, **base), ref_cbs) for t in (1, 1, 2, 3)]
        for res in runs[1:]:
            assert np.array_equal(res.errors, runs[0].errors)
            assert np.array_equal(res.bits, runs[0].bits)
        assert (runs[0].bits[:, 0] // ref_cbs.dims.bits_per_symbol).tolist() == [300, 600, 2500]
        cfg = SimConfig(detector=detector, **base)
        detect = _make_detector(cfg, ref_cbs)
        rngs = [np.random.default_rng(np.random.SeedSequence((7, 1, b))) for b in range(2)]
        assert np.array_equal(runs[0].errors[1], sum(_run_batch(cfg, ref_cbs, detect, n0, 300, r) for r in rngs))


def test_one_thread_sweep_submits_nothing(ref_cbs, monkeypatch):
    # The calling thread runs each wave's first batch, so one thread starts no worker.
    def refuse(*args, **kwargs):
        raise AssertionError("a one-thread sweep submitted a batch to the pool")

    monkeypatch.setattr(ThreadPoolExecutor, "submit", refuse)
    cfg = SimConfig(snr_grid_db=(0.0, 20.0), max_symbols=600, target_errors=40, batch_size=200, threads=1)
    res = run_ber_sweep(cfg, ref_cbs)
    assert res.bits[1, 0] == 600 * ref_cbs.dims.bits_per_symbol


def test_sweep_symmetric_orthogonal_users():
    # two users on disjoint RNs with equal power: rank BERs agree within noise.  At c1 = 1000
    # and alpha = 1 the path loss is 30 dB within 1e-6 anywhere in the cell, so the two ranks'
    # link SNRs are equal: 6 dB.
    dims = SystemDims(2, 2, 4, 1)
    books = np.zeros((2, 2, 4), dtype=complex)
    row = np.array([-3.0, -1.0, 1.0, 3.0])
    books[0, 0, :] = row
    books[1, 1, :] = row
    cbs = CodebookSet.from_codebooks(books, dims)
    cfg = SimConfig(
        kappa=10.0,
        geometry=CellGeometry(radius_ratio_c1=1000.0, pathloss_alpha=1.0),
        snr_grid_db=(36.0,),
        max_symbols=40_000,
        target_errors=100_000,
        batch_size=10_000,
        seed=5,
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
    _write_csv(path, "snr_db,user_rank,bits,errors,ber,ber_avg,ber_worst", _ber_rows(res), "\n")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "snr_db,user_rank,bits,errors,ber,ber_avg,ber_worst"
    assert len(lines) == 1 + 6


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(snr_grid_db=(10.0, 5.0))
    with pytest.raises(ValueError):
        SimConfig(detector="zf")
    # Each count names itself when it is below its least value.
    for name in ("max_symbols", "target_errors", "batch_size", "threads", "iterations"):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got 0"):
            SimConfig(**{name: 0})
    for iterations in (0, -1):
        with pytest.raises(ValueError, match="iterations must be an integer >= 1"):
            SimConfig(iterations=iterations)
    with pytest.raises(ValueError, match="seed"):
        SimConfig(seed=-1)
    for name in ("max_symbols", "target_errors", "batch_size", "threads", "iterations", "seed"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimConfig(**{name: 10.5})
    for kappa in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa"):
            SimConfig(kappa=kappa)
    for grid in ((float("nan"),), (0.0, float("inf")), (float("-inf"), 0.0)):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(snr_grid_db=grid)
    SimConfig(kappa=0.0)
