import numpy as np
import pytest

from scma_ntn import (
    Candidate,
    CellGeometry,
    DesignSpace,
    GaConfig,
    SystemDims,
    assign_layers_and_power,
    baseline_candidate,
    build_codebook_set,
    build_mother_constellation,
    candidate_codebooks,
    fitness,
    run_ga,
    set_bep,
    snr_db_to_n0,
    validate_signature,
)

SMALL_GA = dict(population=8, generations=3, design_snr_db=12.0, kappa=10.0, truncation=2)


@pytest.fixture(scope="module")
def space():
    return DesignSpace(dims=SystemDims(4, 6, 4, 2))


def test_design_space_dimension(space):
    assert space.n_operators == 3
    assert space.dimension == 7
    assert space.lower().shape == (7,)


def test_candidate_vector_round_trip():
    cand = Candidate(delta=2.5, rhos=(0.3, 0.9, 0.5), thetas=(0.1, 0.2, 0.3))
    back = Candidate.from_vector(cand.as_vector(), 3)
    assert back == cand


def test_sorted_operators_ascending():
    cand = Candidate(delta=2.0, rhos=(0.9, 0.3, 0.5), thetas=(0.1, 0.2, 0.3))
    ops = cand.sorted_operators()
    assert [op.rho for op in ops] == [0.3, 0.5, 0.9]
    assert [op.theta for op in ops] == [0.2, 0.3, 0.1]


def test_fitness_equals_pipeline_recomputation(space):
    cand = Candidate(delta=1.8, rhos=(0.45, 0.7, 0.95), thetas=(0.3, 1.1, 2.2))
    cfg = GaConfig(design_snr_db=12.0, kappa=10.0, truncation=3)
    got = fitness(cand, cfg, space)
    mc = build_mother_constellation(4, 2, 1.8)
    sig = assign_layers_and_power(cand.sorted_operators(), space.dims)
    cbs = build_codebook_set(mc, sig)
    want = set_bep(
        cbs, CellGeometry(), 10.0, snr_db_to_n0(12.0, space.dims), truncation=3
    ).worst
    assert got == pytest.approx(want, rel=1e-14)


def test_fitness_invariant_to_global_rho_scale(space):
    cfg = GaConfig(**SMALL_GA)
    a = Candidate(delta=2.2, rhos=(0.4, 0.6, 1.0), thetas=(0.2, 1.0, 2.0))
    b = Candidate(delta=2.2, rhos=(0.2, 0.3, 0.5), thetas=(0.2, 1.0, 2.0))
    assert fitness(a, cfg, space) == pytest.approx(fitness(b, cfg, space), rel=1e-12)


def test_fitness_invariant_to_operator_relabeling(space):
    cfg = GaConfig(**SMALL_GA)
    a = Candidate(delta=2.2, rhos=(0.4, 0.6, 1.0), thetas=(0.2, 1.0, 2.0))
    b = Candidate(delta=2.2, rhos=(1.0, 0.4, 0.6), thetas=(2.0, 0.2, 1.0))
    assert fitness(a, cfg, space) == pytest.approx(fitness(b, cfg, space), rel=1e-14)


def test_fitness_infeasible_candidates(space):
    cfg = GaConfig(**SMALL_GA)
    assert fitness(Candidate(delta=0.9, rhos=(0.5, 0.6, 0.7), thetas=(0, 0, 0)), cfg, space) == np.inf
    assert fitness(Candidate(delta=2.0, rhos=(0.5, 0.6, 1.2), thetas=(0, 0, 0)), cfg, space) == np.inf


def test_degenerate_ga_returns_seeded_candidate(space):
    cand = Candidate(delta=2.0, rhos=(0.4, 0.6, 0.8), thetas=(0.5, 1.0, 1.5))
    cfg = GaConfig(
        population=6,
        generations=1,
        design_snr_db=12.0,
        kappa=10.0,
        truncation=2,
        mutation_rate=0.0,
        crossover_rate=1.0,
        seed=3,
    )
    result = run_ga(space, cfg, initial=[cand] * 6)
    assert result.best.delta == cand.delta
    assert result.best.rhos == cand.rhos and result.best.thetas == cand.thetas


def test_ga_beats_equal_power_baseline(space):
    cfg = GaConfig(seed=1, **SMALL_GA)
    result = run_ga(space, cfg)
    base = fitness(baseline_candidate(space), cfg, space)
    assert result.best.fitness <= base
    report = validate_signature(
        assign_layers_and_power(result.best.sorted_operators(), space.dims)
    )
    assert report.ok
    assert result.codebooks.total_power() == pytest.approx(24.0, abs=1e-9)


def test_ga_bit_reproducible(space):
    cfg = GaConfig(seed=42, **SMALL_GA)
    r1 = run_ga(space, cfg)
    r2 = run_ga(space, cfg)
    assert r1.best == r2.best
    assert np.array_equal(r1.history, r2.history)
    assert np.array_equal(r1.codebooks.codebooks, r2.codebooks.codebooks)


def test_ga_history_non_increasing(space):
    cfg = GaConfig(seed=9, **SMALL_GA)
    result = run_ga(space, cfg)
    assert np.all(np.diff(result.history) <= 0)
    assert len(result.history) == cfg.generations


def test_ga_parallel_fitness_matches_serial(space):
    cfg1 = GaConfig(seed=4, workers=1, **SMALL_GA)
    cfg2 = GaConfig(seed=4, workers=2, **SMALL_GA)
    r1 = run_ga(space, cfg1)
    r2 = run_ga(space, cfg2)
    assert r1.best == r2.best


def test_history_csv(tmp_path, space):
    cfg = GaConfig(seed=5, **SMALL_GA)
    result = run_ga(space, cfg)
    path = tmp_path / "history.csv"
    result.write_history_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "generation,best_worst_bep"
    assert len(lines) == 1 + cfg.generations


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population=1)
    with pytest.raises(ValueError):
        GaConfig(generations=0)
    with pytest.raises(ValueError):
        GaConfig(population=4, elitism=4)
    for workers in (0, -1):
        with pytest.raises(ValueError):
            GaConfig(workers=workers)
    for kappa in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa"):
            GaConfig(kappa=kappa)
    for snr in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="SNR"):
            GaConfig(design_snr_db=snr)
    for truncation in (0, -2, 2.0, "3"):
        with pytest.raises(ValueError, match="truncation"):
            GaConfig(truncation=truncation)
    for name in ("crossover_rate", "mutation_rate"):
        for rate in (float("nan"), float("inf"), -0.1, 1.5):
            with pytest.raises(ValueError, match=name):
                GaConfig(**{name: rate})
        for rate in (0.0, 1.0):
            GaConfig(**{name: rate})
    GaConfig(kappa=0.0, truncation=None)
    GaConfig(truncation=np.int64(1))


def test_candidate_codebooks_normalized(space):
    cand = Candidate(delta=3.0, rhos=(0.2, 0.7, 0.9), thetas=(0.4, 1.4, 2.4))
    cbs = candidate_codebooks(cand, space)
    assert cbs.total_power() == pytest.approx(24.0, abs=1e-9)


def test_design_path_at_double_overload():
    # 200% overload system: d_f = 4 operators, residual layers in play
    space = DesignSpace(dims=SystemDims(5, 10, 4, 2))
    cfg = GaConfig(population=4, generations=1, design_snr_db=15.0, kappa=10.0, truncation=1, seed=0)
    result = run_ga(space, cfg)
    assert np.isfinite(result.best.fitness)
    assert result.codebooks.total_power() == pytest.approx(40.0, abs=1e-9)
    assert result.codebooks.dims.j_users == 10
