import numpy as np
import pytest

from scma_ntn import layering, optimizer
from scma_ntn.cli import _history_rows, _write_csv
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
    # Outside the operators' domain a candidate has no codebook set, so it has no score.
    cfg = GaConfig(**SMALL_GA)
    with pytest.raises(ValueError, match="delta must be >= 1"):
        fitness(Candidate(delta=0.9, rhos=(0.5, 0.6, 0.7), thetas=(0, 0, 0)), cfg, space)
    with pytest.raises(ValueError, match="rho must be in"):
        fitness(Candidate(delta=2.0, rhos=(0.5, 0.6, 1.2), thetas=(0, 0, 0)), cfg, space)


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


def _hex(values):
    return [float(x).hex() for x in values]


def test_ga_bit_reproducible(space):
    cfg = GaConfig(seed=42, **SMALL_GA)
    r1 = run_ga(space, cfg)
    r2 = run_ga(space, cfg)
    assert r1.best == r2.best
    assert np.array_equal(r1.history, r2.history)
    assert np.array_equal(r1.codebooks.codebooks, r2.codebooks.codebooks)
    # Pinned bits: a change to the GA's draw order, arithmetic or tie rule moves them.
    assert _hex(r1.best.as_vector()) == [
        "0x1.8eea36ae9303ep+1", "0x1.79a32c8ec6c4ap-1", "0x1.c5cf18bee8416p-1", "0x1.9563483697ba5p-1",
        "0x1.686b2e3448862p-2", "0x1.37edf1459b0d4p+1", "0x1.4092f86e2f404p+0",
    ]
    assert _hex(r1.history) == ["0x1.aef38c6390a3ap-4", "0x1.aef38c6390a3ap-4", "0x1.92ad941ec04cep-4"]
    assert r1.best.fitness == r1.history[-1]


def test_ga_breaks_ties_by_first_lowest(space, monkeypatch):
    # Integer scores tie often.  Tournaments, elite and best each keep the first lowest;
    # taking the last lowest in any one of the three changes these pinned values.
    monkeypatch.setattr(optimizer, "_evaluate", lambda vectors, cfg, space: np.floor(vectors[:, 1:].sum(axis=1)))
    result = run_ga(space, GaConfig(seed=9, **SMALL_GA))
    assert _hex(result.best.as_vector()) == [
        "0x1.e2c2a47a18dd4p+1", "0x1.34328656239c0p-4", "0x1.ce2e702a3bf2cp-2", "0x1.cafc3607e1053p-2",
        "0x1.f16a49f363aa4p-2", "0x1.26fb1f66dec9ap-1", "0x0.0p+0",
    ]
    assert result.best.fitness == 2.0
    assert result.history.tolist() == [3.0, 3.0, 2.0]


def test_ga_history_non_increasing(space):
    cfg = GaConfig(seed=9, **SMALL_GA)
    result = run_ga(space, cfg)
    assert np.all(np.diff(result.history) <= 0)
    assert len(result.history) == cfg.generations


def test_ga_workers_change_nothing(space):
    r1 = run_ga(space, GaConfig(seed=4, workers=1, **SMALL_GA))
    r2 = run_ga(space, GaConfig(seed=4, workers=2, **SMALL_GA))
    assert r1.best == r2.best
    assert np.array_equal(r1.history, r2.history)


def test_generation_scores_equal_one_fitness_call_each(space):
    # One set_bep call scores a generation, each candidate as one fitness call does.
    cfg = GaConfig(design_snr_db=12.0, kappa=10.0, truncation=3)
    lo, hi = space.lower(), space.upper()
    lo[0] = 1.01
    vectors = np.random.default_rng(11).uniform(lo, hi, size=(6, space.dimension))
    scores = optimizer._evaluate(vectors, cfg, space)
    assert scores.shape == (6,)
    assert np.array_equal(scores, [fitness(Candidate.from_vector(v, space.n_operators), cfg, space) for v in vectors])
    assert np.all(np.isfinite(scores))


def test_history_csv(tmp_path, space):
    cfg = GaConfig(seed=5, **SMALL_GA)
    result = run_ga(space, cfg)
    path = tmp_path / "history.csv"
    _write_csv(path, "generation,best_worst_bep", _history_rows(result.history), "\r\n")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "generation,best_worst_bep"
    assert len(lines) == 1 + cfg.generations


def test_config_validation():
    with pytest.raises(ValueError):
        GaConfig(population=1)
    with pytest.raises(ValueError):
        GaConfig(generations=0)
    # elitism is fixed with the recipe: the population must hold the elite and one child.
    assert GaConfig().elitism == 2
    with pytest.raises(TypeError):
        GaConfig(elitism=3)
    with pytest.raises(ValueError, match="population must be an integer >= 3, got 2"):
        GaConfig(population=2)
    for workers in (0, -1):
        with pytest.raises(ValueError):
            GaConfig(workers=workers)
    with pytest.raises(ValueError, match="seed"):
        GaConfig(seed=-1)
    for kappa in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa"):
            GaConfig(kappa=kappa)
    for snr in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="SNR"):
            GaConfig(design_snr_db=snr)
    for truncation in (0, -2, 2.0, "3"):
        with pytest.raises(ValueError, match="truncation"):
            GaConfig(truncation=truncation)
    for name in ("population", "generations", "workers", "seed"):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            GaConfig(**{name: 1.5})
    GaConfig(kappa=0.0, truncation=None)
    GaConfig(truncation=np.int64(1))


def test_candidate_codebooks_normalized(space):
    cand = Candidate(delta=3.0, rhos=(0.2, 0.7, 0.9), thetas=(0.4, 1.4, 2.4))
    cbs = candidate_codebooks(cand, space)
    assert cbs.total_power() == pytest.approx(24.0, abs=1e-9)


def test_run_ga_searches_the_packing_once_per_dims(monkeypatch):
    # Every candidate assigns layers, but the packing depends only on dims.
    calls = []

    def counted(*args):
        calls.append(args)
        return assign_layers_and_power(*args)

    monkeypatch.setattr(optimizer, "assign_layers_and_power", counted)
    layering._pack_layers.cache_clear()
    for dims in (SystemDims(4, 6, 4, 2), SystemDims(5, 10, 4, 2)):
        run_ga(DesignSpace(dims=dims), GaConfig(population=4, generations=2, truncation=1))
    info = layering._pack_layers.cache_info()
    assert len(calls) == 2 * (4 + 2 * 2 + 1)
    assert (info.misses, info.hits) == (2, len(calls) - 2)
    assert not layering._pack_layers(4, 2, 3, 2, 0).flags.writeable


def test_design_path_at_double_overload():
    # 200% overload system: d_f = 4 operators, residual layers in play
    space = DesignSpace(dims=SystemDims(5, 10, 4, 2))
    cfg = GaConfig(population=4, generations=1, design_snr_db=15.0, kappa=10.0, truncation=1, seed=0)
    result = run_ga(space, cfg)
    assert np.isfinite(result.best.fitness)
    assert result.codebooks.total_power() == pytest.approx(40.0, abs=1e-9)
    assert result.codebooks.dims.j_users == 10
