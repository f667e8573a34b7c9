"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavyweight criteria
(6 and 8) run a Monte Carlo sweep and a full GA; the whole module completes
in a few minutes on a desktop.
"""

from itertools import product

import numpy as np
import pytest

from scma_ntn import (
    CellGeometry,
    DesignSpace,
    ErrorEvent,
    GaConfig,
    SimConfig,
    SystemDims,
    baseline_candidate,
    candidate_codebooks,
    dimension_energy,
    expected_distance_ratio,
    export_codebook_set,
    import_codebook_set,
    pep,
    run_ber_sweep,
    run_ga,
    sample_rician,
    set_bep,
    snr_db_to_n0,
    validate_signature,
)
from scma_ntn.analysis import effective_snr_terms, q_approx
from scma_ntn.constellation import pam_amplitudes
from scma_ntn.detection import MlDetector, MpaDetector
from scma_ntn.geometry import pathloss_factor
from scma_ntn.layering import assign_layers_and_power

from conftest import REF_DELTA, REF_RHOS, REF_THETAS, make_codebook_set
from test_layering import S_4x6, S_5x10, equivalent_up_to_relabeling, ops_ascending

DIMS = SystemDims(4, 6, 4, 2)
GEOM = CellGeometry(radius_ratio_c1=1.0, pathloss_alpha=3.0)
KAPPA = 10.0


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ref_imported(tmp_path_factory):
    """Reference 4x6 design pushed through the interchange file round trip."""
    cbs = make_codebook_set(REF_DELTA, REF_RHOS, REF_THETAS, DIMS)
    path = tmp_path_factory.mktemp("acc") / "reference.txt"
    export_codebook_set(cbs, path)
    return import_codebook_set(path)


@pytest.fixture(scope="module")
def ga_result():
    cfg = GaConfig(
        population=50,
        generations=20,
        design_snr_db=12.0,
        kappa=KAPPA,
        geometry=GEOM,
        truncation=3,
        seed=2024,
    )
    return run_ga(DesignSpace(dims=DIMS), cfg)


def test_criterion_1_energy_identity():
    worst = 0.0
    for delta in (1.0, 1.5, 2.0, 3.0):
        for m_order in (4, 8, 16):
            closed = dimension_energy(m_order, delta)
            brute = 2.0 * float(np.sum(pam_amplitudes(m_order, delta) ** 2))
            worst = max(worst, abs(closed - brute) / brute)
    _report(1, worst <= 1e-12, f"closed-form vs brute-force energy, max rel err {worst:.2e}")


def test_criterion_2_order_statistics():
    rng = np.random.default_rng(101)
    sorted_draws = np.sort(np.sqrt(rng.random((100_000, 6))), axis=1)
    max_sigma = 0.0
    for j in range(1, 7):
        col = sorted_draws[:, j - 1]
        se = col.std() / np.sqrt(col.size)
        max_sigma = max(max_sigma, abs(col.mean() - expected_distance_ratio(j, 6)) / se)
    anchor_err = max(
        abs(expected_distance_ratio(1, 1) - 2.0 / 3.0),
        abs(expected_distance_ratio(6, 6) - 12.0 / 13.0),
    )
    ok = max_sigma < 3.0 and anchor_err < 1e-12
    _report(2, ok, f"empirical means within {max_sigma:.2f} SE; anchor error {anchor_err:.1e}")


def test_criterion_3_assignment_fidelity():
    sig46 = assign_layers_and_power(ops_ascending([0.5, 0.75, 1.0]), DIMS)
    sig510 = assign_layers_and_power(ops_ascending([0.4, 0.6, 0.8, 1.0]), SystemDims(5, 10, 4, 2))
    match46 = equivalent_up_to_relabeling(sig46.entries, S_4x6, allow_row_perm=False)
    match510 = equivalent_up_to_relabeling(sig510.entries, S_5x10, allow_row_perm=True)
    valid = validate_signature(sig46).ok and validate_signature(sig510).ok
    ok = match46 and match510 and valid
    _report(
        3,
        ok,
        "4x6 matches published matrix up to column permutation and operator relabeling; "
        "5x10 matches with a row relabeling as well; both validate",
    )


def test_criterion_4_pep_against_monte_carlo(ref_imported):
    rng = np.random.default_rng(404)
    n0 = snr_db_to_n0(10.0, DIMS)
    worst_rel = 0.0
    checked = 0
    while checked < 20:
        tx = tuple(int(v) for v in rng.integers(0, 4, 6))
        rx = list(tx)
        flips = rng.choice(6, size=int(rng.integers(1, 4)), replace=False)
        for u in flips:
            rx[u] = int((rx[u] + rng.integers(1, 4)) % 4)
        target = int(flips[0])
        event = ErrorEvent(tx_indices=tx, rx_indices=tuple(rx), target_user=target)
        c2 = float(rng.random())
        analytic = pep(event, ref_imported, c2, GEOM, KAPPA, n0)
        if analytic < 0.01:
            # below the resolution floor of a 1e6-draw oracle (3 sigma > 2%)
            continue
        sk = effective_snr_terms(event, ref_imported, c2, GEOM, n0)
        g2 = np.abs(sample_rician((1_000_000, 4), KAPPA, rng)) ** 2
        mc = float(q_approx(np.sqrt(0.5 * g2 @ sk)).mean())
        worst_rel = max(worst_rel, abs(analytic - mc) / mc)
        checked += 1
    _report(4, worst_rel < 0.02, f"20 random events, worst relative error {worst_rel:.4f}")


def test_criterion_5_bep_brute_force_equivalence(reduced_cbs):
    n0 = snr_db_to_n0(9.0, reduced_cbs.dims)
    dims = reduced_cbs.dims
    worst = 0.0
    # Rank r is served by column columns_by_rank()[r - 1], [0, 2, 1] on this set, in set_bep and the simulation.
    columns = reduced_cbs.columns_by_rank()
    per_user = set_bep(reduced_cbs, GEOM, 5.0, n0).per_user
    for j_rank in (1, 2, 3):
        j = int(columns[j_rank - 1])
        c2 = expected_distance_ratio(j_rank, dims.j_users)
        total = 0.0
        for tx in product(range(dims.m_order), repeat=dims.j_users):
            for rx in product(range(dims.m_order), repeat=dims.j_users):
                if rx[j] == tx[j]:
                    continue
                ev = ErrorEvent(tx_indices=tx, rx_indices=rx, target_user=j)
                total += bin(tx[j] ^ rx[j]).count("1") * pep(ev, reduced_cbs, c2, GEOM, 5.0, n0)
        brute = total / (dims.m_order**dims.j_users * np.log2(dims.m_order))
        worst = max(worst, abs(brute - per_user[j_rank - 1]))
    _report(5, worst <= 1e-12, f"factorized vs direct enumeration, max abs diff {worst:.2e}")


def test_criterion_6_analysis_simulation_consistency(ref_imported):
    snr_grid = (16.0, 20.0, 24.0)
    cfg = SimConfig(
        kappa=KAPPA,
        geometry=GEOM,
        snr_grid_db=snr_grid,
        max_symbols=250_000,
        target_errors=100,
        detector="mpa",
        iterations=8,
        seed=606,
        batch_size=5000,
    )
    result = run_ber_sweep(cfg, ref_imported)
    qualifying = 0
    ratio_ok = True
    worst_ok = True
    details = []
    for si, snr in enumerate(snr_grid):
        summary = set_bep(ref_imported, GEOM, KAPPA, snr_db_to_n0(snr, DIMS), truncation=None)
        sim_ber = result.ber[si]
        for j in range(6):
            if sim_ber[j] <= 1e-3 and result.errors[si, j] >= 100:
                qualifying += 1
                ratio = summary.per_user[j] / sim_ber[j]
                details.append(f"{snr}dB u{j + 1} ratio {ratio:.2f}")
                if not (1.0 / 3.0 <= ratio <= 3.0):
                    ratio_ok = False
        if np.any((sim_ber <= 1e-3) & (result.errors[si] >= 100)):
            if int(np.argmax(sim_ber)) + 1 != summary.worst_user_rank:
                worst_ok = False
    ok = qualifying >= 1 and ratio_ok and worst_ok
    _report(
        6,
        ok,
        f"{qualifying} qualifying (snr,user) points, bound/sim ratios all within 3x "
        f"({'; '.join(details)}), worst-user identity agrees",
    )


def test_criterion_7_detector_oracle(ref_imported):
    rng = np.random.default_rng(707)
    agreements = {}
    for snr in (8.0, 25.0):
        n0 = snr_db_to_n0(snr, DIMS)
        tx = rng.integers(0, 4, (10_000, 6))
        s = ref_imported.superimpose(tx)
        g = sample_rician((10_000, 4), KAPPA, rng)
        h = pathloss_factor(GEOM, np.sqrt(rng.random(10_000)))[:, None] * g
        noise = np.sqrt(n0 / 2) * (rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape))
        y = h * s + noise
        ml = MlDetector(ref_imported).detect_batch(y, h)
        mpa = MpaDetector(ref_imported, iterations=8).detect_batch(y, h, n0)
        agreements[snr] = np.all(ml == mpa, axis=1).mean()
    ok = agreements[8.0] >= 0.99 and agreements[25.0] >= 0.999
    _report(
        7,
        ok,
        f"joint agreement {agreements[8.0]:.4f} at 8 dB (>= 0.99), "
        f"{agreements[25.0]:.4f} at 25 dB (>= 0.999), 1e4 symbols each",
    )


def test_criterion_8_design_improvement(ga_result):
    space = DesignSpace(dims=DIMS)
    n0 = snr_db_to_n0(12.0, DIMS)
    base_cbs = candidate_codebooks(baseline_candidate(space), space)
    exact_designed = set_bep(ga_result.codebooks, GEOM, KAPPA, n0, truncation=None).worst
    exact_base = set_bep(base_cbs, GEOM, KAPPA, n0, truncation=None).worst

    sim_cfg = SimConfig(
        kappa=KAPPA,
        geometry=GEOM,
        snr_grid_db=(12.0,),
        max_symbols=20_000,
        target_errors=400,
        seed=808,
        batch_size=4000,
    )
    res_designed = run_ber_sweep(sim_cfg, ga_result.codebooks)
    res_base = run_ber_sweep(sim_cfg, base_cbs)

    def worst_ci(res):
        i = int(np.argmax(res.ber[0]))
        p = res.ber[0][i]
        half = 1.96 * np.sqrt(p * (1 - p) / res.bits[0][i])
        return p, p - half, p + half

    p_d, _, hi_d = worst_ci(res_designed)
    p_b, lo_b, _ = worst_ci(res_base)
    analytical_ok = exact_designed < exact_base
    simulated_ok = hi_d < lo_b
    history_ok = bool(np.all(np.diff(ga_result.history) <= 0))
    ok = analytical_ok and simulated_ok and history_ok
    _report(
        8,
        ok,
        f"exact worst BEP at 12 dB {exact_designed:.4g} < baseline {exact_base:.4g}; "
        f"simulated worst BER {p_d:.4g} vs {p_b:.4g} with non-overlapping 95% CIs; "
        "no external baseline codebook file shipped, so the file-based compare "
        "gain clause is exercised by the CLI tests instead",
    )


def test_criterion_9_normalization(ga_result):
    candidates = [
        make_codebook_set(1.5, REF_RHOS, REF_THETAS, DIMS),
        make_codebook_set(2.0, (1.0, 1.0, 1.0), (0.1, 0.9, 2.2), DIMS),
        make_codebook_set(3.5, (0.2, 0.4, 0.8), (0.0, 1.5, 3.0), DIMS),
        ga_result.codebooks,
        make_codebook_set(2.5, (0.4, 0.6, 0.8, 1.0), (0.3, 1.2, 2.1, 3.0), SystemDims(5, 10, 4, 2)),
    ]
    worst_norm = max(abs(c.total_power() - c.dims.j_users * c.dims.m_order) for c in candidates)
    rotated_a = make_codebook_set(1.5, REF_RHOS, (0.0, 0.4, 0.8), DIMS)
    rotated_b = make_codebook_set(1.5, REF_RHOS, (0.9, 1.8, 2.7), DIMS)
    trace_shift = np.abs(rotated_a.traces() - rotated_b.traces()).max()
    ok = worst_norm <= 1e-9 and trace_shift <= 1e-12
    _report(
        9,
        ok,
        f"total power off target by at most {worst_norm:.2e}; rotation-only trace shift {trace_shift:.2e}",
    )
