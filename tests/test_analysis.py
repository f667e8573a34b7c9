import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

import scma_ntn.analysis as analysis_mod
from scma_ntn import (
    CellGeometry,
    CodebookSet,
    ErrorEvent,
    SystemDims,
    expected_distance_ratio,
    pep,
    q_approx,
    rician_mgf,
    sample_rician,
    set_bep,
    snr_db_to_n0,
    user_bep,
)
from scma_ntn.analysis import (
    _distance_gains,
    _exact_user_bep,
    _lumped_pairs,
    _truncated_user_bep,
    effective_snr_terms,
    write_bep_csv,
)

from conftest import make_codebook_set, make_oversized_set, make_reduced_set, small_sets
from union_bound_oracle import enumerate_user_bep

# Irregular graphs as K and the RNs of each user: the reduced set's layout,
# one with an idle RN (RN 2), and one with a user on no RN (an all-zero codebook).
IRREGULAR_LAYOUTS = [
    (2, ([0], [0], [1])),
    (3, ([0], [0, 1], [1])),
    (2, ([0, 1], [1], [])),
]


@st.composite
def irregular_sets(draw, k, layout):
    """A codebook set on an irregular layout with random nonzero codewords."""
    m = draw(st.sampled_from((2, 4)))
    books = np.zeros((len(layout), k, m), dtype=complex)
    for u, rns in enumerate(layout):
        for r in rns:
            mags = draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m))
            phases = draw(st.lists(st.floats(0.0, 6.28), min_size=m, max_size=m))
            books[u, r] = np.array(mags) * np.exp(1j * np.array(phases))
    return CodebookSet.from_codebooks(books, SystemDims(k, len(layout), m, 1))


def gains_of(cbs, mode):
    j_users = cbs.dims.j_users
    return np.array([_distance_gains(t + 1, j_users, CellGeometry(), mode, None)[0] for t in range(j_users)])


def assert_contraction_matches_enumeration(cbs, kappa, snr_db, mode=None, gammas=None):
    """Every user's exact numerators from one contraction equal the enumeration's at E* = J."""
    j_users = cbs.dims.j_users
    n0 = snr_db_to_n0(snr_db, cbs.dims)
    gammas = gains_of(cbs, mode) if gammas is None else gammas
    got = _exact_user_bep(cbs, list(range(j_users)), gammas, kappa, n0)
    for t in range(j_users):
        want = enumerate_user_bep(cbs, t, gammas[t], kappa, n0, max_users_in_error=j_users)
        assert np.all(np.abs(got[t] - want) <= 1e-12 * want), (t, got[t], want)


def class_counts(cbs):
    return [len(vectors) for vectors in _lumped_pairs(cbs)[0]]


def q_true(x):
    return 0.5 * erfc(np.asarray(x) / np.sqrt(2.0))


def test_q_approx_anchor_values():
    assert q_approx(0.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    # direct evaluation of the two-term form at x = 3
    assert q_approx(3.0) == pytest.approx(np.exp(-4.5) / 12 + np.exp(-6.0) / 4, rel=1e-15)
    assert q_approx(3.0) == pytest.approx(1.5454377e-3, rel=1e-6)


def test_q_approx_upper_bounds_true_q_in_tail():
    # the two-term form crosses the true Q around x ~ 0.7: below that it
    # under-estimates (1/3 < 1/2 at x = 0), above it is an upper bound
    x = np.arange(0.8, 8.01, 0.1)
    assert np.all(q_approx(x) >= q_true(x))
    assert q_approx(0.0) < q_true(0.0)
    head = np.arange(0.0, 0.61, 0.1)
    assert np.all(q_approx(head) < q_true(head))


def test_rician_mgf_values():
    assert rician_mgf(0.0, 3.7) == pytest.approx(1.0)
    assert rician_mgf(1.0, 0.0) == pytest.approx(0.5)
    direct = (11.0 / 13.0) * np.exp(-20.0 / 13.0)
    assert rician_mgf(2.0, 10.0) == pytest.approx(direct, rel=1e-15)


def test_rician_mgf_against_monte_carlo():
    rng = np.random.default_rng(5)
    g2 = np.abs(sample_rician(1_000_000, 10.0, rng)) ** 2
    emp = np.exp(-2.0 * g2)
    se = emp.std() / np.sqrt(emp.size)
    assert abs(emp.mean() - rician_mgf(2.0, 10.0)) < 4 * se


def test_rician_mgf_kappa_zero_is_rayleigh():
    s = np.linspace(0.0, 50.0, 101)
    assert np.allclose(rician_mgf(s, 0.0), 1.0 / (1.0 + s), rtol=1e-14)


def test_snr_convention(dims46):
    assert snr_db_to_n0(0.0, dims46) == pytest.approx(6.0 / 4.0)
    assert snr_db_to_n0(10.0, dims46) == pytest.approx(0.15)


def test_error_event_validation():
    with pytest.raises(ValueError):
        ErrorEvent(tx_indices=(0, 1), rx_indices=(0, 1), target_user=1)
    with pytest.raises(ValueError):
        ErrorEvent(tx_indices=(0, 1), rx_indices=(1,), target_user=0)
    with pytest.raises(ValueError):
        ErrorEvent(tx_indices=(0, 1), rx_indices=(1, 0), target_user=2)


def test_effective_snr_no_difference_at_idle_rn(ref_cbs, geom):
    ev = ErrorEvent(tx_indices=(0,) * 6, rx_indices=(0, 0, 0, 0, 0, 1), target_user=5)
    sk = effective_snr_terms(ev, ref_cbs, 0.3, geom, 0.1)
    support = ref_cbs.supports()[5]
    assert np.all(sk[~support] == 0)
    assert np.any(sk[support] > 0)


def test_effective_snr_single_user_unit_geometry():
    dims = SystemDims(2, 1, 2, 1)
    books = np.zeros((1, 2, 2), dtype=complex)
    books[0, 0, :] = [1.0, -1.0]
    cbs = CodebookSet(codebooks=books, dims=dims)
    ev = ErrorEvent(tx_indices=(0,), rx_indices=(1,), target_user=0)
    sk = effective_snr_terms(ev, cbs, 0.0, CellGeometry(pathloss_alpha=3.0), 0.5)
    assert sk[0] == pytest.approx(4.0 / 0.5)  # |d|^2 / N0 with unit geometry factor
    assert sk[1] == 0.0


def test_effective_snr_destructive_collision():
    dims = SystemDims(1, 2, 2, 1)
    books = np.zeros((2, 1, 2), dtype=complex)
    books[0, 0, :] = [1.0, -1.0]
    books[1, 0, :] = [-1.0, 1.0]
    cbs = CodebookSet(codebooks=books, dims=dims)
    ev = ErrorEvent(tx_indices=(0, 0), rx_indices=(1, 1), target_user=0)
    sk = effective_snr_terms(ev, cbs, 0.0, CellGeometry(), 1.0)
    assert sk[0] == pytest.approx(0.0, abs=1e-30)


def test_pep_saturates_at_one_third():
    dims = SystemDims(1, 1, 2, 1)
    books = np.zeros((1, 1, 2), dtype=complex)
    books[0, 0, :] = [1.0, 1.0]  # duplicated codewords: zero difference
    cbs = CodebookSet(codebooks=books, dims=dims)
    ev = ErrorEvent(tx_indices=(0,), rx_indices=(1,), target_user=0)
    assert pep(ev, cbs, 0.5, CellGeometry(), 7.0, 0.3) == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_pep_hand_computed_rayleigh_point():
    # single RN, s1 = 4, kappa = 0: (1/12)(1/2) + (1/4)(3/7)
    dims = SystemDims(1, 1, 2, 1)
    books = np.zeros((1, 1, 2), dtype=complex)
    books[0, 0, :] = [1.0, -1.0]
    cbs = CodebookSet(codebooks=books, dims=dims)
    ev = ErrorEvent(tx_indices=(0,), rx_indices=(1,), target_user=0)
    val = pep(ev, cbs, 0.0, CellGeometry(), 0.0, 1.0)
    assert val == pytest.approx(1.0 / 24.0 + 3.0 / 28.0, rel=1e-14)


def test_pep_matches_monte_carlo_oracle(ref_cbs, geom):
    rng = np.random.default_rng(17)
    n0 = snr_db_to_n0(10.0, ref_cbs.dims)
    tx = tuple(int(v) for v in rng.integers(0, 4, 6))
    rx = list(tx)
    rx[1] = (rx[1] + 1) % 4
    rx[4] = (rx[4] + 3) % 4
    ev = ErrorEvent(tx_indices=tx, rx_indices=tuple(rx), target_user=1)
    sk = effective_snr_terms(ev, ref_cbs, 0.4, geom, n0)
    g2 = np.abs(sample_rician((1_000_000, 4), 10.0, rng)) ** 2
    mc = q_approx(np.sqrt(0.5 * g2 @ sk)).mean()
    assert pep(ev, ref_cbs, 0.4, geom, 10.0, n0) == pytest.approx(mc, rel=0.02)


def brute_force_user_bep(cbs, j_rank, geom, kappa, n0, c2=None):
    dims = cbs.dims
    j = j_rank - 1
    c2 = expected_distance_ratio(j_rank, dims.j_users) if c2 is None else c2
    total = 0.0
    for tx in product(range(dims.m_order), repeat=dims.j_users):
        for rx in product(range(dims.m_order), repeat=dims.j_users):
            if rx[j] == tx[j]:
                continue
            ev = ErrorEvent(tx_indices=tx, rx_indices=rx, target_user=j)
            total += bin(tx[j] ^ rx[j]).count("1") * pep(ev, cbs, c2, geom, kappa, n0)
    return total / (dims.m_order**dims.j_users * np.log2(dims.m_order))


def test_user_bep_single_user_union_bound(geom):
    dims = SystemDims(2, 1, 2, 1)
    books = np.zeros((1, 2, 2), dtype=complex)
    books[0] = [[1.0, -1.0], [0.5, -0.5]]
    cbs = CodebookSet.from_codebooks(books, dims)
    got = user_bep(1, cbs, geom, 4.0, 0.7)
    want = brute_force_user_bep(cbs, 1, geom, 4.0, 0.7)
    assert got == pytest.approx(want, abs=1e-14)


def test_user_bep_matches_brute_force_on_reduced_system(reduced_cbs, geom):
    n0 = snr_db_to_n0(9.0, reduced_cbs.dims)
    for j_rank in (1, 2, 3):
        got = user_bep(j_rank, reduced_cbs, geom, 5.0, n0)
        want = brute_force_user_bep(reduced_cbs, j_rank, geom, 5.0, n0)
        assert abs(got - want) <= 1e-12


def test_user_bep_monotone_in_snr(ref_cbs, geom):
    vals = [
        user_bep(2, ref_cbs, geom, 10.0, snr_db_to_n0(snr, ref_cbs.dims), truncation=2)
        for snr in (0.0, 5.0, 10.0, 15.0, 20.0)
    ]
    assert np.all(np.diff(vals) < 0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    small_sets(),
    st.floats(0.0, 20.0),
    st.floats(-5.0, 10.0),
    st.lists(st.floats(0.5, 8.0), min_size=1, max_size=3),
)
def test_set_bep_non_increasing_in_snr(cbs, kappa, first_snr, steps):
    grid = first_snr + np.cumsum([0.0] + steps)
    n0s = [snr_db_to_n0(s, cbs.dims) for s in grid]
    for truncation in (1, 2, None):
        per_user = np.array([set_bep(cbs, CellGeometry(), kappa, n0, truncation=truncation).per_user for n0 in n0s])
        assert np.all(np.diff(per_user, axis=0) <= 0), (truncation, per_user)


BOUND_SETTINGS = (st.floats(0.0, 20.0), st.floats(-5.0, 25.0), st.sampled_from(("mean", "quadrature")))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.one_of(small_sets(), st.just(make_reduced_set())), *BOUND_SETTINGS)
def test_contraction_matches_enumeration(cbs, kappa, snr_db, mode):
    assert_contraction_matches_enumeration(cbs, kappa, snr_db, mode)


@pytest.mark.parametrize("k, layout", IRREGULAR_LAYOUTS)
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(st.data(), *BOUND_SETTINGS)
def test_contraction_matches_enumeration_on_irregular_graphs(k, layout, data, kappa, snr_db, mode):
    assert_contraction_matches_enumeration(data.draw(irregular_sets(k, layout)), kappa, snr_db, mode)


def test_contraction_lumps_the_reference_set(ref_cbs):
    # Every user's 12 ordered pairs fall into 8 classes of equal difference
    # vectors.  The enumeration takes about a second per user and gain, so
    # the gains are the mean mode's and the first and last quadrature nodes.
    assert class_counts(ref_cbs) == [8] * 6
    quadrature = gains_of(ref_cbs, "quadrature")
    gammas = np.column_stack([gains_of(ref_cbs, "mean"), quadrature[:, 0], quadrature[:, -1]])
    assert_contraction_matches_enumeration(ref_cbs, 10.0, 12.0, gammas=gammas)


@pytest.mark.parametrize("mode", ["mean", "quadrature"])
def test_contraction_without_merged_classes(mode):
    rng = np.random.default_rng(3)
    books = np.zeros((3, 2, 4), dtype=complex)
    for u, rns in enumerate(([0], [0, 1], [1])):
        books[u, rns] = rng.normal(size=(len(rns), 4)) + 1j * rng.normal(size=(len(rns), 4))
    cbs = CodebookSet.from_codebooks(books, SystemDims(2, 3, 4, 1))
    assert class_counts(cbs) == [12] * 3
    assert_contraction_matches_enumeration(cbs, 4.0, 6.0, mode)


def idle_rn_absent_user_and_constant_user_set():
    """RN 2 is idle, user 2 has an all-zero codebook and so sits on no RN, and
    user 3's codewords are all equal, so its pairs lump into one zero class."""
    rng = np.random.default_rng(8)
    books = np.zeros((4, 3, 4), dtype=complex)
    books[0, 0] = rng.normal(size=4) + 1j * rng.normal(size=4)
    books[1, [0, 1]] = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    books[3, 1] = 0.7 - 0.2j
    cbs = CodebookSet.from_codebooks(books, SystemDims(3, 4, 4, 1))
    assert cbs.collision_sets() == [[0, 1], [1, 3], []]
    assert class_counts(cbs)[3] == 1
    return cbs


@pytest.mark.parametrize("mode", ["mean", "quadrature"])
def test_contraction_with_idle_rn_absent_user_and_constant_user(mode):
    assert_contraction_matches_enumeration(idle_rn_absent_user_and_constant_user_set(), 10.0, 9.0, mode)


@pytest.mark.parametrize("mode", ["mean", "quadrature"])
def test_set_bep_equals_user_bep_per_user(ref_cbs, geom, mode):
    n0 = snr_db_to_n0(14.0, ref_cbs.dims)
    per_user = set_bep(ref_cbs, geom, 10.0, n0, distance_mode=mode).per_user
    assert per_user.tolist() == [user_bep(j + 1, ref_cbs, geom, 10.0, n0, distance_mode=mode) for j in range(6)]


def test_contraction_in_batch_chunks_equals_one_chunk(ref_cbs, monkeypatch):
    # Quadrature on 4x6 batches Z = 6 targets x 32 gains x 2 MGF terms = 384
    # entries.  Per entry, the first pairwise step holds the four RN tables of
    # three users' values each and its product of four users' values, so this
    # limit splits Z into five chunks of 69 entries and one of 39.
    size = 1 + max(class_counts(ref_cbs))
    limit = 100 * size**4
    rns = tuple(tuple(users) for users in ref_cbs.collision_sets())
    assert analysis_mod._contraction_plan(rns, (size,) * 6, limit)[2] == 4 * size**3 + size**4
    gammas = gains_of(ref_cbs, "quadrature")
    n0 = snr_db_to_n0(12.0, ref_cbs.dims)
    whole = _exact_user_bep(ref_cbs, list(range(6)), gammas, 10.0, n0)
    monkeypatch.setattr(analysis_mod, "_MAX_ELEMENTS", limit)
    assert np.array_equal(_exact_user_bep(ref_cbs, list(range(6)), gammas, 10.0, n0), whole)


def assert_truncated_equals_enumeration(cbs, kappa, snr_db, mode, e_star, targets=None):
    """The truncated kernel repeats the enumeration's arithmetic: equal bit for bit, for all targets or some."""
    n0 = snr_db_to_n0(snr_db, cbs.dims)
    gammas = gains_of(cbs, mode)
    targets = range(cbs.dims.j_users) if targets is None else targets
    got = _truncated_user_bep(cbs, list(targets), gammas[list(targets)], kappa, n0, e_star)
    want = np.array([enumerate_user_bep(cbs, t, gammas[t], kappa, n0, e_star) for t in targets])
    assert np.array_equal(got, want), (e_star, mode, got, want)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.one_of(small_sets(), st.just(make_reduced_set())), *BOUND_SETTINGS)
def test_truncated_kernel_equals_enumeration_bit_for_bit(cbs, kappa, snr_db, mode):
    for e_star in range(1, cbs.dims.j_users):
        assert_truncated_equals_enumeration(cbs, kappa, snr_db, mode, e_star)
        assert_truncated_equals_enumeration(cbs, kappa, snr_db, mode, e_star, targets=[cbs.dims.j_users - 1])


@pytest.mark.parametrize("k, layout", IRREGULAR_LAYOUTS)
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(st.data(), *BOUND_SETTINGS)
def test_truncated_kernel_equals_enumeration_on_irregular_graphs(k, layout, data, kappa, snr_db, mode):
    cbs = data.draw(irregular_sets(k, layout))
    for e_star in range(1, cbs.dims.j_users):
        assert_truncated_equals_enumeration(cbs, kappa, snr_db, mode, e_star)


@pytest.mark.parametrize("mode", ["mean", "quadrature"])
def test_truncated_kernel_with_idle_rn_absent_user_and_constant_user(mode):
    cbs = idle_rn_absent_user_and_constant_user_set()
    for e_star in (1, 2, 3):
        assert_truncated_equals_enumeration(cbs, 10.0, 9.0, mode, e_star)


def test_truncated_kernel_sums_rows_in_chunks():
    # At M = 8 a support of three users has 56^3 = 175616 ordered-pair rows,
    # more than one _CHUNK slice holds, so the PEP sum is taken in two dots.
    cbs = make_codebook_set(1.5, (0.3, 0.6, 1.0), (0.0, np.pi / 3, 2 * np.pi / 3), SystemDims(4, 6, 8, 2))
    assert 56**3 > analysis_mod._CHUNK
    assert_truncated_equals_enumeration(cbs, 10.0, 12.0, "mean", 3, targets=[2])


def test_truncated_bounds_climb_to_the_exact_bound(ref_cbs, geom):
    n0 = snr_db_to_n0(12.0, ref_cbs.dims)
    j_users = ref_cbs.dims.j_users
    truncated = np.array([set_bep(ref_cbs, geom, 10.0, n0, truncation=e).per_user for e in range(1, j_users)])
    exact = set_bep(ref_cbs, geom, 10.0, n0, truncation=None).per_user
    assert np.all(np.diff(truncated, axis=0) >= 0)
    assert np.all(truncated[-1] <= exact)
    at_j = set_bep(ref_cbs, geom, 10.0, n0, truncation=j_users).per_user
    assert np.all(np.abs(at_j - exact) <= 1e-12 * exact)


def test_exact_bound_rejects_oversized_graph(ref_cbs, geom, monkeypatch):
    big = make_oversized_set()
    with pytest.raises(ValueError, match=r"6x20 graph \(M = 4, d_f = 10\).* elements"):
        user_bep(1, big, geom, 10.0, 0.1)
    assert user_bep(1, big, geom, 10.0, 0.1, truncation=1) > 0
    # Each user takes "no error" or one of its pair classes.  At a limit of one
    # RN table (d_f = 3 users), a batch chunk of one entry holds every table,
    # but a pairwise step would hold four users' values, so the greedy path
    # contracts all four tables in one step over all six users' values.
    size = 1 + max(class_counts(ref_cbs))
    monkeypatch.setattr(analysis_mod, "_MAX_ELEMENTS", size**3)
    with pytest.raises(ValueError, match=r"4x6 graph.* step of " + re.escape(f"{size**6:.3g} elements")):
        user_bep(1, ref_cbs, geom, 10.0, 0.1)


def test_user_bep_truncation_gap_documented(ref_cbs, geom):
    """E* truncation accuracy tracks the union bound's own validity region.

    At 12 dB the bound is loose and E*=2 misses higher-order mass (measured
    ~30 percent here, against the 10 percent the example guessed); by 16 dB
    the gap is inside 10 percent and it keeps shrinking with SNR.
    """
    worst_exact_12 = set_bep(ref_cbs, geom, 10.0, snr_db_to_n0(12.0, ref_cbs.dims)).worst
    worst_e2_12 = set_bep(ref_cbs, geom, 10.0, snr_db_to_n0(12.0, ref_cbs.dims), truncation=2).worst
    gap_12 = abs(worst_e2_12 - worst_exact_12) / worst_exact_12
    worst_exact_16 = set_bep(ref_cbs, geom, 10.0, snr_db_to_n0(16.0, ref_cbs.dims)).worst
    worst_e2_16 = set_bep(ref_cbs, geom, 10.0, snr_db_to_n0(16.0, ref_cbs.dims), truncation=2).worst
    gap_16 = abs(worst_e2_16 - worst_exact_16) / worst_exact_16
    print(f"\nE*=2 truncation gap: {gap_12:.3f} at 12 dB, {gap_16:.3f} at 16 dB")
    assert worst_e2_12 <= worst_exact_12  # truncation only removes nonnegative terms
    assert gap_12 < 0.35
    assert gap_16 < 0.10


def test_user_bep_kappa_zero_equals_rayleigh_substitution(reduced_cbs, geom, monkeypatch):
    n0 = 0.4
    got = user_bep(2, reduced_cbs, geom, 0.0, n0)
    monkeypatch.setattr(analysis_mod, "rician_mgf", lambda s, kappa: 1.0 / (1.0 + np.asarray(s)))
    rayleigh = user_bep(2, reduced_cbs, geom, 0.0, n0)
    assert abs(got - rayleigh) <= 1e-12


def test_user_bep_permutation_covariance(ref_cbs, geom):
    perm = [1, 0, 3, 2, 5, 4]
    permuted = CodebookSet(codebooks=ref_cbs.codebooks[perm], dims=ref_cbs.dims)
    n0 = snr_db_to_n0(14.0, ref_cbs.dims)
    for j_rank in (1, 4):
        moved = user_bep(j_rank, permuted, geom, 10.0, n0, truncation=2)
        ref = user_bep(
            perm[j_rank - 1] + 1,
            ref_cbs,
            geom,
            10.0,
            n0,
            truncation=2,
            c2=expected_distance_ratio(j_rank, 6),
        )
        assert moved == pytest.approx(ref, rel=1e-12)


def test_user_bep_quadrature_mode_close_to_mean_mode(ref_cbs, geom):
    n0 = snr_db_to_n0(16.0, ref_cbs.dims)
    mean_mode = user_bep(3, ref_cbs, geom, 10.0, n0, truncation=2)
    quad_mode = user_bep(3, ref_cbs, geom, 10.0, n0, truncation=2, distance_mode="quadrature")
    assert quad_mode == pytest.approx(mean_mode, rel=0.5)
    assert quad_mode != mean_mode


def test_user_bep_rejects_bad_arguments(ref_cbs, geom):
    with pytest.raises(ValueError):
        user_bep(0, ref_cbs, geom, 10.0, 0.1)
    with pytest.raises(ValueError):
        user_bep(1, ref_cbs, geom, 10.0, 0.1, truncation=0)
    with pytest.raises(ValueError):
        user_bep(1, ref_cbs, geom, 10.0, 0.1, distance_mode="nope")
    # set_bep checks its arguments before choosing a bound: on a graph too
    # large for the exact bound, the argument errors come first.
    big = make_oversized_set()
    with pytest.raises(ValueError, match="truncation must be >= 1"):
        set_bep(big, geom, 10.0, 0.1, truncation=0)
    with pytest.raises(ValueError, match="unknown distance_mode"):
        set_bep(big, geom, 10.0, 0.1, distance_mode="nope")


def test_set_bep_summary(reduced_cbs, geom):
    summary = set_bep(reduced_cbs, geom, 5.0, 0.2)
    assert summary.worst == pytest.approx(summary.per_user.max())
    assert summary.average == pytest.approx(summary.per_user.mean())
    assert summary.worst >= summary.average >= 0


def test_set_bep_symmetric_single_user(geom):
    dims = SystemDims(2, 1, 2, 1)
    books = np.zeros((1, 2, 2), dtype=complex)
    books[0, 0, :] = [1.0, -1.0]
    cbs = CodebookSet.from_codebooks(books, dims)
    summary = set_bep(cbs, geom, 3.0, 0.5)
    assert summary.average == pytest.approx(summary.worst)


def test_write_bep_csv_schema(tmp_path):
    path = tmp_path / "bep.csv"
    write_bep_csv(path, [0.0, 5.0], np.array([[0.1, 0.2], [0.01, 0.02]]))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "snr_db,user_rank,bep"
    assert len(lines) == 5
    assert lines[1].startswith("0.0,1,")
