import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

import scma_ntn.analysis as analysis_mod
from scma_ntn import (
    Candidate,
    CellGeometry,
    CodebookSet,
    DesignSpace,
    ErrorEvent,
    SystemDims,
    candidate_codebooks,
    expected_distance_ratio,
    pep,
    q_approx,
    rician_mgf,
    sample_rician,
    set_bep,
    snr_db_to_n0,
)
from scma_ntn.analysis import (
    _exact_user_bep,
    _geometry_gain,
    _lumped_pairs,
    _truncated_user_bep,
    effective_snr_terms,
)
from scma_ntn.cli import _bep_rows, _write_csv

from conftest import (
    REF_DELTA,
    REF_RHOS,
    REF_THETAS,
    make_codebook_set,
    make_oversized_set,
    make_reduced_set,
    small_sets,
)
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


# Distance ratios away from the rank means: the first and last nodes of the
# 32-point Gauss-Legendre rule on [0, 1].
OFF_MEAN_RATIOS = 0.5 * (np.polynomial.legendre.leggauss(32)[0][[0, -1]] + 1.0)


def gains_of(cbs, mode):
    """Geometry gains (J, G), a column per kernel call: "mean" is each rank's gain at its mean
    distance ratio, "quadrature" every rank's gain at each of OFF_MEAN_RATIOS."""
    j_users = cbs.dims.j_users
    if mode == "mean":
        ratios = [[expected_distance_ratio(t + 1, j_users)] for t in range(j_users)]
    else:
        ratios = [OFF_MEAN_RATIOS] * j_users
    return np.array([[_geometry_gain(CellGeometry(), c2) for c2 in row] for row in ratios])


def exact_columns(cbs, gammas, kappa, n0):
    """The exact kernel at each gain column of gammas (J, G), one call per column: (J, G)."""
    return np.column_stack([_exact_user_bep(cbs, g, kappa, n0) for g in gammas.T])


def truncated_columns(sets, gammas, kappa, n0, e_star):
    """The truncated kernel at each gain column of gammas (J, G), one call per column serving every set: (S, J, G)."""
    columns = [_truncated_user_bep(sets, np.tile(g, (len(sets), 1)), kappa, n0, e_star) for g in gammas.T]
    return np.stack(columns, axis=-1)


def assert_contraction_matches_enumeration(cbs, kappa, snr_db, mode):
    """Every user's exact numerators from one contraction per gain equal the enumeration's at E* = J."""
    j_users = cbs.dims.j_users
    n0 = snr_db_to_n0(snr_db, cbs.dims)
    gammas = gains_of(cbs, mode)
    got = exact_columns(cbs, gammas, kappa, n0)
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


def test_snr_without_a_finite_positive_noise_level_is_rejected(dims46):
    # 10^(snr/10) would overflow or underflow a float; the check comes before the power.
    for snr in (4000.0, -4000.0, np.float64(4000.0), 1e300, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise level"):
            snr_db_to_n0(snr, dims46)
    assert snr_db_to_n0(3000.0, dims46) == pytest.approx(1.5e-300)


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


def brute_force_user_bep(cbs, j_rank, geom, kappa, n0):
    """Rank j_rank's bound by direct enumeration, on the column that serves it (as set_bep pairs them)."""
    dims = cbs.dims
    j = int(cbs.columns_by_rank()[j_rank - 1])
    c2 = expected_distance_ratio(j_rank, dims.j_users)
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
    got = set_bep(cbs, geom, 4.0, 0.7).per_user[0]
    want = brute_force_user_bep(cbs, 1, geom, 4.0, 0.7)
    assert got == pytest.approx(want, abs=1e-14)


def test_user_bep_matches_brute_force_on_reduced_system(reduced_cbs, geom):
    n0 = snr_db_to_n0(9.0, reduced_cbs.dims)
    assert reduced_cbs.columns_by_rank().tolist() == [0, 2, 1]  # stored out of rank order
    per_user = set_bep(reduced_cbs, geom, 5.0, n0).per_user
    for j_rank in (1, 2, 3):
        got = per_user[j_rank - 1]
        want = brute_force_user_bep(reduced_cbs, j_rank, geom, 5.0, n0)
        assert abs(got - want) <= 1e-12


def test_user_bep_monotone_in_snr(ref_cbs, geom):
    vals = [
        set_bep(ref_cbs, geom, 10.0, snr_db_to_n0(snr, ref_cbs.dims), truncation=2).per_user[1]
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
    # vectors.  The gains are each rank's at its mean distance ratio and every
    # rank's at OFF_MEAN_RATIOS.  The truncated kernel at E* = J repeats the
    # enumeration's arithmetic for every user in one call; the enumeration
    # takes about half a second per user and gain, so it stays the
    # independent oracle for one user, matched bit for bit.
    assert class_counts(ref_cbs) == [8] * 6
    gammas = np.column_stack([gains_of(ref_cbs, "mean"), gains_of(ref_cbs, "quadrature")])
    n0 = snr_db_to_n0(12.0, ref_cbs.dims)
    got = exact_columns(ref_cbs, gammas, 10.0, n0)
    want = truncated_columns([ref_cbs], gammas, 10.0, n0, 6)[0]
    assert np.all(np.abs(got - want) <= 1e-12 * want), (got, want)
    assert np.array_equal(want[5], enumerate_user_bep(ref_cbs, 5, gammas[5], 10.0, n0, 6))


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


def test_contraction_in_batch_chunks_equals_one_chunk(ref_cbs, monkeypatch):
    # 4x6 batches Z = 6 users x 2 MGF terms = 12 entries.  Per entry, the
    # kernel contracts the four RN tables of three users' values each and the
    # six users' weight vectors; at this limit its plan holds at most two
    # arrays over four users' values, eight over three users' values and the
    # six weight vectors at once.  The call holds each RN's |sum d|^2 table and every user's
    # weights for all of Z beside them.  So this limit splits Z into two
    # chunks of 5 entries and one of 2.
    size = 1 + max(class_counts(ref_cbs))
    limit = 17 * size**4
    scopes = tuple(tuple(users) for users in ref_cbs.collision_sets()) + tuple((u,) for u in range(6))
    held = analysis_mod._contraction_plan(scopes, (size,) * 6, limit)[3]
    assert held == 2 * size**4 + 8 * size**3 + 6 * size
    assert (limit - 4 * size**3 - 6 * 12 * size) // held == 5
    gammas = gains_of(ref_cbs, "mean")[:, 0]
    n0 = snr_db_to_n0(12.0, ref_cbs.dims)
    whole = _exact_user_bep(ref_cbs, gammas, 10.0, n0)
    monkeypatch.setattr(analysis_mod, "_MAX_ELEMENTS", limit)
    assert np.array_equal(_exact_user_bep(ref_cbs, gammas, 10.0, n0), whole)


def test_contraction_keeps_its_traced_peak_within_the_limit(ref_cbs, monkeypatch):
    # The batch chunk is sized so that the float64 arrays the call holds at
    # once stay within _MAX_ELEMENTS; the margin covers small temporaries.
    size = 1 + max(class_counts(ref_cbs))
    limit = 17 * size**4
    monkeypatch.setattr(analysis_mod, "_MAX_ELEMENTS", limit)
    gammas = gains_of(ref_cbs, "mean")[:, 0]
    n0 = snr_db_to_n0(12.0, ref_cbs.dims)
    _exact_user_bep(ref_cbs, gammas, 10.0, n0)  # plan cached outside the trace
    tracemalloc.start()
    try:
        _exact_user_bep(ref_cbs, gammas, 10.0, n0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 8 * limit, peak / (8 * limit)


def test_exact_bound_needs_an_einsum_label_per_user_and_the_batch(geom):
    # Each user sits alone on its own RN; 51 users and the batch axis take
    # every einsum label, a 52nd user finds none.
    def alone(j):
        books = np.zeros((j, j, 2), dtype=complex)
        books[np.arange(j), np.arange(j)] = [1.0, -1.0]
        return CodebookSet.from_codebooks(books, SystemDims(j, j, 2, 1))

    per_user = set_bep(alone(51), geom, 10.0, 0.1).per_user
    assert np.all((0 < per_user) & (per_user < 1))
    with pytest.raises(ValueError, match=r"52 users and a batch axis, einsum labels at most 52"):
        set_bep(alone(52), geom, 10.0, 0.1)


def assert_truncated_equals_enumeration(cbs, kappa, snr_db, mode, e_star, users=None):
    """The truncated kernel repeats the enumeration's arithmetic: equal bit for bit, on every user or the given ones."""
    n0 = snr_db_to_n0(snr_db, cbs.dims)
    gammas = gains_of(cbs, mode)
    users = range(cbs.dims.j_users) if users is None else users
    got = truncated_columns([cbs], gammas, kappa, n0, e_star)[0, list(users)]
    want = np.array([enumerate_user_bep(cbs, u, gammas[u], kappa, n0, e_star) for u in users])
    assert np.array_equal(got, want), (e_star, mode, got, want)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.one_of(small_sets(), st.just(make_reduced_set())), *BOUND_SETTINGS)
def test_truncated_kernel_equals_enumeration_bit_for_bit(cbs, kappa, snr_db, mode):
    for e_star in range(1, cbs.dims.j_users):
        assert_truncated_equals_enumeration(cbs, kappa, snr_db, mode, e_star)


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


def test_truncated_kernel_sums_a_support_of_many_rows():
    # At M = 8 a support of three users has 56^3 = 175616 ordered-pair rows, summed in one dot.
    cbs = make_codebook_set(1.5, (0.3, 0.6, 1.0), (0.0, np.pi / 3, 2 * np.pi / 3), SystemDims(4, 6, 8, 2))
    assert_truncated_equals_enumeration(cbs, 10.0, 12.0, "mean", 3, users=[2])


def random_generation(dims, size, seed):
    """Codebook sets of random GA candidates, drawn as run_ga draws its first population."""
    space = DesignSpace(dims=dims)
    lo, hi = space.lower(), space.upper()
    lo[0] = np.nextafter(1.0, 2.0)
    vectors = np.random.default_rng(seed).uniform(lo, hi, size=(size, space.dimension))
    return [candidate_codebooks(Candidate.from_vector(v, space.n_operators), space) for v in vectors]


def assert_batch_equals_one_call_per_set_and_enumeration(sets, e_star, oracle_gains=("mean", 0, -1)):
    """One set_bep call on sets equals a call per set, and so does one kernel call at every rank's
    gain at OFF_MEAN_RATIOS, bit for bit; one batched kernel call per gain equals the enumeration
    for one user per set, at the mean ratios' gains and at OFF_MEAN_RATIOS given by index."""
    dims = sets[0].dims
    n0 = snr_db_to_n0(12.0, dims)
    batch = set_bep(sets, CellGeometry(), 10.0, n0, truncation=e_star)
    for cbs, got in zip(sets, batch):
        alone = set_bep(cbs, CellGeometry(), 10.0, n0, truncation=e_star)
        assert np.array_equal(got.per_user, alone.per_user), e_star
    mean, off_mean = gains_of(sets[0], "mean"), gains_of(sets[0], "quadrature")
    stacked = truncated_columns(sets, off_mean, 10.0, n0, e_star)
    for s, cbs in enumerate(sets):
        assert np.array_equal(stacked[s], truncated_columns([cbs], off_mean, 10.0, n0, e_star)[0]), (e_star, s)
    gammas = np.column_stack([mean[:, 0] if g == "mean" else off_mean[:, g] for g in oracle_gains])
    got = truncated_columns(sets, gammas, 10.0, n0, e_star)
    for s, cbs in enumerate(sets):
        u = s % dims.j_users
        want = enumerate_user_bep(cbs, u, gammas[u], 10.0, n0, e_star)
        assert np.array_equal(got[s, u], want), (e_star, s, got[s, u], want)


def test_truncated_generation_on_4x6_equals_one_call_per_set_and_enumeration(dims46):
    sets = random_generation(dims46, 2, seed=21)
    for e_star in range(1, dims46.j_users):
        # Above E* = 3 the enumeration takes most of a second per gain, so it runs at the mean gain only.
        oracle_gains = ("mean", 0, -1) if e_star <= 3 else ("mean",)
        assert_batch_equals_one_call_per_set_and_enumeration(sets, e_star, oracle_gains)


def test_truncated_generation_on_5x10_equals_one_call_per_set_and_enumeration():
    sets = random_generation(SystemDims(5, 10, 4, 2), 3, seed=22)
    for e_star in (1, 2, 3):
        assert_batch_equals_one_call_per_set_and_enumeration(sets, e_star)


def test_truncated_batch_with_mixed_partitions(ref_cbs):
    # Zeroing user 2's codebook takes it off its RNs and changes the pair
    # classes, so the batch runs as two groups whose results return in order.
    books = ref_cbs.codebooks.copy()
    books[2] = 0.0
    zeroed = CodebookSet.from_codebooks(books, ref_cbs.dims)
    other = make_codebook_set(2.5, (0.2, 0.5, 0.9), (0.3, 1.2, 2.5))
    assert class_counts(ref_cbs) == class_counts(other) == [8] * 6 and class_counts(zeroed)[2] == 1
    assert ref_cbs.collision_sets() == other.collision_sets() != zeroed.collision_sets()
    assert_batch_equals_one_call_per_set_and_enumeration([ref_cbs, zeroed, other], 3)


def test_truncated_batch_in_chunks_equals_one_chunk(monkeypatch):
    sets = random_generation(SystemDims(4, 6, 4, 2), 5, seed=23)
    gammas = np.tile(gains_of(sets[0], "mean")[:, 0], (len(sets), 1))
    n0 = snr_db_to_n0(12.0, sets[0].dims)
    whole = _truncated_user_bep(sets, gammas, 10.0, n0, 3)
    # One set per chunk, then chunks of a few sets and a shorter last one.
    for limit in (1, 5 * 10**4, 7 * 10**4):
        monkeypatch.setattr(analysis_mod, "_STACK_ELEMENTS", limit)
        assert np.array_equal(_truncated_user_bep(sets, gammas, 10.0, n0, 3), whole), limit


def louder_copy(cbs):
    """cbs with codebook 0 three times as loud: the same collision sets and pair classes, another column order."""
    books = cbs.codebooks.copy()
    books[0] *= 3.0
    return CodebookSet.from_codebooks(books, cbs.dims)


def assert_one_stacking_group(sets):
    """The sets share collision sets and pair classes, so the truncated kernel stacks them in one group."""
    assert all(c.collision_sets() == sets[0].collision_sets() for c in sets)
    assert all(np.array_equal(_lumped_pairs(c)[1], _lumped_pairs(sets[0])[1]) for c in sets)


def test_truncated_batch_mixes_column_orders(ref_cbs):
    louder = louder_copy(ref_cbs)
    assert ref_cbs.columns_by_rank().tolist() == [0, 1, 2, 3, 4, 5]
    assert louder.columns_by_rank().tolist() == [1, 2, 3, 0, 4, 5]
    assert_one_stacking_group([ref_cbs, louder])
    n0 = snr_db_to_n0(12.0, ref_cbs.dims)
    rank = 4  # the louder set's column 0 serves rank 4
    gain = _geometry_gain(CellGeometry(), expected_distance_ratio(rank, 6))
    for e_star in (1, 2, 3):
        assert_batch_equals_one_call_per_set_and_enumeration([ref_cbs, louder], e_star)
        got = set_bep(louder, CellGeometry(), 10.0, n0, truncation=e_star).per_user[rank - 1]
        # M^J log2 M = 4^6 * 2 is a power of two, so the scaling is exact.
        assert got * 4.0**6 * 2 == enumerate_user_bep(louder, 0, np.array([gain]), 10.0, n0, e_star)[0], e_star


def test_truncated_batch_mixes_column_orders_at_m8(monkeypatch):
    dims = SystemDims(4, 6, 8, 2)
    ref = make_codebook_set(REF_DELTA, REF_RHOS, REF_THETAS, dims)
    sets = [ref, make_codebook_set(REF_DELTA, REF_RHOS, (0.4, 1.3, 2.2), dims), louder_copy(ref)]
    assert [class_counts(c) for c in sets] == [[32] * 6] * 3
    assert [c.columns_by_rank()[0] for c in sets] == [0, 0, 1]
    assert_one_stacking_group(sets)
    assert_batch_equals_one_call_per_set_and_enumeration(sets, 2)
    monkeypatch.setattr(analysis_mod, "_STACK_ELEMENTS", 1)  # one set per chunk
    assert_batch_equals_one_call_per_set_and_enumeration(sets, 2)


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
        set_bep(big, geom, 10.0, 0.1)
    assert np.all(set_bep(big, geom, 10.0, 0.1, truncation=1).per_user > 0)
    # Each user takes "no error" or one of its pair classes.  At a limit of one
    # RN table (d_f = 3 users), a batch chunk of one entry holds every table,
    # but a pairwise step would hold four users' values, so the greedy path
    # contracts all four tables in one step over all six users' values.
    size = 1 + max(class_counts(ref_cbs))
    monkeypatch.setattr(analysis_mod, "_MAX_ELEMENTS", size**3)
    with pytest.raises(ValueError, match=r"4x6 graph.* step of " + re.escape(f"{size**6:.3g} elements")):
        set_bep(ref_cbs, geom, 10.0, 0.1)


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
    truncations = [2, None]
    got = [set_bep(reduced_cbs, geom, 0.0, n0, truncation=e).per_user for e in truncations]
    calls = []

    def rayleigh_mgf(s, kappa):
        calls.append(kappa)
        return 1.0 / (1.0 + np.asarray(s))

    monkeypatch.setattr(analysis_mod, "rician_mgf", rayleigh_mgf)
    for e, want in zip(truncations, got):
        calls.clear()
        rayleigh = set_bep(reduced_cbs, geom, 0.0, n0, truncation=e).per_user
        assert calls, f"truncation={e}: the substitution does not reach the kernel"
        assert np.all(np.abs(want - rayleigh) <= 1e-12)


@pytest.mark.parametrize("truncation", [2, None])
def test_bound_serves_each_rank_with_the_column_the_simulation_serves(ref_cbs, geom, truncation):
    # Stored strongest first, as in test_allocate_reverses_descending_distances: rank r is
    # served by the r-th weakest column wherever it is stored.
    scale = np.linspace(1.5, 1.0, 6)[:, None, None]
    flipped = CodebookSet.from_codebooks(scale * ref_cbs.codebooks[::-1], ref_cbs.dims)
    resorted = CodebookSet(codebooks=flipped.codebooks[::-1], dims=flipped.dims)
    n0 = snr_db_to_n0(16.0, ref_cbs.dims)
    got = set_bep(flipped, geom, 10.0, n0, truncation=truncation).per_user
    want = set_bep(resorted, geom, 10.0, n0, truncation=truncation).per_user
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    # Sets of one call that pair ranks with different columns each get the bound they get alone.
    both = set_bep([flipped, resorted], geom, 10.0, n0, truncation=truncation)
    assert np.array_equal(both[0].per_user, got) and np.array_equal(both[1].per_user, want)


def test_bound_keeps_index_order_of_an_ulp_power_tie(ref_cbs, geom):
    books = ref_cbs.codebooks.copy()
    books[1] *= np.exp(0.4j)  # columns 0 and 1 keep equal powers but no longer share their bounds

    def column_0_scaled(f):
        out = books.copy()
        out[0] *= f
        return CodebookSet(codebooks=out, dims=ref_cbs.dims)

    weaker, stronger = column_0_scaled(1 - 4 * np.finfo(float).eps), column_0_scaled(1 + 4 * np.finfo(float).eps)
    assert np.argsort(stronger.traces(), kind="stable")[0] == 1  # column 0 is a few ulps stronger
    n0 = snr_db_to_n0(16.0, ref_cbs.dims)
    tied = set_bep(stronger, geom, 10.0, n0, truncation=2).per_user
    assert np.all(np.abs(tied - set_bep(weaker, geom, 10.0, n0, truncation=2).per_user) <= 1e-12 * tied)
    swapped = CodebookSet(codebooks=books[[1, 0, 2, 3, 4, 5]], dims=ref_cbs.dims)
    assert np.all(np.abs(set_bep(swapped, geom, 10.0, n0, truncation=2).per_user[:2] - tied[:2]) > 1e-6 * tied[:2])


def test_user_bep_rejects_bad_arguments(ref_cbs, geom):
    with pytest.raises(ValueError, match="truncation must be >= 1"):
        set_bep(ref_cbs, geom, 10.0, 0.1, truncation=0)
    for truncation in (2.5, 2.0, "3"):
        with pytest.raises(ValueError, match="truncation must be >= 1 and an integer"):
            set_bep(ref_cbs, geom, 10.0, 0.1, truncation=truncation)
    for kappa in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="kappa"):
            set_bep(ref_cbs, geom, kappa, 0.1)
    for n0 in (-1.0, 0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="n0 must be finite and > 0"):
            set_bep(ref_cbs, geom, 10.0, n0)
    # set_bep checks its arguments before choosing a bound: on a graph too
    # large for the exact bound, the argument errors come first.
    big = make_oversized_set()
    with pytest.raises(ValueError, match="truncation must be >= 1"):
        set_bep(big, geom, 10.0, 0.1, truncation=0)
    with pytest.raises(ValueError, match="share dims"):
        set_bep([ref_cbs, big], geom, 10.0, 0.1, truncation=1)
    assert set_bep([], geom, 10.0, 0.1) == []


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
    _write_csv(path, "snr_db,user_rank,bep", _bep_rows([0.0, 5.0], np.array([[0.1, 0.2], [0.01, 0.02]])), "\r\n")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "snr_db,user_rank,bep"
    assert len(lines) == 5
    assert lines[1].startswith("0.0,1,")
