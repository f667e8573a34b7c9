from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

from scma_ntn import (
    ConstellationOperator,
    LayeringError,
    SignatureMatrix,
    SystemDims,
    assign_layers_and_power,
    validate_signature,
)
from scma_ntn.layering import _patterns

# Published signature matrices for the 150% and 200% overload systems.
S_4x6 = np.array(
    [
        [1, 0, 2, 0, 0, 3],
        [0, 1, 2, 0, 3, 0],
        [1, 0, 0, 2, 3, 0],
        [0, 1, 0, 2, 0, 3],
    ]
)
S_5x10 = np.array(
    [
        [1, 0, 0, 2, 0, 0, 3, 0, 0, 4],
        [1, 0, 2, 0, 0, 3, 0, 4, 0, 0],
        [0, 1, 0, 2, 0, 3, 0, 0, 4, 0],
        [0, 1, 0, 0, 2, 0, 0, 3, 0, 4],
        [0, 0, 1, 0, 2, 0, 3, 0, 4, 0],
    ]
)


def ops_ascending(rhos, thetas=None):
    thetas = thetas or [0.1 * i for i in range(len(rhos))]
    return tuple(ConstellationOperator(rho=r, theta=t) for r, t in zip(rhos, thetas))


def equivalent_up_to_relabeling(a, b, allow_row_perm=True):
    """Column-permutation equality modulo operator relabeling (and optionally rows).

    The assignment's tie-level choices (which orthogonal group receives which
    operator index, and the RN labeling) are genuinely unordered, so equality
    with a published matrix holds modulo these relabelings.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.max() != b.max():
        return False
    d = int(a.max())
    target = sorted(map(tuple, b.T))
    row_perms = permutations(range(a.shape[0])) if allow_row_perm else [tuple(range(a.shape[0]))]
    for rp in row_perms:
        pa = a[list(rp), :]
        for op_map in permutations(range(1, d + 1)):
            relabeled = np.where(pa > 0, 0, 0)
            for v in range(1, d + 1):
                relabeled = relabeled + np.where(pa == v, op_map[v - 1], 0)
            if sorted(map(tuple, relabeled.T)) == target:
                return True
    return False


def test_assignment_matches_published_4x6():
    sig = assign_layers_and_power(ops_ascending([0.5, 0.75, 1.0]), SystemDims(4, 6, 4, 2))
    # identical rows: only column permutation plus operator relabeling needed
    assert equivalent_up_to_relabeling(sig.entries, S_4x6, allow_row_perm=False)
    assert validate_signature(sig).ok


def test_assignment_matches_published_5x10():
    sig = assign_layers_and_power(ops_ascending([0.4, 0.6, 0.8, 1.0]), SystemDims(5, 10, 4, 2))
    # the published grouping follows a different tie-break; equality holds
    # once rows are relabeled as well
    assert equivalent_up_to_relabeling(sig.entries, S_5x10, allow_row_perm=True)
    assert validate_signature(sig).ok
    assert len(sig.residuals) == 2
    # residual layers carry two distinct operators
    for c in sig.residuals:
        vals = sig.entries[:, c][sig.entries[:, c] > 0]
        assert len(set(vals)) == 2


def test_assignment_trivial_single_layer():
    sig = assign_layers_and_power(ops_ascending([1.0]), SystemDims(2, 1, 4, 2))
    assert np.array_equal(sig.entries, [[1], [1]])
    assert validate_signature(sig).ok


@pytest.mark.parametrize("k,j,n", [(4, 6, 2), (5, 10, 2), (6, 9, 2)])
def test_assignment_outputs_validate(k, j, n):
    d_f = j * n // k
    sig = assign_layers_and_power(ops_ascending(list(np.linspace(0.5, 1.0, d_f))), SystemDims(k, j, 4, n))
    report = validate_signature(sig)
    assert report.ok, report.messages


# Exact signatures of a fixed operator set (rho evenly spaced from 0.4 to 1.0),
# or the LayeringError message; the published-matrix tests above compare only
# up to relabeling, these pin the search and countdown order themselves.
PINNED = {
    (4, 6, 2): (
        [[1, 0, 2, 0, 3, 0], [0, 1, 0, 2, 3, 0], [0, 1, 2, 0, 0, 3], [1, 0, 0, 2, 0, 3]],
        ((4, 5), (2, 3), (0, 1)),
        (),
    ),
    (5, 10, 2): (
        [
            [1, 0, 0, 2, 0, 3, 0, 0, 4, 0],
            [0, 1, 0, 0, 2, 3, 0, 0, 0, 4],
            [1, 0, 0, 0, 2, 0, 3, 4, 0, 0],
            [0, 1, 2, 0, 0, 0, 3, 0, 4, 0],
            [0, 0, 1, 2, 0, 0, 0, 3, 0, 4],
        ],
        ((5, 6), (0, 1), (8, 9), (3, 4)),
        (2, 7),
    ),
    (6, 9, 2): (
        [
            [1, 0, 0, 2, 0, 0, 3, 0, 0],
            [0, 1, 0, 0, 2, 0, 3, 0, 0],
            [0, 0, 1, 2, 0, 0, 0, 3, 0],
            [1, 0, 0, 0, 0, 2, 0, 3, 0],
            [0, 0, 1, 0, 2, 0, 0, 0, 3],
            [0, 1, 0, 0, 0, 2, 0, 0, 3],
        ],
        ((6, 7, 8), (3, 4, 5), (0, 1, 2)),
        (),
    ),
    (6, 3, 4): ([[1, 0, 2], [1, 0, 2], [1, 2, 0], [1, 2, 0], [0, 1, 2], [0, 1, 2]], ((0,), (2,)), (1,)),
    (7, 7, 3): (
        [
            [1, 0, 2, 0, 0, 3, 0],
            [1, 0, 2, 0, 0, 3, 0],
            [1, 0, 0, 2, 0, 0, 3],
            [0, 1, 2, 0, 3, 0, 0],
            [0, 1, 0, 2, 0, 3, 0],
            [0, 1, 0, 0, 2, 0, 3],
            [0, 0, 0, 2, 1, 0, 3],
        ],
        ((0, 1), (2, 3), (5, 6)),
        (4,),
    ),
    (8, 8, 3): (
        [
            [1, 0, 0, 2, 0, 0, 3, 0],
            [1, 0, 0, 2, 0, 0, 3, 0],
            [0, 0, 1, 2, 0, 0, 0, 3],
            [1, 0, 0, 0, 2, 3, 0, 0],
            [0, 0, 1, 0, 2, 0, 3, 0],
            [0, 1, 2, 0, 3, 0, 0, 0],
            [0, 1, 0, 0, 0, 2, 0, 3],
            [0, 1, 0, 0, 0, 2, 0, 3],
        ],
        ((3, 4), (0, 2), (6, 7)),
        (1, 5),
    ),
    (4, 8, 2): "J = 8 exceeds the C(4,2) distinct layer patterns",
}


@pytest.mark.parametrize("k,j,n", sorted(PINNED))
def test_assignment_pins_exact_signatures(k, j, n):
    d_f = j * n // k
    ops = ops_ascending(list(np.linspace(0.4, 1.0, d_f)))
    expected = PINNED[k, j, n]
    if isinstance(expected, str):
        with pytest.raises(LayeringError) as exc:
            assign_layers_and_power(ops, SystemDims(k, j, 4, n))
        assert str(exc.value) == expected
        return
    sig = assign_layers_and_power(ops, SystemDims(k, j, 4, n))
    entries, groups, residuals = expected
    assert sig.entries.tolist() == entries
    assert sig.groups == groups and sig.residuals == residuals
    assert all(type(c) is int for c in sum(sig.groups, sig.residuals))
    assert validate_signature(sig).ok


def test_enumerate_counts_and_membership():
    pats = _patterns(4, 2)
    assert len(pats) == comb(4, 2) == 6
    assert all(len(p) == 2 for p in pats)
    assert frozenset({0, 1}) in pats and frozenset({2, 3}) in pats
    assert len(set(pats)) == len(pats)
    assert len(_patterns(5, 2)) == 10


def test_supports_are_distinct_patterns():
    sig = assign_layers_and_power(ops_ascending([0.5, 0.75, 1.0]), SystemDims(4, 6, 4, 2))
    patterns = {tuple(int(r in ones) for r in range(4)) for ones in combinations(range(4), 2)}
    support_cols = {tuple(sig.support[:, c]) for c in range(6)}
    assert support_cols <= patterns
    assert len(support_cols) == 6 == comb(4, 2)


def test_column_powers_sorted_ascending():
    sig = assign_layers_and_power(ops_ascending([0.5, 0.75, 1.0]), SystemDims(4, 6, 4, 2))
    assert np.all(np.diff(sig.column_powers()) >= -1e-12)


def test_validate_flags_row_imbalance():
    sig = assign_layers_and_power(ops_ascending([0.5, 0.75, 1.0]), SystemDims(4, 6, 4, 2))
    entries = sig.entries.copy()
    col = np.nonzero(entries[0] == 2)[0][0]
    entries[0, col] = 1  # row 0 now carries q1 twice
    bad = SignatureMatrix(entries=entries, operators=sig.operators, groups=sig.groups, residuals=sig.residuals)
    report = validate_signature(bad)
    assert not report.row_balance and not report.ok


def test_validate_flags_power_sort_only():
    sig = assign_layers_and_power(ops_ascending([0.5, 0.75, 1.0]), SystemDims(4, 6, 4, 2))
    entries = sig.entries[:, ::-1].copy()
    remap = {c: sig.entries.shape[1] - 1 - c for c in range(sig.entries.shape[1])}
    groups = tuple(tuple(sorted(remap[c] for c in g)) for g in sig.groups)
    swapped = SignatureMatrix(entries=entries, operators=sig.operators, groups=groups)
    report = validate_signature(swapped)
    assert not report.power_sorted
    assert report.row_balance and report.group_orthogonality and report.support_regular


def test_validate_flags_group_overlap():
    sig = assign_layers_and_power(ops_ascending([0.5, 0.75, 1.0]), SystemDims(4, 6, 4, 2))
    # claim two overlapping columns are one orthogonal group
    support = sig.support
    overlapping = None
    for a in range(6):
        for b in range(a + 1, 6):
            if support[:, a] @ support[:, b] != 0:
                overlapping = (a, b)
                break
        if overlapping:
            break
    bad = SignatureMatrix(entries=sig.entries, operators=sig.operators, groups=(overlapping,))
    assert not validate_signature(bad).group_orthogonality


def test_assignment_rejects_irregular_df():
    with pytest.raises(LayeringError):
        assign_layers_and_power(ops_ascending([0.5, 1.0]), SystemDims(4, 5, 4, 2))


def test_assignment_rejects_too_many_layers():
    with pytest.raises(LayeringError):
        assign_layers_and_power(ops_ascending(list(np.linspace(0.3, 1.0, 4))), SystemDims(4, 8, 4, 2))


def test_assignment_rejects_unsorted_operators():
    ops = (ConstellationOperator(1.0, 0.0), ConstellationOperator(0.5, 0.0), ConstellationOperator(0.7, 0.0))
    with pytest.raises(ValueError):
        assign_layers_and_power(ops, SystemDims(4, 6, 4, 2))


def test_assignment_rejects_wrong_operator_count():
    with pytest.raises(ValueError):
        assign_layers_and_power(ops_ascending([0.5, 1.0]), SystemDims(4, 6, 4, 2))


def test_operator_bounds():
    with pytest.raises(ValueError):
        ConstellationOperator(rho=0.0, theta=0.0)
    with pytest.raises(ValueError):
        ConstellationOperator(rho=1.2, theta=0.0)
    with pytest.raises(ValueError):
        ConstellationOperator(rho=0.5, theta=float(np.pi))
    op = ConstellationOperator(rho=0.5, theta=np.pi / 2)
    assert op.value == pytest.approx(0.5j)


def test_system_dims_validation():
    dims = SystemDims(4, 6, 4, 2)
    assert dims.overload == pytest.approx(1.5)
    assert dims.df_collisions == 3
    assert dims.bits_per_symbol == 2
    with pytest.raises(ValueError, match="m_order must be a power of two"):
        SystemDims(4, 6, 5, 2)
    with pytest.raises(ValueError, match="n_nonzero must be <= k_resources"):
        SystemDims(4, 6, 4, 5)
    with pytest.raises(LayeringError):
        SystemDims(4, 5, 4, 2).df_collisions
    # Each count fails at construction, naming its field, not later in the layering or codebook build.
    cases = [  # a list, since (4.0, 6, 4, 2) == (4, 6.0, 4, 2) as dict keys
        ((4.0, 6, 4, 2), "k_resources must be an integer >= 1, got 4.0"),
        ((4, 6.0, 4, 2), "j_users must be an integer >= 1, got 6.0"),
        ((4, 6, 4.0, 2), "m_order must be an integer >= 2, got 4.0"),
        ((4, 6, 4, 2.0), "n_nonzero must be an integer >= 1, got 2.0"),
        ((0, 6, 4, 2), "k_resources must be an integer >= 1, got 0"),
        ((4, 0, 4, 2), "j_users must be an integer >= 1, got 0"),
        ((4, 6, 1, 2), "m_order must be an integer >= 2, got 1"),
        ((4, 6, 4, 0), "n_nonzero must be an integer >= 1, got 0"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            SystemDims(*args)
    assert SystemDims(np.int64(4), np.int64(6), np.int64(4), np.int64(2)).df_collisions == 3
