import numpy as np
import pytest
from hypothesis import given, settings

from scma_ntn import (
    CodebookSet,
    ConstellationOperator,
    SystemDims,
    assign_layers_and_power,
    build_codebook_set,
    build_mother_constellation,
    dimension_energy,
    export_codebook_set,
    import_codebook_set,
)
from scma_ntn.codebook import CodebookFormatError

from conftest import SMALL_DIMS, make_codebook_set, small_sets


def _trace(codewords):
    return float(np.sum(np.abs(codewords) ** 2))


def _build(delta, rhos, thetas, dims=(4, 6, 4, 2)):
    """Codebook set and signature for one operator set."""
    dims = SystemDims(*dims)
    ops = tuple(ConstellationOperator(r, t) for r, t in zip(rhos, thetas))
    sig = assign_layers_and_power(ops, dims)
    return build_codebook_set(build_mother_constellation(dims.m_order, dims.n_nonzero, delta), sig), sig


def _paper_product(mc, sig):
    """X_j = sqrt(M/(N E)) V_j Delta_j A for every column, with dense V and Delta,
    then the one global rescale to total power J*M."""
    k, j = sig.entries.shape
    n, m = mc.rows.shape
    scale = np.sqrt(m / (n * dimension_energy(m, mc.delta)))
    books = np.zeros((j, k, m), dtype=complex)
    for c in range(j):
        ones = np.nonzero(sig.entries[:, c])[0]
        v = np.zeros((k, n))
        v[ones, np.arange(n)] = 1.0  # the n-th unit row at the n-th one of the layer
        delta = np.diag([sig.operators[sig.entries[r, c] - 1].value for r in ones])
        books[c] = scale * v @ delta @ mc.rows
    return books * np.sqrt(j * m / _trace(books))


@pytest.mark.parametrize(
    "dims,delta,rhos,thetas",
    [
        ((4, 6, 4, 2), 1.5, (0.3, 0.6, 1.0), (0.0, np.pi / 3, 2 * np.pi / 3)),
        ((4, 6, 8, 2), 2.7, (0.2, 0.5, 0.9), (0.3, 1.9, 3.0)),
        ((5, 10, 4, 2), 3.1, (0.1, 0.4, 0.4, 1.0), (2.0, 0.0, 1.0, 0.5)),
        ((6, 20, 4, 3), 1.2, (0.5,) * 10, tuple(0.3 * i for i in range(10))),
    ],
    ids=["4x6", "4x6-M8", "5x10", "6x20-N3"],
)
def test_build_codebook_set_matches_paper_product(dims, delta, rhos, thetas):
    cbs, sig = _build(delta, rhos, thetas, dims)
    mc = build_mother_constellation(dims[2], dims[3], delta)
    want = _paper_product(mc, sig)
    assert np.all((cbs.codebooks == 0) == (want == 0))
    np.testing.assert_allclose(cbs.codebooks, want, rtol=1e-14, atol=0)


def test_build_codebook_unit_power_rows():
    # unit operators: every layer carries the delta = 2 rows / sqrt(5) at its two RNs
    cbs, sig = _build(2.0, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    assert cbs.codebooks.shape == (6, 4, 4)
    for c in range(6):
        first, second = np.nonzero(sig.entries[:, c])[0]
        cb = cbs.codebooks[c]
        assert _trace(cb) == pytest.approx(4.0, rel=1e-14)
        assert np.allclose(cb[first], np.array([-2, -1, 1, 2]) / np.sqrt(5), rtol=0, atol=1e-15)
        assert np.allclose(cb[second], np.array([-1, 2, -2, 1]) / np.sqrt(5), rtol=0, atol=1e-15)
        assert np.all(np.delete(cb, [first, second], axis=0) == 0)


def test_build_codebook_rotation_preserves_trace():
    thetas = (0.0, np.pi / 2, np.pi / 4)
    ref, sig = _build(2.0, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0))
    rotated, rot_sig = _build(2.0, (1.0, 1.0, 1.0), thetas)
    assert np.array_equal(rot_sig.entries, sig.entries)
    assert np.allclose(rotated.traces(), 4.0, rtol=1e-14)
    for c in range(6):
        for r in np.nonzero(sig.entries[:, c])[0]:
            turn = np.exp(1j * thetas[sig.entries[r, c] - 1])
            assert np.allclose(rotated.codebooks[c, r], turn * ref.codebooks[c, r], rtol=0, atol=1e-15)


def test_build_codebook_power_scaling_is_quadratic():
    # a layer's trace follows the sum of rho^2 over its operators, not of rho
    cbs, sig = _build(2.0, (0.5, 1.0, 1.0), (0.0, 0.0, 0.0))
    rho2 = sig.column_powers()
    assert not np.allclose(rho2 / rho2.sum(), np.sqrt(rho2) / np.sqrt(rho2).sum())
    assert cbs.traces() == pytest.approx(24.0 * rho2 / rho2.sum(), rel=1e-14)


def test_build_codebook_dimension_mismatch():
    sig = assign_layers_and_power((ConstellationOperator(1.0, 0.0),) * 3, SystemDims(4, 6, 4, 2))
    for rows in (1, 3):
        with pytest.raises(ValueError, match="rows"):
            build_codebook_set(build_mother_constellation(4, rows, 2.0), sig)


def test_set_total_power_and_column_ordering(ref_cbs):
    assert ref_cbs.total_power() == pytest.approx(24.0, abs=1e-9)
    traces = ref_cbs.traces()
    assert np.all(np.diff(traces) >= -1e-12)


def test_set_unit_operators_give_unit_traces():
    cbs = make_codebook_set(2.0, (1.0, 1.0, 1.0), (0.0, 0.5, 1.0))
    assert np.allclose(cbs.traces(), 4.0, rtol=1e-13)


def test_set_homogeneous_in_global_rho_scale():
    a = make_codebook_set(1.8, (0.4, 0.6, 1.0), (0.1, 0.9, 2.0))
    b = make_codebook_set(1.8, (0.2, 0.3, 0.5), (0.1, 0.9, 2.0))
    assert np.allclose(a.codebooks, b.codebooks, atol=1e-13)


def test_rotation_only_change_leaves_traces_and_distances(ref_cbs):
    rotated = make_codebook_set(1.5, (0.3, 0.6, 1.0), (0.5, 1.3, 2.7))
    assert np.allclose(rotated.traces(), ref_cbs.traces(), atol=1e-12)
    for j in range(6):
        d_ref = np.abs(ref_cbs.codebooks[j][:, :, None] - ref_cbs.codebooks[j][:, None, :])
        d_rot = np.abs(rotated.codebooks[j][:, :, None] - rotated.codebooks[j][:, None, :])
        assert np.allclose(np.linalg.norm(d_ref, axis=0), np.linalg.norm(d_rot, axis=0), atol=1e-12)


def test_set_supports_match_signature(ref_cbs):
    signature = np.array(ref_cbs.metadata["signature"])
    assert np.array_equal(ref_cbs.supports().T.astype(int), (signature > 0).astype(int))


def test_superimpose_sums_user_codewords(ref_cbs):
    tx = np.array([[0, 1, 2, 3, 0, 1], [3, 3, 3, 3, 3, 3]])
    want = [sum(ref_cbs.codebooks[l, :, row[l]] for l in range(6)) for row in tx]
    assert np.allclose(ref_cbs.superimpose(tx), want, rtol=0, atol=1e-15)
    assert np.array_equal(ref_cbs.superimpose(tx[0]), ref_cbs.superimpose(tx)[:1])


def test_two_layer_toy_normalization():
    # powers 1 and 0.25 rescale to traces (8/5) M and (2/5) M
    dims = SystemDims(2, 2, 4, 1)
    books = np.zeros((2, 2, 4), dtype=complex)
    row = np.array([-2.0, -1.0, 1.0, 2.0])  # any common row scale cancels in the rescale
    books[0, 0, :] = row
    books[1, 1, :] = 0.5 * row
    cbs = CodebookSet.from_codebooks(books, dims)
    assert cbs.traces() == pytest.approx([1.6 * 4, 0.4 * 4], rel=1e-12)
    assert cbs.total_power() == pytest.approx(8.0, rel=1e-12)


def test_from_codebooks_rejects_arrays_without_finite_positive_power():
    # An all-zero array would rescale by 1/0 into NaN codewords; a nan entry poisons the total.
    dims = SystemDims(2, 2, 4, 1)
    books = np.zeros((2, 2, 4), dtype=complex)
    with pytest.raises(ValueError, match="books must have finite, positive total power"):
        CodebookSet.from_codebooks(books, dims)
    books[0, 0, :] = [-2.0, -1.0, 1.0, 2.0]
    books[1, 1, 2] = np.nan
    with pytest.raises(ValueError, match="books must have finite, positive total power"):
        CodebookSet.from_codebooks(books, dims)


def test_export_import_round_trip(tmp_path, ref_cbs):
    path = tmp_path / "set.txt"
    export_codebook_set(ref_cbs, path)
    loaded = import_codebook_set(path)
    assert np.abs(loaded.codebooks - ref_cbs.codebooks).max() <= 1e-15
    assert loaded.dims == ref_cbs.dims
    assert loaded.metadata["delta"] == ref_cbs.metadata["delta"]
    assert loaded.metadata["operators"] == ref_cbs.metadata["operators"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_sets(tuple(SMALL_DIMS) + ((4, 6, 4, 2), (4, 6, 8, 2), (5, 10, 4, 2))))
def test_export_import_export_is_byte_identical(tmp_path_factory, cbs):
    work = tmp_path_factory.mktemp("round_trip")
    first, second = work / "first.txt", work / "second.txt"
    export_codebook_set(cbs, first)
    loaded = import_codebook_set(first)
    export_codebook_set(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.codebooks.tobytes() == cbs.codebooks.tobytes()
    assert loaded.dims == cbs.dims
    assert loaded.metadata == cbs.metadata


def test_import_rejects_wrong_dims(tmp_path, ref_cbs):
    path = tmp_path / "set.txt"
    export_codebook_set(ref_cbs, path)
    text = path.read_text().replace("dims 4 6 4 2", "dims 5 6 4 2")
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    with pytest.raises(CodebookFormatError):
        import_codebook_set(bad)


def test_import_warns_on_denormalized_baseline(tmp_path, ref_cbs):
    perturbed = CodebookSet(
        codebooks=ref_cbs.codebooks * np.sqrt(1.001),
        dims=ref_cbs.dims,
        metadata=ref_cbs.metadata,
    )
    path = tmp_path / "baseline.txt"
    export_codebook_set(perturbed, path)
    with pytest.warns(UserWarning, match="total power"):
        loaded = import_codebook_set(path)
    assert loaded.total_power() == pytest.approx(24.0 * 1.001, rel=1e-9)


def drop_codeword(lines):
    """The exported set with codebook 2's last codeword removed."""
    second = lines.index("codebook 2")
    return lines[: second + 4] + lines[second + 5 :]


def repeat_block(lines):
    """The exported set with codebook 2's header renamed to codebook 1."""
    return [("codebook 1" if ln == "codebook 2" else ln) for ln in lines]


def drop_block(lines):
    """The exported set without codebook 6's header and codewords."""
    return lines[: lines.index("codebook 6")]


def repeat_dims(lines):
    """The exported set with its dims record repeated at the end."""
    return lines + [lines[1]]


def set_entry(value, zero):
    """A mangle that writes value over codebook 1's first zero (or nonzero) codeword number."""

    def mangle(lines):
        first = lines.index("codebook 1") + 1
        tok = lines[first].split()
        at = next(i for i, t in enumerate(tok[1:], 1) if (float(t) == 0.0) == zero)
        return lines[:first] + [" ".join(tok[:at] + [value] + tok[at + 1 :])] + lines[first + 1 :]

    return mangle


NON_FINITE = "a codeword holds a non-finite value"


@pytest.mark.parametrize(
    "mangle, message",
    [
        (drop_codeword, "codebook 2 has 3 codewords, expected M = 4"),
        (repeat_block, "codebook 1 repeated"),
        (drop_block, "codebook 6 missing, expected M = 4"),
        (repeat_dims, "dims repeated"),
        pytest.param(set_entry("nan", zero=False), NON_FINITE, id="nan-over-nonzero"),
        pytest.param(set_entry("inf", zero=False), NON_FINITE, id="inf-over-nonzero"),
        pytest.param(set_entry("-inf", zero=False), NON_FINITE, id="minus-inf-over-nonzero"),
        pytest.param(set_entry("nan", zero=True), NON_FINITE, id="nan-over-zero"),
        pytest.param(set_entry("1e300", zero=False), "total power overflows", id="huge-over-nonzero"),
    ],
)
def test_import_rejects_incomplete_codebook_blocks(tmp_path, ref_cbs, mangle, message):
    path = tmp_path / "set.txt"
    export_codebook_set(ref_cbs, path)
    path.write_text("\n".join(mangle(path.read_text().splitlines())) + "\n")
    with pytest.raises(CodebookFormatError, match=message):
        import_codebook_set(path)


def append_to(prefix, token):
    """A mangle that appends token to the first line starting with prefix."""

    def mangle(lines):
        at = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        return lines[:at] + [f"{lines[at]} {token}"] + lines[at + 1 :]

    return mangle


@pytest.mark.parametrize(
    "mangle, message",
    [
        pytest.param(append_to("dims ", "99"), "dims record has 5 values, expected 4", id="dims"),
        pytest.param(append_to("delta ", "junk"), "delta record has 2 values, expected 1", id="delta"),
        pytest.param(append_to("operator ", "0.5"), "operator record has 3 values, expected 2", id="operator"),
        pytest.param(append_to("codebook 1", "7"), "codebook record has 2 values, expected 1", id="codebook"),
        pytest.param(append_to("codeword ", "5"), "codeword has 9 numbers, expected 2K = 8", id="codeword"),
        pytest.param(lambda lines: lines[:1] + ["dims 4 6 4"] + lines[2:], "dims record has 3 values", id="short-dims"),
    ],
)
def test_import_rejects_records_of_the_wrong_length(tmp_path, ref_cbs, mangle, message):
    path = tmp_path / "set.txt"
    export_codebook_set(ref_cbs, path)
    path.write_text("\n".join(mangle(path.read_text().splitlines())) + "\n")
    with pytest.raises(CodebookFormatError, match=message):
        import_codebook_set(path)


def test_import_reports_an_unreadable_path_as_a_format_error(tmp_path):
    with pytest.raises(CodebookFormatError, match="missing.txt: cannot read"):
        import_codebook_set(tmp_path / "missing.txt")
    with pytest.raises(CodebookFormatError, match="cannot read"):
        import_codebook_set(tmp_path)


# Headers whose J x K x M complex array outgrows a 57-bit address space, with a huge J, K or M.
HUGE_DIMS = {
    "huge-J": "dims 4 1000000000000000 4 2",
    "huge-K": "dims 1000000000000000 6 4 2",
    "huge-M": f"dims 4 6 {2**50} 2",
}


@pytest.mark.parametrize("header", HUGE_DIMS.values(), ids=HUGE_DIMS.keys())
def test_import_allocates_for_the_codewords_read_not_the_dims_record(tmp_path, header):
    path = tmp_path / "huge.txt"
    path.write_text(f"format scma-codebook-set 1\n{header}\n")
    with pytest.raises(CodebookFormatError, match="codebook 1 missing"):
        import_codebook_set(path)


def test_import_rejects_garbage(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("format scma-codebook-set 1\ndims 2 2 2 1\nwible wobble\n")
    with pytest.raises(CodebookFormatError):
        import_codebook_set(path)
    path2 = tmp_path / "nothdr.txt"
    path2.write_text("hello\n")
    with pytest.raises(CodebookFormatError):
        import_codebook_set(path2)


def test_build_set_rejects_invalid_signature(ref_cbs):
    from scma_ntn.layering import SignatureMatrix

    sig_meta = np.array(ref_cbs.metadata["signature"])
    ops = tuple(ConstellationOperator(r, t) for r, t in ref_cbs.metadata["operators"])
    entries = sig_meta[:, ::-1].copy()  # breaks the power sort
    bad = SignatureMatrix(entries=entries, operators=ops, groups=())
    mc = build_mother_constellation(4, 2, 1.5)
    with pytest.raises(ValueError):
        build_codebook_set(mc, bad)
