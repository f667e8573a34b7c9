import numpy as np
import pytest

from scma_ntn import (
    CodebookSet,
    ConstellationOperator,
    SystemDims,
    build_codebook,
    build_codebook_set,
    build_mother_constellation,
    dimension_energy,
    export_codebook_set,
    import_codebook_set,
    mapping_matrix_from_layer,
)
from scma_ntn.codebook import CodebookFormatError

from conftest import make_codebook_set


def test_mapping_matrix_published_examples():
    v1 = mapping_matrix_from_layer([0, 1, 0, 1], 2)
    assert np.array_equal(v1, [[0, 0], [1, 0], [0, 0], [0, 1]])
    v2 = mapping_matrix_from_layer([1, 0, 1, 0], 2)
    assert np.array_equal(v2, [[1, 0], [0, 0], [0, 1], [0, 0]])


def test_mapping_matrix_identity_case():
    assert np.array_equal(mapping_matrix_from_layer([1, 1], 2), np.eye(2))


def test_mapping_matrix_is_orthonormal():
    v = mapping_matrix_from_layer([1, 0, 0, 1, 1, 0], 3)
    assert np.array_equal(v.T @ v, np.eye(3))


def test_mapping_matrix_rejects_wrong_popcount():
    with pytest.raises(ValueError):
        mapping_matrix_from_layer([1, 1, 0, 1], 2)


def _trace(codewords):
    return float(np.sum(np.abs(codewords) ** 2))


def _unrotated_codebook(delta=2.0):
    mc = build_mother_constellation(4, 2, delta)
    v = mapping_matrix_from_layer([1, 0, 1, 0], 2)
    ops = (ConstellationOperator(1.0, 0.0), ConstellationOperator(1.0, 0.0))
    return build_codebook(mc, v, ops, dimension_energy(4, delta))


def test_build_codebook_unit_power_rows():
    cb = _unrotated_codebook()
    assert cb.shape == (4, 4)
    assert _trace(cb) == pytest.approx(4.0, rel=1e-14)
    assert np.allclose(cb[0].real, np.array([-2, -1, 1, 2]) / np.sqrt(5))
    assert np.allclose(cb[2].real, np.array([-1, 2, -2, 1]) / np.sqrt(5))
    assert np.allclose(cb[[1, 3]], 0.0)


def test_build_codebook_rotation_preserves_trace():
    mc = build_mother_constellation(4, 2, 2.0)
    v = mapping_matrix_from_layer([1, 0, 1, 0], 2)
    ops = (ConstellationOperator(1.0, 0.0), ConstellationOperator(1.0, np.pi / 2))
    cb = build_codebook(mc, v, ops, dimension_energy(4, 2.0))
    ref = _unrotated_codebook()
    assert _trace(cb) == pytest.approx(4.0, rel=1e-14)
    assert np.allclose(cb[2], 1j * ref[2])


def test_build_codebook_power_scaling_is_quadratic():
    mc = build_mother_constellation(4, 2, 2.0)
    v = mapping_matrix_from_layer([1, 0, 1, 0], 2)
    ops = (ConstellationOperator(0.5, 0.0), ConstellationOperator(0.5, 0.0))
    cb = build_codebook(mc, v, ops, dimension_energy(4, 2.0))
    assert _trace(cb) == pytest.approx(1.0, rel=1e-14)


def test_build_codebook_dimension_mismatch():
    mc = build_mother_constellation(4, 2, 2.0)
    v = mapping_matrix_from_layer([1, 0, 1, 0], 2)
    with pytest.raises(ValueError):
        build_codebook(mc, v, (ConstellationOperator(1.0, 0.0),), dimension_energy(4, 2.0))


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


def test_export_import_round_trip(tmp_path, ref_cbs):
    path = tmp_path / "set.txt"
    export_codebook_set(ref_cbs, path)
    loaded = import_codebook_set(path)
    assert np.abs(loaded.codebooks - ref_cbs.codebooks).max() <= 1e-15
    assert loaded.dims == ref_cbs.dims
    assert loaded.metadata["delta"] == ref_cbs.metadata["delta"]
    assert loaded.metadata["operators"] == ref_cbs.metadata["operators"]


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
