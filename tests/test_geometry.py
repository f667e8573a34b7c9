import numpy as np
import pytest
from scipy.integrate import quad

from scma_ntn import (
    CellGeometry,
    expected_distance_ratio,
    ordered_distance_pdf,
    pathloss_factor,
    sample_radii,
    sample_rician,
)


class _FixedUniform:
    """Generator stand-in feeding fixed uniforms into inverse-CDF sampling."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n):
        assert n == self.values.size
        return self.values


def test_inverse_cdf_transform():
    assert sample_radii(2, _FixedUniform([0.25, 1.0])) == pytest.approx([0.5, 1.0])


def test_radii_empirical_mean():
    rng = np.random.default_rng(42)
    draws = sample_radii(1_000_000, rng)
    assert draws.mean() == pytest.approx(2.0 / 3.0, abs=0.002)
    assert draws.min() >= 0 and draws.max() <= 1


def test_ordered_pdf_reduces_to_parent_density():
    x = np.linspace(0, 1, 11)
    assert np.allclose(ordered_distance_pdf(1, 1, x), 2 * x)


def test_ordered_pdf_max_of_six():
    x = np.linspace(0, 1, 7)
    assert np.allclose(ordered_distance_pdf(6, 6, x), 12 * x**11)


@pytest.mark.parametrize("j", range(1, 7))
def test_ordered_pdf_normalizes(j):
    total, _ = quad(lambda x: ordered_distance_pdf(j, 6, x), 0.0, 1.0)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_expected_ratio_closed_form_anchors():
    assert abs(expected_distance_ratio(1, 1) - 2.0 / 3.0) < 1e-12
    assert abs(expected_distance_ratio(6, 6) - 12.0 / 13.0) < 1e-12


def test_expected_ratio_minimum_of_six_against_monte_carlo():
    rng = np.random.default_rng(7)
    mins = np.sqrt(rng.random((1_000_000, 6))).min(axis=1)
    se = mins.std() / np.sqrt(mins.size)
    assert abs(expected_distance_ratio(1, 6) - mins.mean()) < 3 * se
    assert expected_distance_ratio(1, 6) == pytest.approx(0.3410, abs=5e-5)


def test_expected_ratio_order_statistics_match_empirical():
    rng = np.random.default_rng(11)
    sorted_draws = np.sort(np.sqrt(rng.random((100_000, 6))), axis=1)
    for j in range(1, 7):
        col = sorted_draws[:, j - 1]
        se = col.std() / np.sqrt(col.size)
        assert abs(col.mean() - expected_distance_ratio(j, 6)) < 3 * se


def test_expected_ratio_monotone_in_rank_and_limit():
    vals = [expected_distance_ratio(j, 8) for j in range(1, 9)]
    assert np.all(np.diff(vals) > 0)
    assert expected_distance_ratio(4000, 4000) > 0.999


def test_pathloss_examples():
    geom = CellGeometry(radius_ratio_c1=1.0, pathloss_alpha=3.0)
    assert pathloss_factor(geom, 0.0) == pytest.approx(1.0)
    assert pathloss_factor(geom, 1.0) == pytest.approx(2.0 ** (-0.75))
    geom2 = CellGeometry(radius_ratio_c1=1.0, pathloss_alpha=2.0)
    assert pathloss_factor(geom2, 1.0) == pytest.approx(2.0 ** (-0.5))


def test_pathloss_monotone():
    geom_lo = CellGeometry(pathloss_alpha=2.0)
    geom_hi = CellGeometry(pathloss_alpha=4.0)
    c2 = np.linspace(0.0, 1.0, 9)
    vals = pathloss_factor(geom_lo, c2)
    assert np.all(np.diff(vals) < 0)
    # steeper exponent loses more whenever c1^2 + c2^2 > 1
    assert np.all(pathloss_factor(geom_hi, c2[1:]) < pathloss_factor(geom_lo, c2[1:]))


def test_rician_pure_los_limit():
    rng = np.random.default_rng(0)
    g = sample_rician(1000, 1e12, rng)
    assert np.allclose(g, 1.0, atol=1e-5)


def test_rician_rayleigh_reduction():
    rng = np.random.default_rng(1)
    g = sample_rician(1_000_000, 0.0, rng)
    assert abs(g.mean()) < 0.005
    assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, rel=0.005)


def test_rician_moments_kappa_ten():
    rng = np.random.default_rng(2)
    g = sample_rician(1_000_000, 10.0, rng)
    assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, rel=0.005)
    assert g.mean().real == pytest.approx(np.sqrt(10.0 / 11.0), rel=0.005)


def test_sample_radii_takes_a_shape():
    # the simulator draws a (batch, J) block in one call; same stream as rng.random
    draws = sample_radii((5, 6), np.random.default_rng(3))
    assert draws.shape == (5, 6)
    assert np.array_equal(draws, np.sqrt(np.random.default_rng(3).random((5, 6))))
    assert np.all((draws >= 0) & (draws <= 1))


def test_validation_errors():
    with pytest.raises(ValueError):
        ordered_distance_pdf(0, 6, 0.5)
    with pytest.raises(ValueError):
        ordered_distance_pdf(2, 6, 1.5)
    with pytest.raises(ValueError):
        expected_distance_ratio(7, 6)
    for kappa in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="kappa must be finite and >= 0"):
            sample_rician(4, kappa, np.random.default_rng(0))
    for c1 in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="c1"):
            CellGeometry(radius_ratio_c1=c1)
    for alpha in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="path-loss"):
            CellGeometry(pathloss_alpha=alpha)


def test_path_loss_must_stay_in_float_range():
    # (c1^2 + c2^2)^(alpha/2) overflows at the cell edge or underflows to 0 at the nadir.
    for c1, alpha in ((1e200, 3.0), (1.0, 5000.0), (0.5, 5000.0), (1e-200, 3.0)):
        with pytest.raises(ValueError, match="float range"):
            CellGeometry(radius_ratio_c1=c1, pathloss_alpha=alpha)
    geom = CellGeometry(radius_ratio_c1=1.0, pathloss_alpha=2000.0)  # 2^1000 at the edge: large but finite
    assert pathloss_factor(geom, 0.0) == 1.0 and pathloss_factor(geom, 1.0) == 2.0**-500
