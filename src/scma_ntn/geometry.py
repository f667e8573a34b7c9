"""Cell geometry, user placement statistics and Rician channel sampling.

Users are uniform on a disk of radius R (normalized to 1), the base station
hovers over the center at altitude ratio c1 = H/R.  Only the distance ratio
c2 = r/R enters the link metrics; the polar angle is immaterial.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "CellGeometry",
    "sample_radii",
    "ordered_distance_pdf",
    "expected_distance_ratio",
    "pathloss_factor",
    "sample_rician",
]


@dataclass(frozen=True)
class CellGeometry:
    """Normalized cell: altitude ratio c1 = H/R, path-loss exponent alpha."""

    radius_ratio_c1: float = 1.0
    pathloss_alpha: float = 3.0
    cell_radius: float = 1.0

    def __post_init__(self):
        if self.radius_ratio_c1 <= 0:
            raise ValueError("c1 must be positive")
        if self.pathloss_alpha < 1:
            raise ValueError("path-loss exponent must be >= 1")
        if self.cell_radius <= 0:
            raise ValueError("cell radius must be positive")


def sample_radii(shape, rng: np.random.Generator) -> np.ndarray:
    """Distance ratios of the given shape, i.i.d. with density f(r) = 2r on [0, 1].

    Inverse-CDF sampling: r = sqrt(u), u uniform.  Returned unsorted.
    """
    return np.sqrt(rng.random(shape))


def ordered_distance_pdf(j: int, j_users: int, x):
    """Density of the j-th smallest of J distance ratios (1-based rank).

    f_(j)(x) = J f(x) C(J-1, j-1) F(x)^(j-1) (1-F(x))^(J-j) with f = 2x,
    F = x^2 on the unit-radius cell.
    """
    if not 1 <= j <= j_users:
        raise ValueError(f"rank j must be in 1..{j_users}, got {j}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("distance ratio outside [0, 1]")
    comb = np.exp(gammaln(j_users) - gammaln(j) - gammaln(j_users - j + 1))
    cdf = x**2
    out = j_users * 2.0 * x * comb * cdf ** (j - 1) * (1.0 - cdf) ** (j_users - j)
    return out if out.ndim else float(out)


def expected_distance_ratio(j: int, j_users: int) -> float:
    """Mean of the j-th smallest of J distance ratios (1-based rank).

    Gamma(a+1/2)Gamma(a+b) / (Gamma(a+b+1/2)Gamma(a)) with a = j,
    b = J - j + 1; log-gamma keeps large J well-conditioned.
    """
    if not 1 <= j <= j_users:
        raise ValueError(f"rank j must be in 1..{j_users}, got {j}")
    a = float(j)
    b = float(j_users - j + 1)
    return float(np.exp(gammaln(a + 0.5) + gammaln(a + b) - gammaln(a + b + 0.5) - gammaln(a)))


def pathloss_factor(geom: CellGeometry, c2):
    """Amplitude-domain residual path loss (c1^2 + c2^2)^(-alpha/4).

    Fundamental path loss at range R is assumed pre-compensated, so the
    factor is 1 for a user at the nadir of a c1 = 1 cell.
    """
    c2 = np.asarray(c2, dtype=float)
    if np.any(c2 < 0):
        raise ValueError("distance ratio must be >= 0")
    out = (geom.radius_ratio_c1**2 + c2**2) ** (-geom.pathloss_alpha / 4.0)
    return out if out.ndim else float(out)


def sample_rician(shape, kappa: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-mean-square Rician gains: sqrt(kappa/(1+kappa)) + CN(0, 1/(1+kappa)).

    The LOS component is real and positive (detection is coherent, so the
    LOS phase is immaterial).  kappa = 0 reduces to Rayleigh.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    los = np.sqrt(kappa / (1.0 + kappa))
    scatter_std = np.sqrt(1.0 / (2.0 * (1.0 + kappa)))
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return los + scatter_std * g
