"""PAM-based mother constellation.

The mother constellation (MC) is an N x M real matrix whose rows are signed
permutations of a single amplitude ladder a_1 < a_2 < ... < a_{M/2}.  Odd
rows carry the ladder in ascending order, even rows interleave small and
large amplitudes, so that superimposed dimensions decorrelate.  Phase and
power enter later through constellation operators; the MC itself is real.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MotherConstellation",
    "pam_amplitudes",
    "build_mother_constellation",
    "dimension_energy",
]


def _check_params(m_order: int, delta: float) -> None:
    if m_order < 2 or m_order % 2 != 0:
        raise ValueError(f"m_order must be an even integer >= 2, got {m_order}")
    if delta < 1.0:
        raise ValueError(f"delta must be >= 1, got {delta}")


@dataclass(frozen=True)
class MotherConstellation:
    """N x M real mother constellation with its amplitude parameter.

    rows[n] is the n-th dimension (0-based); every row has zero mean and
    the same energy.  delta = 1 collapses the ladder to unit amplitudes.
    """

    rows: np.ndarray
    delta: float
    m_order: int
    n_dims: int


def pam_amplitudes(m_order: int, delta: float) -> np.ndarray:
    """Amplitude ladder a_m = m*(delta-1) + (2-delta) for m = 1..M/2."""
    _check_params(m_order, delta)
    m = np.arange(1, m_order // 2 + 1, dtype=float)
    return m * (delta - 1.0) + (2.0 - delta)


def build_mother_constellation(m_order: int, n_dims: int, delta: float) -> MotherConstellation:
    """Build the N x M mother constellation.

    Odd dimensions (1-based) hold [-a_{M/2}, ..., -a_1, a_1, ..., a_{M/2}];
    even dimensions interleave as [-a_1, a_{M/2}, -a_2, a_{M/2-1}, ...].
    """
    _check_params(m_order, delta)
    if n_dims < 1:
        raise ValueError(f"n_dims must be >= 1, got {n_dims}")
    amps = pam_amplitudes(m_order, delta)
    odd = np.concatenate([-amps[::-1], amps])
    even = np.empty(m_order)
    even[0::2] = -amps
    even[1::2] = amps[::-1]
    rows = np.array([odd if (n + 1) % 2 == 1 else even for n in range(n_dims)])
    return MotherConstellation(rows=rows, delta=float(delta), m_order=m_order, n_dims=n_dims)


def dimension_energy(m_order: int, delta: float) -> float:
    """Per-dimension energy of the MC, closed form.

    Equals twice the sum of squared ladder amplitudes (each row contains
    every +-a_m exactly once).
    """
    _check_params(m_order, delta)
    m = float(m_order)
    return m * (2.0 - delta) * (1.0 + m / 2.0 * delta - m / 2.0) + m * (m + 2.0) * (m + 1.0) * (delta - 1.0) ** 2 / 12.0
