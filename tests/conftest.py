import numpy as np
import pytest

from scma_ntn import (
    CellGeometry,
    CodebookSet,
    ConstellationOperator,
    SystemDims,
    assign_layers_and_power,
    build_codebook_set,
    build_mother_constellation,
)

# Reference 4x6 design used across detector/consistency tests: power-diverse
# groups, evenly spread rotations.  Chosen once, frozen here.
REF_DELTA = 1.5
REF_RHOS = (0.3, 0.6, 1.0)
REF_THETAS = (0.0, np.pi / 3, 2 * np.pi / 3)


def make_codebook_set(delta, rhos, thetas, dims=None):
    dims = dims or SystemDims(4, 6, 4, 2)
    ops = tuple(ConstellationOperator(rho=r, theta=t) for r, t in zip(rhos, thetas))
    mc = build_mother_constellation(dims.m_order, dims.n_nonzero, delta)
    return build_codebook_set(mc, assign_layers_and_power(ops, dims))


@pytest.fixture(scope="session")
def dims46():
    return SystemDims(4, 6, 4, 2)


@pytest.fixture(scope="session")
def ref_cbs(dims46):
    return make_codebook_set(REF_DELTA, REF_RHOS, REF_THETAS, dims46)


@pytest.fixture(scope="session")
def geom():
    return CellGeometry()


@pytest.fixture(scope="session")
def reduced_cbs():
    """Irregular K=2, J=3, N=1, M=2 set: users 0,1 on RN 0, user 2 on RN 1."""
    dims = SystemDims(2, 3, 2, 1)
    base = np.array([-1.0, 1.0])
    books = np.zeros((3, 2, 2), dtype=complex)
    books[0, 0, :] = 0.9 * np.exp(0.4j) * base
    books[1, 0, :] = 1.3 * np.exp(1.1j) * base
    books[2, 1, :] = 1.1 * base
    return CodebookSet.from_codebooks(books, dims)
