import numpy as np
import pytest
from hypothesis import strategies as st

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


def make_oversized_set():
    """A 6x20, N = 3 set (d_f = 10): its RN tables are far too large for the exact bound."""
    d_f = 10
    return make_codebook_set(2.0, np.linspace(0.1, 1.0, d_f), np.linspace(0.0, 3.0, d_f), SystemDims(6, 20, 4, 3))


# Small regular factor graphs (K, J, M, N) whose exact union bound takes milliseconds.
SMALL_DIMS = [(2, 1, 4, 2), (2, 2, 4, 1), (3, 3, 2, 2), (3, 3, 4, 2), (4, 6, 2, 2), (6, 4, 2, 3)]


@st.composite
def small_sets(draw, dims_choices=tuple(SMALL_DIMS)):
    """A designed codebook set with random delta, operator powers and rotations."""
    dims = SystemDims(*draw(st.sampled_from(dims_choices)))
    d_f = dims.df_collisions
    operator = st.lists(st.floats(0.05, 1.0), min_size=d_f, max_size=d_f)
    rhos = sorted(draw(operator))
    thetas = draw(st.lists(st.floats(0.0, 3.14), min_size=d_f, max_size=d_f))
    return make_codebook_set(draw(st.floats(1.0, 4.0)), rhos, thetas, dims)


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
    return make_reduced_set()


def make_reduced_set():
    """Irregular K=2, J=3, N=1, M=2 set: users 0,1 on RN 0, user 2 on RN 1."""
    dims = SystemDims(2, 3, 2, 1)
    base = np.array([-1.0, 1.0])
    books = np.zeros((3, 2, 2), dtype=complex)
    books[0, 0, :] = 0.9 * np.exp(0.4j) * base
    books[1, 0, :] = 1.3 * np.exp(1.1j) * base
    books[2, 1, :] = 1.1 * base
    return CodebookSet.from_codebooks(books, dims)
