"""Property tests: global optimality of the QECQP solve and the basis
invariants on random inputs.

Examples are drawn deterministically (``derandomize``) so the suite gives the
same verdict on every run; the example budget keeps it to a few seconds.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import graphfb as gf
from graphfb import qecqp

_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)

_ENTRY = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def problems(draw) -> qecqp.QecqpProblem:
    """Symmetric Q with entries in [-10, 10] and R with eigenvalues in {0, 2},
    diagonal or rotated by a random orthogonal matrix."""
    k = draw(st.integers(3, 12))
    z = draw(hnp.arrays(np.float64, (k, k), elements=_ENTRY))
    twos = draw(st.integers(1, k - 1))
    r = np.diag(np.repeat([2.0, 0.0], [twos, k - twos]))
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rot, _ = np.linalg.qr(rng.standard_normal((k, k)))
        r = rot @ r @ rot.T
        r = 0.5 * (r + r.T)
    return qecqp.QecqpProblem(0.5 * (z + z.T), r)


@st.composite
def connected_graphs(draw) -> gf.Graph:
    """A random spanning tree on 3..10 vertices plus random extra edges,
    with weights in [0.1, 10]."""
    n = draw(st.integers(3, 10))
    weight = st.floats(0.1, 10.0, allow_nan=False, allow_infinity=False)
    edges = {(draw(st.integers(0, i - 1)), i): draw(weight) for i in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(pairs, max_size=2 * n)):
        if i != j:
            edges.setdefault((min(i, j), max(i, j)), draw(weight))
    return gf.Graph(n, tuple((i, j, w) for (i, j), w in sorted(edges.items())))


@_SETTINGS
@given(problems())
def test_solve_certifies_the_global_minimum(p):
    sol = qecqp.solve(p)  # raises SolverError unless every certificate holds
    assert sol.objective <= qecqp.oracle_min(p, samples=2000, seed=0) + 1e-8


@_SETTINGS
@given(connected_graphs())
def test_basis_is_orthonormal_and_folds(g):
    lap = gf.laplacian(g)
    pattern = gf.greedy_max_cut(lap)
    b = gf.compute_basis(lap, pattern)
    assert np.abs(b.u.T @ b.u - np.eye(g.n)).max() <= 1e-10
    assert np.abs(pattern.sign[:, None] * b.u - b.u @ b.phi.as_matrix()).max() <= 1e-10
