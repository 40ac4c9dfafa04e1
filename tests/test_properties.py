"""Property tests: global optimality of the QECQP solve, the basis
invariants, exact recovery of a graph from its Laplacian, perfect
reconstruction of a level's operators, and exact round trips through the
graph text format and the saved-pyramid format on random inputs.

Examples are drawn deterministically (``derandomize``) so the suite gives the
same verdict on every run; the example budget keeps it to a few seconds.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import graphfb as gf
from graphfb import multires, qecqp
from graphfb.errors import InputError
from conftest import oracle_min, phi_matrix

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
    # Which examples the derandomized draw makes depends on the set of
    # collected tests; one drew a Q whose entries were all 6.26e-264,
    # and solve refuses a Q with 0 < max |Q| < 1e-100, as documented.
    q_max = float(np.abs(p.q).max())
    if 0.0 < q_max < 1e-100:
        with pytest.raises(InputError, match=r"outside \[1e-100, 1e100\]"):
            qecqp.solve(p)
        return
    sol = qecqp.solve(p)  # raises SolverError unless every certificate holds
    assert sol.objective <= oracle_min(p, samples=2000, seed=0) + 1e-8


@_SETTINGS
@given(connected_graphs())
def test_basis_is_orthonormal_and_folds(g):
    lap = gf.laplacian(g)
    pattern = gf.greedy_max_cut(lap)
    b = gf.compute_basis(lap, pattern)
    assert np.abs(b.u.T @ b.u - np.eye(g.n)).max() <= 1e-10
    assert np.abs(pattern.sign[:, None] * b.u - b.u @ phi_matrix(b.phi)).max() <= 1e-10


@_SETTINGS
@given(connected_graphs())
def test_graph_from_laplacian_recovers_the_edges_exactly(g):
    assert multires.graph_from_laplacian(gf.laplacian(g)).edges == g.edges


@st.composite
def graphs_with_signals(draw, elements=_ENTRY) -> tuple[gf.Graph, np.ndarray]:
    """A connected graph and one signal on its vertices."""
    g = draw(connected_graphs())
    return g, draw(hnp.arrays(np.float64, g.n, elements=elements))


@_SETTINGS
@given(graphs_with_signals())
def test_level_operators_reconstruct(case):
    g, f = case
    level = gf.build_level(g)
    eye = np.eye(g.n)
    assert np.abs(level.analysis @ level.analysis.T - eye).max() <= 1e-10
    assert np.abs(level.synthesis @ level.analysis - eye).max() <= 1e-10
    back = gf.synthesize(level, *gf.analyze(level, f))
    assert np.abs(back - f).max() <= 1e-10


@_SETTINGS
@given(graphs_with_signals(st.floats(allow_nan=False, allow_infinity=False)))
def test_graph_text_round_trip_is_exact(case):
    g, f = case
    g2, f2 = gf.parse_graph(gf.format_graph(g, f))
    assert g2.n == g.n and g2.edges == g.edges
    assert np.array_equal(f2, f)


@_SETTINGS
@given(connected_graphs(), st.integers(1, 3))
def test_saved_pyramid_round_trip_is_exact(g, depth):
    p = multires.build_pyramid(g, depth)
    with tempfile.TemporaryDirectory() as tmp:
        multires.save_pyramid(p, tmp)
        q = multires.load_pyramid(tmp)
    assert (q.config, q.requested_depth, q.depth) == (p.config, p.requested_depth, p.depth)
    for a, b in zip(p.levels, q.levels):
        assert a.graph.edges == b.graph.edges
        assert a.pattern.keep_low == b.pattern.keep_low
        for x, y in [
            (a.basis.u, b.basis.u),
            (a.basis.energies, b.basis.energies),
            (a.basis.pair_tags, b.basis.pair_tags),
            (a.basis.phi.perm, b.basis.phi.perm),
            (a.basis.phi.signs, b.basis.phi.signs),
            *zip(a.quartet, b.quartet),
            (a.analysis, b.analysis),
        ]:
            assert np.array_equal(x, y)
