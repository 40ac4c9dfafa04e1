"""Graph container, Laplacian, Dirichlet energy, generators, and file format."""

from __future__ import annotations

import itertools
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

import graphfb as gf
from graphfb import multires, sampling
from graphfb.errors import InputError, NumericalError
from graphfb.graphs import _components, as_signal
from conftest import dense_weights, dirichlet_double_sum

PATH3_LAPLACIAN = np.array(
    [
        [1.0, -1.0, 0.0],
        [-1.0, 2.0, -1.0],
        [0.0, -1.0, 1.0],
    ]
)


def test_laplacian_path3(path3):
    np.testing.assert_allclose(gf.laplacian(path3), PATH3_LAPLACIAN, atol=0)


def test_laplacian_complete4():
    g = gf.generate("complete", 4)
    expected = 4.0 * np.eye(4) - np.ones((4, 4))
    np.testing.assert_allclose(gf.laplacian(g), expected, atol=0)


def _dense_laplacian(g: gf.Graph) -> np.ndarray:
    w = dense_weights(g)
    return np.diag(w.sum(axis=1)) - w


def _kron_graph() -> gf.Graph:
    g = gf.generate("random_geometric", 60, seed=2)
    l_matrix = gf.laplacian(g)
    return multires.graph_from_laplacian(multires.kron_reduce(l_matrix, sampling.greedy_max_cut(l_matrix).keep_low))


@pytest.mark.parametrize(
    "make",
    [
        lambda: gf.Graph(1, ()),
        lambda: gf.generate("ring", 7),
        lambda: gf.generate("path", 9),
        lambda: gf.generate("grid", 30),
        lambda: gf.generate("complete", 12),
        lambda: gf.generate("random_geometric", 192, seed=5),
        lambda: gf.generate("random_geometric", 1024, seed=1),
        _kron_graph,
    ],
)
def test_laplacian_equals_dense_formula_bit_for_bit(make):
    # L is written from the edge arrays; it must be exactly D - W, with the
    # sign of every zero (a lone vertex's degree is +0.0) kept.
    g = make()
    got, want = gf.laplacian(g), _dense_laplacian(g)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_graph_holds_no_dense_matrix_after_laplacian():
    n = 1024
    g = gf.generate("random_geometric", n, seed=1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lap = gf.laplacian(g)
        del lap
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1e6  # a kept W alone would be 8.4 MB
    assert not any(isinstance(v, np.ndarray) and v.shape == (n, n) for v in vars(g).values())


def test_laplacian_row_sums_zero():
    g = gf.generate("random_geometric", 25, seed=3)
    l_matrix = gf.laplacian(g)
    np.testing.assert_allclose(l_matrix.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(l_matrix, l_matrix.T, atol=0)


def test_dirichlet_path3_frozen(path3):
    # f = (0, 1, 2): both unit edges contribute 1.
    f = np.array([0.0, 1.0, 2.0])
    assert f @ gf.laplacian(path3) @ f == pytest.approx(2.0, abs=1e-12)


def test_dirichlet_ring4_frozen(ring4):
    # Alternating +-1/2 signal: four edges, each difference 1, energy 4.
    f = np.array([0.5, -0.5, 0.5, -0.5])
    assert f @ gf.laplacian(ring4) @ f == pytest.approx(4.0, abs=1e-12)


def test_dirichlet_matches_double_sum_oracle():
    rng = np.random.default_rng(11)
    for seed in range(5):
        g = gf.generate("random_geometric", 15, seed=seed)
        f = rng.standard_normal(g.n)
        expected = dirichlet_double_sum(g, f)
        got = f @ gf.laplacian(g) @ f
        assert got == pytest.approx(expected, rel=1e-10)


def test_dirichlet_constant_is_zero():
    g = gf.generate("ring", 7)
    f = np.full(7, 3.3)
    assert f @ gf.laplacian(g) @ f == pytest.approx(0.0, abs=1e-12)


def test_check_laplacian_accepts_valid():
    g = gf.generate("grid", 9)
    report = gf.check_laplacian(gf.laplacian(g))
    assert all(v <= 1e-10 for v in report.values())


def test_check_laplacian_rejects_asymmetric():
    bad = np.array([[1.0, -1.0], [0.0, 1.0]])
    with pytest.raises(NumericalError):
        gf.check_laplacian(bad)


def test_check_laplacian_rejects_positive_offdiag():
    bad = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NumericalError):
        gf.check_laplacian(bad)


def test_check_laplacian_rejects_nonzero_rowsum():
    bad = np.array([[2.0, -1.0], [-1.0, 2.0]])
    with pytest.raises(NumericalError):
        gf.check_laplacian(bad)


def test_check_laplacian_holds_small_weights_to_the_relative_bound():
    # The gates scale with max |L| and have no floor of 1: with one, this
    # matrix passed with row sum 6e-12, a positive off-diagonal entry 5e-12
    # and lambda_min -3.2e-12.
    ring = gf.laplacian(gf.generate("ring", 8))
    bad = 1e-12 * ring
    bad[0, 1] = bad[1, 0] = 5e-12
    with pytest.raises(NumericalError):
        gf.check_laplacian(bad)
    for c in (1e-12, 1e-300):
        report = gf.check_laplacian(c * ring)
        assert report["asymmetry"] == report["row_sum"] == report["positive_offdiag"] == 0.0


def test_check_laplacian_rejects_an_empty_matrix():
    # It used to escape as numpy's IndexError from eigvalsh()[0].
    with pytest.raises(InputError, match="empty"):
        gf.check_laplacian(np.zeros((0, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_laplacian_rejects_non_finite(bad):
    # A nan diagonal entry used to escape as numpy's LinAlgError from eigvalsh.
    l_matrix = gf.laplacian(gf.generate("ring", 8)).copy()
    l_matrix[0, 0] = bad
    with pytest.raises(InputError, match="non-finite"):
        gf.check_laplacian(l_matrix)


# -- Graph construction contracts ------------------------------------------


def test_graph_rejects_self_loop():
    with pytest.raises(InputError):
        gf.Graph(3, ((0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)))


def test_graph_rejects_nonpositive_weight():
    with pytest.raises(InputError):
        gf.Graph(2, ((0, 1, 0.0),))
    with pytest.raises(InputError):
        gf.Graph(2, ((0, 1, -2.0),))


def test_graph_rejects_out_of_range_vertex():
    with pytest.raises(InputError):
        gf.Graph(2, ((0, 2, 1.0),))


def test_graph_rejects_disconnected():
    with pytest.raises(InputError):
        gf.Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))


def test_graph_rejects_duplicate_edge():
    with pytest.raises(InputError):
        gf.Graph(2, ((0, 1, 1.0), (1, 0, 2.0)))


def test_graph_rejects_a_degree_past_the_float_range():
    # Each weight is finite, but vertex 1's two sum to inf, which would put
    # an inf on the Laplacian's diagonal.
    with pytest.raises(InputError, match="vertex 1 has a non-finite degree"):
        gf.Graph(3, ((0, 1, 1e308), (1, 2, 1e308)))
    with pytest.raises(InputError, match="vertex 1 has a non-finite degree"):
        gf.Graph.from_arrays(3, np.array([0, 1]), np.array([1, 2]), np.array([1e308, 1e308]))
    assert gf.laplacian(gf.Graph(3, ((0, 1, 1e308), (1, 2, 1.0)))).diagonal()[1] == 1e308


def _reference_edges(n: int, edges) -> tuple:
    """The per-edge validation Graph ran before its edges became arrays:
    the normalized edge tuple, or the InputError it raised."""
    norm, seen = [], set()
    for e in edges:
        if len(e) != 3:
            raise InputError(f"edge must be (i, j, w), got {e!r}")
        i, j, w = int(e[0]), int(e[1]), float(e[2])
        if i == j:
            raise InputError(f"self-loop at vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"edge ({i}, {j}) has a vertex index out of range for n={n}")
        if not (math.isfinite(w) and w > 0):
            raise InputError(f"edge ({i}, {j}) has non-positive or non-finite weight {w}")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise InputError(f"duplicate edge ({i}, {j})")
        seen.add((i, j))
        norm.append((i, j, w))
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j, _ in norm:
        parent[find(i)] = find(j)
    if len({find(i) for i in range(n)}) > 1:
        raise InputError("graph is disconnected")
    return tuple(norm)


def _reference_message(n: int, edges) -> str:
    with pytest.raises(InputError) as ref:
        _reference_edges(n, edges)
    return str(ref.value)


@pytest.mark.parametrize("n, seed", [(64, 1), (64, 2), (300, 1), (300, 2)])
def test_graph_matches_loop_reference_validation(n, seed):
    g = gf.generate("random_geometric", n, seed=seed)
    assert g.edges == _reference_edges(n, g.edges)
    # Input order is kept and each edge is flipped to i < j.
    flipped = tuple((j, i, w) if k % 3 == 0 else (i, j, w) for k, (i, j, w) in enumerate(reversed(g.edges)))
    assert gf.Graph(n, flipped).edges == _reference_edges(n, flipped)
    h = gf.Graph.from_arrays(n, g.hi, g.lo, g.w)
    assert h.edges == g.edges
    assert all(a.dtype == np.int64 for a in (h.lo, h.hi)) and h.w.dtype == np.float64


@pytest.mark.parametrize(
    "n, edges",
    [
        (3, ((0, 1, 1.0), (2, 2, 1.0), (0, 5, 1.0))),  # self-loop before out of range
        (3, ((0, 5, 1.0), (2, 2, 1.0))),  # out of range before self-loop
        (3, ((3, 3, 1.0), (0, 1, -1.0))),  # one edge, two faults: self-loop is checked first
        (3, ((0, 1, 1.0), (1, 0, 2.0), (1, 2, float("nan")))),  # duplicate before bad weight
        (3, ((0, 1, 1.0), (1, 2, float("inf")), (1, 0, 2.0))),  # bad weight before duplicate
        (3, ((0, 1, 0.0), (0, 1, 1.0), (0, 9, 1.0))),  # zero weight first
        (3, ((0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0), (1, 2, 1.0))),  # first repeat named
        (3, ((0, 0, 1.0), (1, 2))),  # self-loop before a malformed edge
        (3, ((0, 1, 1.0), (1, 2), (0, 0, 1.0))),  # malformed edge before a self-loop
        (4, ((0, 1, 1.0), (2, 3, 1.0))),  # disconnected
        (3, ()),  # no edges
    ],
)
def test_graph_reports_first_offending_edge(n, edges):
    expected = _reference_message(n, edges)
    with pytest.raises(InputError) as got:
        gf.Graph(n, edges)
    assert str(got.value) == expected
    if all(len(e) == 3 for e in edges) and edges:
        i, j, w = np.array(edges).T
        with pytest.raises(InputError) as got_arrays:
            gf.Graph.from_arrays(n, i.astype(int), j.astype(int), w)
        assert str(got_arrays.value) == expected


@pytest.mark.parametrize(
    "edges",
    [
        ((0.7, 1, 1.0), (1, 2.9, 1.0)),
        ((0, 1, 1.0), (1, float("nan"), 1.0)),
        ((0, 1, 1.0), (float("inf"), 2, 1.0)),
    ],
)
def test_graph_rejects_non_integer_vertex_index(edges):
    # int() used to truncate (0.7, 1) to the edge (0, 1).
    with pytest.raises(InputError, match="non-integer vertex index"):
        gf.Graph(3, edges)
    with pytest.raises(InputError, match="non-integer vertex index"):
        gf.Graph.from_arrays(3, [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges])


@pytest.mark.parametrize(
    "edges, k",
    [
        (((True, 2, 1.0), (0, 1, 1.0)), 0),
        (((0, 1, 1.0), (1, np.True_, 1.0)), 1),
        (((0, 1, 1.0), (1, 2, 1.0), (False, 2, 1.0)), 2),
    ],
)
def test_graph_rejects_bool_vertex_index(edges, k):
    # A bool used to pass as an integer: (True, 2) was read as the edge (1, 2).
    with pytest.raises(InputError, match=f"edge {k} has a bool as a vertex index"):
        gf.Graph(3, edges)
    with pytest.raises(InputError, match=f"edge {k} has a bool as a vertex index"):
        gf.Graph.from_arrays(3, [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges])


def test_graph_from_arrays_rejects_bool_column():
    with pytest.raises(InputError, match="edge 0 has a bool as a vertex index"):
        gf.Graph.from_arrays(3, np.array([True, False]), np.array([2, 1]), np.ones(2))
    with pytest.raises(InputError, match="edge 0 has a bool as a vertex index"):
        gf.Graph.from_arrays(3, np.array([0, 1]), np.array([True, True]), np.ones(2))


@pytest.mark.parametrize(
    "column",
    [np.array(["0", "1"]), np.array([0, 1]) + 0j, np.array([0, 1], dtype=object)],
    ids=["text", "complex", "object"],
)
def test_graph_from_arrays_refuses_an_index_column_that_is_not_numeric(column):
    # np.isfinite or np.floor used to raise a TypeError on these.
    with pytest.raises(InputError, match="non-integer vertex index"):
        gf.Graph.from_arrays(3, column, [1, 2], [1.0, 1.0])
    with pytest.raises(InputError, match="non-integer vertex index"):
        gf.Graph.from_arrays(3, [1, 2], column, [1.0, 1.0])


@pytest.mark.parametrize("w", [np.complex128(1.0 + 1.0j), 10**400], ids=["complex", "int-past-float-range"])
def test_graph_refuses_an_edge_weight_that_is_not_a_float(w):
    # A numpy complex weight used to lose its imaginary part, and an int
    # past the float range escaped as an OverflowError.
    with pytest.raises(InputError, match=r"edge must be \(i, j, w\), got \(0, 1, "):
        gf.Graph(3, [(0, 1, w), (1, 2, 1.0)])


def test_graph_bool_index_reported_in_input_order():
    # A bad weight on an earlier edge is still the first offence.
    with pytest.raises(InputError, match="non-positive or non-finite weight"):
        gf.Graph(3, ((0, 1, -1.0), (True, 2, 1.0)))
    with pytest.raises(InputError, match="self-loop"):
        gf.Graph.from_arrays(3, [1, True], [1, 2], [1.0, 1.0])


def test_graph_accepts_integer_and_integral_float_indices():
    g = gf.Graph(3, ((0, 1, 1.0), (np.int64(1), 2.0, 1.0)))
    h = gf.Graph.from_arrays(3, np.array([0, 1], dtype=np.uint8), [1.0, 2.0], [1.0, 1.0])
    assert g.edges == h.edges == ((0, 1, 1.0), (1, 2, 1.0))


@pytest.mark.parametrize(
    "n, message",
    [(True, "an integer"), (np.True_, "an integer"), (3.0, "an integer"), ("3", "an integer"), (0, "a positive integer")],
)
def test_graph_rejects_non_integer_vertex_count(n, message):
    # Graph(True, []) used to build a graph whose n was the bool True.
    with pytest.raises(InputError, match=f"vertex count must be {message}"):
        gf.Graph(n, [])
    with pytest.raises(InputError, match=f"vertex count must be {message}"):
        gf.Graph.from_arrays(n, [], [], [])


def test_graph_accepts_numpy_integer_vertex_count():
    assert gf.Graph(np.int64(1), []).n == 1
    assert gf.Graph.from_arrays(np.uint8(2), [0], [1], [1.0]).n == 2


def test_graph_from_arrays_rejects_mismatched_columns():
    with pytest.raises(InputError, match="equal length"):
        gf.Graph.from_arrays(3, [0, 1], [1, 2], [1.0])
    with pytest.raises(InputError, match="equal length"):
        gf.Graph.from_arrays(3, [[0, 1]], [[1, 2]], [[1.0, 1.0]])


def test_graph_accepts_integral_float_indices():
    g = gf.Graph(3, ((0.0, 1.0, 1.0), (2.0, 1.0, 0.5)))
    assert g.edges == ((0, 1, 1.0), (1, 2, 0.5))
    assert type(g.edges[0][0]) is int


def test_graph_is_immutable():
    g = gf.Graph(3, ((0, 1, 2.0), (1, 2, 0.5)))
    with pytest.raises(AttributeError):
        g.n = 4
    with pytest.raises(ValueError):
        g.w[0] = 3.0
    assert g.edges == ((0, 1, 2.0), (1, 2, 0.5))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_graph_rejects_non_finite_coords(bad):
    edges = [(0, 1, 1.0), (1, 2, 1.0)]
    coords = [[0.0, 0.0], [1.0, bad], [2.0, 0.0]]
    with pytest.raises(InputError, match="coords have a non-finite entry"):
        gf.Graph(3, edges, coords=coords)
    with pytest.raises(InputError, match="coords have a non-finite entry"):
        gf.Graph.from_arrays(3, [0, 1], [1, 2], [1.0, 1.0], coords)


@pytest.mark.parametrize("shape", [(3, 3), (2, 2), (6,)])
def test_graph_refuses_coords_of_the_wrong_shape(shape):
    with pytest.raises(InputError, match=r"coords must have shape \(3, 2\)"):
        gf.Graph(3, [(0, 1, 1.0), (1, 2, 1.0)], coords=np.zeros(shape))


def test_graph_coords_are_read_only():
    g = gf.generate("ring", 5)
    with pytest.raises(ValueError):
        g.coords[0, 0] = 5.0


def test_graph_coords_are_a_copy_of_the_array_given():
    coords = np.zeros((3, 2))
    g = gf.Graph(3, ((0, 1, 1.0), (1, 2, 1.0)), coords=coords)
    coords[0, 0] = 5.0
    assert g.coords[0, 0] == 0.0
    assert coords.flags.writeable


# -- Generators --------------------------------------------------------------


def test_generate_ring_structure():
    g = gf.generate("ring", 5)
    assert g.n == 5
    assert len(g.edges) == 5
    assert g.coords is not None and g.coords.shape == (5, 2)


def test_generate_path_structure():
    g = gf.generate("path", 5)
    assert len(g.edges) == 4


def test_generate_grid_structure():
    g = gf.generate("grid", 12)
    # 3 rows of 4: inner grid edges only.
    assert g.n == 12
    assert g.coords.shape == (12, 2)
    assert len(g.edges) == 3 * 3 + 2 * 4


def test_generate_complete_edge_count():
    g = gf.generate("complete", 6)
    assert len(g.edges) == 15


def test_generate_random_geometric_deterministic():
    a = gf.generate("random_geometric", 20, seed=4)
    b = gf.generate("random_geometric", 20, seed=4)
    assert a.edges == b.edges
    np.testing.assert_array_equal(a.coords, b.coords)
    c = gf.generate("random_geometric", 20, seed=5)
    assert a.edges != c.edges or not np.array_equal(a.coords, c.coords)


def test_generate_random_geometric_connected_weights():
    g = gf.generate("random_geometric", 40, seed=9)
    assert all(w > 0 for _, _, w in g.edges)
    assert all(w <= 1.0 + 1e-12 for _, _, w in g.edges)


def test_generate_rejects_unknown_kind():
    with pytest.raises(InputError):
        gf.generate("torus", 10)


def test_generate_rejects_tiny_ring():
    with pytest.raises(InputError):
        gf.generate("ring", 2)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"radius": "0.3"}, "radius"),
        ({"radius": True}, "radius"),
        ({"radius": None}, "radius"),
        ({"seed": "x"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": np.False_}, "seed"),
    ],
)
def test_generate_rejects_bad_random_geometric_arguments(kwargs, match):
    # InputError, not TypeError or ValueError; radius=True is not read as 1.0.
    with pytest.raises(InputError, match=match):
        gf.generate("random_geometric", 10, **kwargs)


def test_generate_rejects_a_radius_too_large_for_a_float():
    # InputError, not OverflowError.
    with pytest.raises(InputError, match="radius is too large for a float"):
        gf.generate("random_geometric", 8, radius=10**400)


@pytest.mark.parametrize("radius", [0.0, -0.5, 1.5])
def test_generate_refuses_a_radius_outside_its_range(radius):
    with pytest.raises(InputError, match=r"radius must lie in \(0, sqrt\(2\)\]"):
        gf.generate("random_geometric", 8, radius=radius)


@pytest.mark.parametrize("kind", ["path", "complete", "grid", "random_geometric"])
def test_generate_refuses_fewer_than_two_vertices(kind):
    with pytest.raises(InputError, match="needs n >= 2, got 1"):
        gf.generate(kind, 1)


@pytest.mark.parametrize("kind", ["ring", "path", "complete", "grid"])
@pytest.mark.parametrize("seed", [True, np.False_], ids=repr)
def test_generate_refuses_a_bool_seed_for_every_kind(kind, seed):
    # Only random_geometric used to read its seed; the other kinds took a bool.
    with pytest.raises(InputError, match="a bool is not a seed"):
        gf.generate(kind, 5, seed=seed)


@pytest.mark.parametrize("kind", [["ring"], {"ring"}], ids=repr)
def test_generate_refuses_a_kind_that_is_not_a_name(kind):
    # An unhashable kind used to raise a TypeError.
    with pytest.raises(InputError, match="unknown graph kind"):
        gf.generate(kind, 5)


@pytest.mark.parametrize("kind", ["ring", "path", "complete", "grid", "random_geometric"])
@pytest.mark.parametrize(
    "n, match",
    [
        (8.0, "vertex count must be an integer"),
        (10.0, "vertex count must be an integer"),
        (np.float64(10), "vertex count must be an integer"),
        (True, "vertex count must be an integer"),
        ("10", "vertex count must be an integer"),
        (None, "vertex count must be an integer"),
        (2**31, "too large"),
        (2**70, "too large"),
        (np.int64(2**40), "too large"),
    ],
)
def test_generate_rejects_bad_vertex_count(kind, n, match):
    # InputError before anything is allocated, not TypeError, ValueError or
    # MemoryError; True is not read as 1.
    with pytest.raises(InputError, match=match):
        gf.generate(kind, n)


def test_unaddressable_vertex_count_bound():
    # 2**30 is the first n whose n x n float64 array needs more bytes than an
    # intp can count.  Random geometric is the kind asked for it: were the
    # bound lost, its first allocation (16 GB of points) would fail at once.
    first = 2**30
    assert (first - 1) ** 2 * 8 <= np.iinfo(np.intp).max < first**2 * 8
    with pytest.raises(InputError, match="too large"):
        gf.generate("random_geometric", first)


def _dense_random_geometric(n: int, seed: int, radius: float) -> tuple:
    """The generator as it was before the row-blocked scan: the full n x n
    distance matrix.  Returns (lo, hi, w, coords, final radius)."""
    pts = np.random.default_rng(seed).random((n, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    r = radius
    for _ in range(64):
        ii, jj = np.nonzero(np.triu(d <= r, k=1))
        if len(ii) and not _components(n, ii, jj).any():
            sigma = r / 2.0
            w = np.exp(-(d[ii, jj] ** 2) / (2.0 * sigma**2))
            return ii, jj, w, pts, r
        r *= 1.25
    raise AssertionError("reference did not connect")


@pytest.mark.parametrize(
    "n, seed, radius",
    list(itertools.product([2, 5, 24, 192, 1024], [1, 77], [0.3, 0.05, 0.01]))
    + [(1024, 123, 0.3), (300, 9, 0.3), (129, 4, 0.3), (257, 3, 0.05)],
)
def test_random_geometric_matches_dense_reference(n, seed, radius):
    g = gf.generate("random_geometric", n, seed=seed, radius=radius)
    lo, hi, w, coords, r = _dense_random_geometric(n, seed, radius)
    assert np.array_equal(g.lo, lo) and np.array_equal(g.hi, hi)
    assert np.array_equal(g.w, w) and np.array_equal(g.coords, coords)
    if radius == 0.01:
        assert r > radius  # these cases take the radius growth path


def test_generate_random_geometric_memory_scales_with_edges():
    # The dense generator peaked at 48.7 MB here: an n x n x 2 difference
    # array and an n x n distance matrix.
    tracemalloc.start()
    try:
        gf.generate("random_geometric", 1024, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


# -- Edge list file format ----------------------------------------------------


def test_parse_format_round_trip():
    g = gf.Graph(4, ((0, 1, 1.5), (1, 2, 1.0), (2, 3, 1.0 / 3.0)))
    text = gf.format_graph(g)
    g2, signal = gf.parse_graph(text)
    assert signal is None
    assert g2.n == g.n
    assert g2.edges == g.edges


def test_format_graph_leaves_no_edge_tuples():
    # format_graph reads the edge arrays; the tuple view stays unbuilt.
    g = gf.generate("random_geometric", 30, seed=2)
    text = gf.format_graph(g)
    assert "edges" not in vars(g)
    assert text == "".join(f"{i} {j} {w:.17g}\n" for i, j, w in g.edges)


def test_parse_graph_with_signal_block():
    text = "0 1 1.0\n1 2 2.0\n%signal\n0 0.5\n1 -1.5\n2 2.5\n"
    g, signal = gf.parse_graph(text)
    assert g.n == 3
    np.testing.assert_allclose(signal, [0.5, -1.5, 2.5])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_graph_rejects_non_finite_signal(value):
    text = f"0 1 1.0\n1 2 2.0\n%signal\n0 0.5\n1 {value}\n"
    with pytest.raises(InputError, match="line 5: signal value .* is not finite"):
        gf.parse_graph(text)


def test_format_graph_with_signal_round_trip():
    g = gf.Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    sig = np.array([0.1, 0.2, 0.3])
    g2, sig2 = gf.parse_graph(gf.format_graph(g, sig))
    np.testing.assert_array_equal(sig2, sig)
    assert g2.edges == g.edges


def test_parse_graph_ignores_comments_and_merges_duplicates():
    text = "# a comment\n0 1 1.0\n# another\n1 0 1.0\n1 2 1.0\n"
    g, _ = gf.parse_graph(text)
    assert len(g.edges) == 2


def test_parse_graph_rejects_conflicting_duplicate():
    text = "0 1 1.0\n1 0 2.0\n1 2 1.0\n"
    with pytest.raises(InputError):
        gf.parse_graph(text)


def test_parse_graph_default_weight_is_one():
    g, _ = gf.parse_graph("0 1\n1 2\n")
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))


def test_parse_graph_rejects_malformed_line():
    with pytest.raises(InputError):
        gf.parse_graph("0\n")
    with pytest.raises(InputError):
        gf.parse_graph("0 one 1.0\n")
    with pytest.raises(InputError):
        gf.parse_graph("0 1 2 3\n")


def test_parse_graph_rejects_empty():
    with pytest.raises(InputError):
        gf.parse_graph("")


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n%signal\n0 1.0\n%signal\n1 2.0\n", "line 4: repeated %signal block"),
        ("0 1\n%signal\n0 1.0 2.0\n", "line 3: cannot parse"),
        ("0 1\n%signal\n0\n", "line 3: cannot parse"),
        ("0 1\n%signal\n2 1.0\n", "signal index 2 out of range for n=2"),
        ("0 1\n%signal\n-1 1.0\n", "signal index -1 out of range for n=2"),
    ],
)
def test_parse_graph_refuses_a_malformed_signal_block(text, message):
    with pytest.raises(InputError, match=message):
        gf.parse_graph(text)


@pytest.mark.parametrize("text, message", [
    ("0 1\n2 2\n", "self-loop at vertex 2"),
    ("0 1\n1 -3 2\n", r"edge \(-3, 1\) has a vertex index out of range for n=2"),
    ("-1 -2\n", r"edge \(-2, -1\) has a vertex index out of range for n=1"),
])
def test_parse_graph_leaves_loops_and_negative_indices_to_graph(text, message):
    with pytest.raises(InputError, match=message):
        gf.parse_graph(text)


def test_read_write_graph_file(tmp_path):
    g = gf.generate("random_geometric", 12, seed=2)
    path = tmp_path / "g.txt"
    gf.write_graph_file(str(path), g)
    g2, _ = gf.read_graph_file(str(path))
    assert g2.n == g.n
    for (i, j, w), (i2, j2, w2) in zip(g.edges, g2.edges):
        assert (i, j) == (i2, j2)
        assert w == pytest.approx(w2, rel=0, abs=0)  # %.17g round-trips exactly


def test_as_signal_validates_length():
    with pytest.raises(InputError):
        as_signal([1.0, 2.0], 3)
    out = as_signal([1, 2, 3], 3)
    assert out.dtype == float


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_as_signal_rejects_non_finite(value):
    with pytest.raises(InputError, match="non-finite"):
        as_signal([1.0, value, 3.0], 3)



# -- The real-number rule at every array argument -----------------------------


class _Ctx(NamedTuple):
    p: gf.Pyramid
    level: gf.FilterLevel
    lap: np.ndarray
    f: np.ndarray
    tree: gf.CoefficientTree


@pytest.fixture(scope="module")
def ctx() -> _Ctx:
    p = gf.build_pyramid(gf.generate("ring", 8), 2)
    f = np.linspace(-1.0, 1.0, 8)
    return _Ctx(p, p.levels[0], gf.laplacian(p.levels[0].graph), f, gf.pyramid_analyze(p, f))


# Each public entry that reads arrays, with ``bad`` applied to one array
# argument and every other argument valid.
_ENTRIES = {
    "analyze": lambda c, bad: gf.analyze(c.level, bad(c.f)),
    "synthesize": lambda c, bad: gf.synthesize(c.level, bad(np.ones(4)), np.ones(4)),
    "pyramid_analyze": lambda c, bad: gf.pyramid_analyze(c.p, bad(c.f)),
    "pyramid_synthesize": lambda c, bad: gf.pyramid_synthesize(
        c.p, gf.CoefficientTree(bad(c.tree.lows), c.tree.highs)
    ),
    "compute_basis": lambda c, bad: gf.compute_basis(bad(c.lap), c.level.pattern),
    "kron_reduce": lambda c, bad: gf.kron_reduce(bad(c.lap), c.level.pattern.keep_low),
    "graph_from_laplacian": lambda c, bad: gf.graph_from_laplacian(bad(c.lap)),
    "greedy_max_cut": lambda c, bad: gf.greedy_max_cut(bad(c.lap)),
    "check_laplacian": lambda c, bad: gf.check_laplacian(bad(c.lap)),
    "QecqpProblem": lambda c, bad: gf.QecqpProblem(bad(c.lap), np.diag(np.repeat([2.0, 0.0], 4))),
    "Graph(coords=)": lambda c, bad: gf.Graph(8, c.level.graph.edges, bad(c.level.graph.coords)),
    "Graph.from_arrays": lambda c, bad: gf.Graph.from_arrays(8, c.level.graph.lo, c.level.graph.hi, bad(c.level.graph.w)),
    "design_minimax": lambda c, bad: gf.design_minimax(c.level.basis.phi, bad(gf.ideal_half_band(8))),
    "quartet": lambda c, bad: gf.quartet(bad(gf.design_from_hstar(c.level.basis.phi, 1.5)), c.level.basis.phi),
    "classify_subspace": lambda c, bad: gf.classify_subspace(bad(c.level.basis.u[:, :2]), c.level.pattern.sign),
    "format_graph(signal=)": lambda c, bad: gf.format_graph(c.level.graph, signal=bad(c.f)),
}
_NOT_REAL = {
    # The imaginary part used to be dropped with nothing but a ComplexWarning.
    "complex": lambda a: np.asarray(a) + 0.5j,
    # Numeric text used to be read as numbers.
    "text": lambda a: np.asarray(a).astype(str),
    # Cut short at the end, so numpy cannot make an array of it.
    "ragged": lambda a: [*np.asarray(a).tolist()[:-1], [0.0]],
}


def _complex_high(tree: gf.CoefficientTree) -> gf.CoefficientTree:
    return gf.CoefficientTree(tree.lows, (tree.highs[0] + 0.5j, *tree.highs[1:]))


@pytest.mark.parametrize(
    "call, match",
    [
        *(
            pytest.param(lambda c, e=entry, bad=bad: e(c, bad), "must hold real numbers", id=f"{name}-{kind}")
            for name, entry in _ENTRIES.items()
            for kind, bad in _NOT_REAL.items()
        ),
        # A complex channel used to raise numpy's TypeError.
        pytest.param(lambda c: gf.threshold_highpass(_complex_high(c.tree), 0.1), "must hold real numbers",
                     id="threshold_highpass-complex"),
        pytest.param(lambda c: gf.keep_top_k(_complex_high(c.tree), 8), "must hold real numbers",
                     id="keep_top_k-complex"),
        # int() used to truncate perm [1.7, 0.2] to [1, 0] and signs 1.9 to 1.
        pytest.param(lambda c: gf.SignedPermutation([1.7, 0.2], [1, 1]), "perm must be a 1-d sequence of integers",
                     id="SignedPermutation-perm-1.7"),
        pytest.param(lambda c: gf.SignedPermutation([1, 0], [1.9, 1.9]), r"signs must be \+-1",
                     id="SignedPermutation-signs-1.9"),
        pytest.param(lambda c: gf.SignedPermutation(["1", "0"], [1, 1]), "perm must be a 1-d sequence of integers",
                     id="SignedPermutation-perm-text"),
        pytest.param(lambda c: gf.SignedPermutation([1, 0], ["1", "1"]), "signs must hold real numbers",
                     id="SignedPermutation-signs-text"),
    ],
)
def test_every_array_argument_must_hold_real_numbers(ctx, call, match):
    with pytest.raises(InputError, match=match):
        call(ctx)
