"""Graph container, Laplacian, Dirichlet energy, generators, and file format."""

from __future__ import annotations

import math

import numpy as np
import pytest

import graphfb as gf
from graphfb.errors import InputError, NumericalError
from graphfb.graphs import as_signal
from conftest import dirichlet_double_sum

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


def test_laplacian_row_sums_zero():
    g = gf.generate("random_geometric", 25, seed=3)
    l_matrix = gf.laplacian(g)
    np.testing.assert_allclose(l_matrix.sum(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(l_matrix, l_matrix.T, atol=0)


def test_dirichlet_path3_frozen(path3):
    # f = (0, 1, 2): both unit edges contribute 1.
    assert gf.dirichlet_energy(gf.laplacian(path3), np.array([0.0, 1.0, 2.0])) == pytest.approx(2.0, abs=1e-12)


def test_dirichlet_ring4_frozen(ring4):
    # Alternating +-1/2 signal: four edges, each difference 1, energy 4.
    f = np.array([0.5, -0.5, 0.5, -0.5])
    assert gf.dirichlet_energy(gf.laplacian(ring4), f) == pytest.approx(4.0, abs=1e-12)


def test_dirichlet_matches_double_sum_oracle():
    rng = np.random.default_rng(11)
    for seed in range(5):
        g = gf.generate("random_geometric", 15, seed=seed)
        f = rng.standard_normal(g.n)
        expected = dirichlet_double_sum(g, f)
        got = gf.dirichlet_energy(gf.laplacian(g), f)
        assert got == pytest.approx(expected, rel=1e-10)


def test_dirichlet_constant_is_zero():
    g = gf.generate("ring", 7)
    assert gf.dirichlet_energy(gf.laplacian(g), np.full(7, 3.3)) == pytest.approx(0.0, abs=1e-12)


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


def test_weight_matrix_symmetric():
    g = gf.Graph(3, ((0, 1, 2.0), (1, 2, 0.5)))
    w = g.weight_matrix
    assert w[0, 1] == w[1, 0] == 2.0
    assert w[1, 2] == w[2, 1] == 0.5
    assert w[0, 2] == 0.0


def test_degrees():
    g = gf.Graph(3, ((0, 1, 2.0), (1, 2, 0.5)))
    np.testing.assert_allclose(g.degrees, [2.0, 2.5, 0.5])


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


# -- Edge list file format ----------------------------------------------------


def test_parse_format_round_trip():
    g = gf.Graph(4, ((0, 1, 1.5), (1, 2, 1.0), (2, 3, 1.0 / 3.0)))
    text = gf.format_graph(g)
    g2, signal = gf.parse_graph(text)
    assert signal is None
    assert g2.n == g.n
    assert g2.edges == g.edges


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
