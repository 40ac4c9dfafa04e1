"""Kron reduction, spectral sparsification, pyramids, and persistence.

Kron oracles:

  Star elimination. Removing the center of a star with leaf weights w_i
  produces the complete graph on the leaves with w_ij = w_i w_j / sum(w).
  (Classical star-mesh transform; follows from the rank-1 Schur update.)

  Single-vertex elimination. L' = L_kk - L_ke L_ek / L_ee, a rank-1 update.

  3-path keeping the endpoints: two unit resistors in series make weight 1/2.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct

import numpy as np
import pytest

import graphfb as gf
from graphfb import fourier, multires, sampling
from graphfb.errors import InputError, NumericalError
from conftest import phi_matrix, random_connected_graph, splice_level1


# -- Kron reduction ------------------------------------------------------------


def test_kron_path3_series_resistors(path3):
    reduced = multires.kron_reduce(gf.laplacian(path3), keep=[0, 2])
    expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
    np.testing.assert_allclose(reduced, expected, atol=1e-12)


def test_kron_star_mesh_oracle():
    # Star center 0, leaves 1..4 with weights 1, 2, 3, 4.
    w = np.array([1.0, 2.0, 3.0, 4.0])
    edges = tuple((0, i + 1, float(w[i])) for i in range(4))
    g = gf.Graph(5, edges)
    reduced = multires.kron_reduce(gf.laplacian(g), keep=[1, 2, 3, 4])
    # Laplacian of the complete graph with w_ij = w_i w_j / total:
    adj = np.outer(w, w) / w.sum()
    np.fill_diagonal(adj, 0.0)
    lap = np.diag(adj.sum(axis=1)) - adj
    np.testing.assert_allclose(reduced, lap, atol=1e-12)


def test_kron_single_elimination_rank1():
    g = random_connected_graph(12, seed=5)
    l_matrix = gf.laplacian(g)
    v = 7
    keep = [i for i in range(12) if i != v]
    reduced = multires.kron_reduce(l_matrix, keep)
    lkk = l_matrix[np.ix_(keep, keep)]
    lkv = l_matrix[keep, v]
    expected = lkk - np.outer(lkv, lkv) / l_matrix[v, v]
    np.testing.assert_allclose(reduced, expected, atol=1e-12)


def test_kron_result_is_laplacian():
    g = random_connected_graph(20, seed=1)
    pat = sampling.greedy_max_cut(gf.laplacian(g))
    reduced = multires.kron_reduce(gf.laplacian(g), pat.keep_low)
    report = gf.check_laplacian(reduced)
    assert all(v <= 1e-8 for v in report.values())


def test_kron_raises_algebraic_connectivity():
    # Coarsening never loosens the spectral gap.
    for seed in range(20):
        g = random_connected_graph(15, seed=seed)
        l_matrix = gf.laplacian(g)
        pat = sampling.greedy_max_cut(l_matrix)
        reduced = multires.kron_reduce(l_matrix, pat.keep_low)
        gap = np.linalg.eigvalsh(l_matrix)[1]
        gap_reduced = np.linalg.eigvalsh(reduced)[1]
        assert gap_reduced >= gap - 1e-10


def test_kron_rejects_bad_keep():
    l_matrix = gf.laplacian(gf.generate("ring", 5))
    with pytest.raises(InputError, match="non-empty proper subset"):
        multires.kron_reduce(l_matrix, [])
    with pytest.raises(InputError, match="non-empty proper subset"):
        multires.kron_reduce(l_matrix, list(range(5)))
    with pytest.raises(InputError, match="out of range"):
        multires.kron_reduce(l_matrix, [0, 9])
    with pytest.raises(InputError, match="out of range"):
        multires.kron_reduce(l_matrix, [-1, 2])
    with pytest.raises(InputError, match="duplicates"):
        multires.kron_reduce(l_matrix, [0, 0, 1])


@pytest.mark.parametrize(
    "keep", [[0.5, 2, 4], [0.0, 2.0], [True, 2], [2, np.True_], np.array([True, False, True]), [[0, 1]], ["0"]]
)
def test_kron_rejects_non_integer_keep(keep):
    # [0.5, 2, 4] used to reduce onto vertices 0, 2, 4 and [True, 2] onto 1, 2.
    l_matrix = gf.laplacian(gf.generate("ring", 5))
    with pytest.raises(InputError, match="sequence of integers"):
        multires.kron_reduce(l_matrix, keep)


@pytest.mark.parametrize("keep", [(0, 2, 4), [4, 2, 0], np.array([4, 0, 2]), np.array([0, 2, 4], dtype=np.uint8)])
def test_kron_accepts_integer_keep_in_any_order(keep):
    l_matrix = gf.laplacian(gf.generate("ring", 6))
    expected = multires.kron_reduce(l_matrix, [0, 2, 4])
    assert np.array_equal(multires.kron_reduce(l_matrix, keep), expected)


def test_graph_from_laplacian_round_trip():
    g = random_connected_graph(14, seed=3)
    g2 = multires.graph_from_laplacian(gf.laplacian(g))
    assert g2.n == g.n
    for (i, j, w), (i2, j2, w2) in zip(g.edges, g2.edges):
        assert (i, j) == (i2, j2)
        assert w == pytest.approx(w2, rel=1e-12)


def test_graph_from_laplacian_drops_numerical_dust():
    l_matrix = gf.laplacian(gf.generate("ring", 6)).copy()
    l_matrix[0, 3] = l_matrix[3, 0] = -1e-15
    l_matrix[0, 0] += 1e-15
    l_matrix[3, 3] += 1e-15
    g = multires.graph_from_laplacian(l_matrix)
    assert (0, 3) not in {(i, j) for i, j, _ in g.edges}


def wide_path() -> gf.Graph:
    return gf.Graph(4, ((0, 1, 1e-20), (1, 2, 1e20), (2, 3, 1.0)))


def test_graph_from_laplacian_keeps_a_weak_edge_of_a_wide_weight_path():
    # Reduced onto {0, 1, 3}, the 1e-20 edge sits next to entries of size 1
    # and a cancelled L_11 = 0.  Measured against max |L| it was dropped as
    # dust and the coarse graph came out disconnected; against its own
    # endpoints it stays, and the pyramid builds.
    g = wide_path()
    h = multires.graph_from_laplacian(multires.kron_reduce(gf.laplacian(g), [0, 1, 3]))
    assert h.edges[0] == (0, 1, 1e-20)
    p = gf.build_pyramid(g, 2)
    assert [level.n for level in p.levels] == [4, 3]
    f = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.abs(gf.pyramid_synthesize(p, gf.pyramid_analyze(p, f)) - f).max() <= 1e-12


def test_graph_from_laplacian_refuses_a_positive_entry_past_its_own_bound():
    # A positive entry far below 1e-12 max |L| = 2e8, but above the bound of
    # its endpoints, 1e-12 sqrt(1e-20 * 1) = 1e-22, is refused, not dropped.
    l_matrix = gf.laplacian(wide_path()).copy()
    l_matrix[0, 3] = l_matrix[3, 0] = 1e-15
    with pytest.raises(NumericalError, match=r"positive off-diagonal entry 1.000e-15 at \(0, 3\)"):
        multires.graph_from_laplacian(l_matrix)


def test_graph_from_laplacian_rejects_invalid():
    with pytest.raises(NumericalError):
        multires.graph_from_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_graph_from_laplacian_rejects_non_finite(bad):
    # A nan edge used to be dropped silently (ring 4 came back with three
    # edges), and -inf made the tolerance infinite ("graph is disconnected").
    l_matrix = gf.laplacian(gf.generate("ring", 4)).copy()
    l_matrix[0, 1] = l_matrix[1, 0] = bad
    with pytest.raises(InputError, match="non-finite"):
        multires.graph_from_laplacian(l_matrix)


@pytest.mark.parametrize("shape", [(), (3,), (2, 3), (2, 2, 2)])
def test_graph_from_laplacian_and_kron_reject_non_square(shape):
    bad = np.ones(shape)
    with pytest.raises(InputError, match="must be square"):
        multires.graph_from_laplacian(bad)
    with pytest.raises(InputError, match="must be square"):
        multires.kron_reduce(bad, [0])


def _lu_schur_complement(l_matrix: np.ndarray, keep) -> np.ndarray:
    """L_kk - L_ke L_ee^-1 L_ke^T by an LU solve, symmetrized."""
    keep = np.asarray(keep)
    elim = np.setdiff1d(np.arange(len(l_matrix)), keep)
    lke = l_matrix[np.ix_(keep, elim)]
    reduced = l_matrix[np.ix_(keep, keep)] - lke @ np.linalg.solve(l_matrix[np.ix_(elim, elim)], lke.T)
    return 0.5 * (reduced + reduced.T)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 517])
def test_lower_inverse_matches_inv(n):
    # Sizes around the 64-row leaf and an odd split at 517.
    a = np.random.default_rng(n).standard_normal((n, n))
    g = np.linalg.cholesky(a @ a.T + n * np.eye(n))
    got = multires._lower_inverse(g)
    want = np.linalg.inv(g)
    assert not np.triu(got, 1).any()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize(
    "kind, n", [("random_geometric", 64), ("random_geometric", 300), ("random_geometric", 1024), ("grid", 256)]
)
def test_kron_matches_lu_schur_complement(kind, n):
    l_matrix = gf.laplacian(gf.generate(kind, n, seed=1))
    keep = sampling.greedy_max_cut(l_matrix).keep_low
    np.testing.assert_allclose(
        multires.kron_reduce(l_matrix, keep),
        _lu_schur_complement(l_matrix, keep),
        rtol=0,
        atol=1e-12 * np.abs(l_matrix).max(),
    )


def test_kron_rejects_an_indefinite_eliminated_block():
    l_matrix = np.array([[2.0, 1.0, 1.0], [1.0, -1.0, 0.0], [1.0, 0.0, 1.0]])
    with pytest.raises(NumericalError, match="eliminated block is not positive definite"):
        multires.kron_reduce(l_matrix, [0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kron_rejects_non_finite(bad):
    with pytest.raises(InputError, match="non-finite"):
        multires.kron_reduce(np.full((3, 3), bad), [0])
    l_matrix = gf.laplacian(gf.generate("path", 4)).copy()
    l_matrix[3, 3] = bad
    with pytest.raises(InputError, match="non-finite"):
        multires.kron_reduce(l_matrix, [0, 1])


# -- Sparsifier ------------------------------------------------------------------


def test_sparsify_returns_sparse_input_unchanged():
    # Trees and other graphs at or below the density gate pass through.
    g = gf.generate("path", 30)
    s = multires.sparsify(g, eps=0.3)
    assert s is g


def test_sparsify_gate_on_k30_at_eps_03():
    g = gf.generate("complete", 30)
    s = multires.sparsify(g, eps=0.3)
    assert s is g  # 435 edges is under the 2 n ln n / eps^2 gate


def test_sparsify_samples_k30_at_high_eps():
    g = gf.generate("complete", 30)
    s = multires.sparsify(g, eps=0.95, seed=0)
    assert s is not g
    assert len(s.edges) < len(g.edges)
    assert all(w > 0 for _, _, w in s.edges)
    # spectral sanity, loose: quadratic forms within a factor of 3
    l0, l1 = gf.laplacian(g), gf.laplacian(s)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.standard_normal(30)
        x -= x.mean()
        q0, q1 = x @ l0 @ x, x @ l1 @ x
        assert q1 <= 3.0 * q0 and q1 >= q0 / 3.0


def test_sparsify_deterministic():
    g = gf.generate("complete", 30)
    a = multires.sparsify(g, eps=0.95, seed=3)
    b = multires.sparsify(g, eps=0.95, seed=3)
    assert a.edges == b.edges
    c = multires.sparsify(g, eps=0.95, seed=4)
    assert a.edges != c.edges


def test_sparsify_preserves_total_weight_roughly():
    # Reweighting w_e / (q p_e) keeps each edge unbiased; the total weight
    # should land near the original.
    g = gf.generate("complete", 30)
    s = multires.sparsify(g, eps=0.95, seed=1)
    w0 = sum(w for _, _, w in g.edges)
    w1 = sum(w for _, _, w in s.edges)
    assert 0.5 * w0 <= w1 <= 1.5 * w0


# Effective-resistance oracles: on a tree each edge is the only path
# between its ends, so R_e = 1/w_e; on K_n, L^+ = (I - 11^T/n)/n gives
# R_e = 2/n; on the unit ring C_n an edge is one resistor in parallel with
# n - 1 in series, R_e = (n - 1)/n.


def _weighted_tree() -> gf.Graph:
    w = (0.5, 2.0, 3.0, 0.25, 7.0, 1.5)
    return gf.Graph(7, ((0, 1, w[0]), (0, 2, w[1]), (1, 3, w[2]), (1, 4, w[3]), (2, 5, w[4]), (5, 6, w[5])))


def test_effective_resistances_of_a_weighted_tree():
    g = _weighted_tree()
    np.testing.assert_allclose(multires._effective_resistances(g), 1.0 / g.w, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [3, 10, 40])
def test_effective_resistances_of_complete_and_ring(n):
    r = multires._effective_resistances(gf.generate("complete", n))
    np.testing.assert_allclose(r, np.full(n * (n - 1) // 2, 2.0 / n), rtol=1e-12, atol=0)
    r = multires._effective_resistances(gf.generate("ring", n))
    np.testing.assert_allclose(r, np.full(n, (n - 1) / n), rtol=1e-12, atol=0)


@pytest.mark.parametrize("c", [1e-20, 1e-14, 1e20])
@pytest.mark.parametrize("kind", ["complete", "ring", "tree"])
def test_resistances_and_level1_graph_do_not_depend_on_the_weight_scale(kind, c):
    # The shift (d_max/n) 11^T scales with L.  With a unit shift 11^T/n the
    # resistances of K40 were singular at c = 1e-20, 1.1e-5 off at c = 1e-14
    # and 0.48 off at c = 1e20, where build_pyramid raised NumericalError.
    g = _weighted_tree() if kind == "tree" else gf.generate(kind, 40)
    scaled = gf.Graph.from_arrays(g.n, g.lo, g.hi, c * g.w)
    np.testing.assert_allclose(
        c * multires._effective_resistances(scaled), multires._effective_resistances(g), rtol=1e-12, atol=0
    )
    config = multires.PyramidConfig(eps=0.9)
    unit, got = (gf.build_pyramid(h, 2, config).levels[1].graph for h in (g, scaled))
    assert np.array_equal(got.lo, unit.lo) and np.array_equal(got.hi, unit.hi)
    np.testing.assert_allclose(got.w, c * unit.w, rtol=1e-12, atol=0)


@pytest.mark.parametrize("seed", [-1, [0, -1], 1.5, "x", True, np.True_, b"bytes"])
def test_sparsify_rejects_bad_seed(seed):
    with pytest.raises(InputError, match="seed"):
        multires.sparsify(gf.generate("complete", 40), eps=0.9, seed=seed)
    # ring 10 is returned unchanged: a seed of a wrong type is refused there
    # too, a seed that numpy refuses (-1, [0, -1]) only where it samples.
    ring = gf.generate("ring", 10)
    if isinstance(seed, (int, list)) and not isinstance(seed, bool):
        assert multires.sparsify(ring, eps=0.9, seed=seed) is ring
    else:
        with pytest.raises(InputError, match="seed"):
            multires.sparsify(ring, eps=0.9, seed=seed)


def test_sparsify_rejects_bad_eps():
    g = gf.generate("ring", 10)
    with pytest.raises(InputError):
        multires.sparsify(g, eps=0.0)
    with pytest.raises(InputError):
        multires.sparsify(g, eps=1.0)


@pytest.mark.parametrize("eps", ["0.3", None, True])
def test_sparsify_rejects_an_eps_that_is_not_a_real_number(eps):
    with pytest.raises(InputError, match="eps must be a real number"):
        multires.sparsify(gf.generate("complete", 40), eps)


def test_reconnect_restores_dropped_bridge():
    # White-box: the sampling step essentially never drops a bridge (a
    # bridge has the largest possible leverage), so drive the reconnect
    # helper directly with a selection missing the only crossing edge.
    g = gf.Graph(4, ((0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.25)))
    p = np.array([0.4, 0.4, 0.2])
    idx, w = multires._reconnect(g, np.array([0, 1]), np.array([1.0, 1.0]), p)
    assert idx.tolist() == [0, 1, 2]
    assert w[2] == 0.25  # restored at original weight
    assert len(w) == 3


def test_reconnect_noop_when_connected():
    g = gf.Graph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    idx, w = multires._reconnect(g, np.array([0, 1]), np.array([0.7, 0.9]), np.array([0.5, 0.5]))
    assert idx.tolist() == [0, 1]
    assert w.tolist() == [0.7, 0.9]


def test_reconnect_picks_most_probable_crossing():
    g = gf.Graph(4, ((0, 1, 1.0), (2, 3, 1.0), (0, 2, 0.5), (1, 3, 0.8)))
    p = np.array([0.3, 0.3, 0.1, 0.3])
    idx, _ = multires._reconnect(g, np.array([0, 1]), np.array([1.0, 1.0]), p)
    assert 3 in idx and 2 not in idx


# -- Loop references ---------------------------------------------------------------
#
# The per-edge loops graph_from_laplacian, sparsify and _reconnect ran before
# graphs held their edges as arrays.  The array code must give the same edge
# tuples, weights bit for bit.  The sparsify loop reads its resistances entry
# by entry from the same matrix as the library: M^-1 = X^T X for
# M = L + (d_max/n) 11^T and X the inverse of M's Cholesky factor; with the
# pseudo-inverse L^+ instead it is the independent oracle for that shortcut,
# which must agree to 1e-12 relative and draw the same edges.


def _shifted_inverse(g: gf.Graph) -> np.ndarray:
    lap = gf.laplacian(g)
    x = multires._lower_inverse(np.linalg.cholesky(lap + lap.diagonal().max() / g.n))
    return x.T @ x


def _pseudo_inverse(g: gf.Graph) -> np.ndarray:
    return np.linalg.pinv(gf.laplacian(g))


def _reference_graph_from_laplacian(l_matrix: np.ndarray) -> tuple:
    n = l_matrix.shape[0]
    tol = 1e-12 * max(1e-300, float(np.abs(l_matrix).max(initial=0.0)))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            v = l_matrix[i, j]
            if v > tol:
                raise NumericalError(f"positive off-diagonal entry {v:.3e} at ({i}, {j})")
            if v < -tol:
                edges.append((i, j, -float(v)))
    return tuple(edges)


def _reference_reconnect(new_w: dict, g: gf.Graph, p: np.ndarray) -> None:
    parent = list(range(g.n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    comp = g.n
    for i, j in new_w:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            comp -= 1
    while comp > 1:
        best = -1
        for e_idx, (i, j, _) in enumerate(g.edges):
            if find(i) != find(j) and (best < 0 or p[e_idx] > p[best]):
                best = e_idx
        i, j, we = g.edges[best]
        new_w[(i, j)] = we
        parent[find(i)] = find(j)
        comp -= 1


def _reference_resistances(g: gf.Graph, inverse=_shifted_inverse) -> np.ndarray:
    m = inverse(g)
    d = np.diag(m)
    return np.array([d[i] + d[j] - 2.0 * m[i, j] for i, j, _ in g.edges])


def _reference_sparsify(g: gf.Graph, eps: float, seed, inverse=_shifted_inverse) -> tuple:
    n, m = g.n, len(g.edges)
    if n < 2 or m <= 2.0 * n * math.log(n) / eps**2:
        return g.edges
    q = math.ceil(9.0 * n * math.log(n) / eps**2)
    w = np.array([e[2] for e in g.edges])
    p = w * _reference_resistances(g, inverse)
    p = p / p.sum()
    counts = np.random.default_rng(seed).multinomial(q, p)
    new_w = {}
    for e_idx in np.nonzero(counts)[0]:
        i, j, we = g.edges[e_idx]
        new_w[(i, j)] = counts[e_idx] * we / (q * p[e_idx])
    _reference_reconnect(new_w, g, p)
    return tuple((i, j, float(wv)) for (i, j), wv in sorted(new_w.items()))


def _same_bits(a: tuple, b: tuple) -> bool:
    """Equal edge tuples with equal Python types and weight bit patterns."""
    return len(a) == len(b) and all(
        type(x[0]) is type(y[0]) is int
        and type(x[1]) is type(y[1]) is int
        and type(x[2]) is type(y[2]) is float
        and x[:2] == y[:2]
        and struct.pack("<d", x[2]) == struct.pack("<d", y[2])
        for x, y in zip(a, b)
    )


@pytest.fixture(scope="module")
def coarsening_step_1024() -> np.ndarray:
    """Kron-reduced Laplacian of the first coarsening step of a random
    geometric graph with 1024 vertices (505 vertices, 127k edges)."""
    lap = gf.laplacian(gf.generate("random_geometric", 1024, seed=1))
    return multires.kron_reduce(lap, sampling.greedy_max_cut(lap).keep_low)


@pytest.mark.parametrize("n, seed", [(64, 1), (64, 2), (300, 1), (300, 2)])
def test_coarsening_matches_loop_reference_on_random_geometric(n, seed):
    lap = gf.laplacian(gf.generate("random_geometric", n, seed=seed))
    h = multires.graph_from_laplacian(lap)
    assert _same_bits(h.edges, _reference_graph_from_laplacian(lap))
    for eps, step in ((0.3, 1), (0.9, 2)):
        assert _same_bits(multires.sparsify(h, eps, seed=[0, step]).edges, _reference_sparsify(h, eps, [0, step]))


def test_coarsening_matches_loop_reference_at_n1024(coarsening_step_1024):
    red = coarsening_step_1024
    h = multires.graph_from_laplacian(red)
    assert _same_bits(h.edges, _reference_graph_from_laplacian(red))
    s = multires.sparsify(h, 0.3, seed=[0, 1])
    assert s is not h and len(s.edges) < len(h.edges)
    assert _same_bits(s.edges, _reference_sparsify(h, 0.3, [0, 1]))


def test_sparsify_matches_loop_reference_on_k40():
    g = gf.generate("complete", 40)
    assert _same_bits(multires.graph_from_laplacian(gf.laplacian(g)).edges, g.edges)
    for seed in range(3):
        s = multires.sparsify(g, 0.9, seed=seed)
        assert len(s.edges) < len(g.edges)
        assert _same_bits(s.edges, _reference_sparsify(g, 0.9, seed))


def _assert_matches_pseudo_inverse(h: gf.Graph, eps: float, seed) -> bool:
    """Resistances within 1e-12 relative of the pseudo-inverse ones, the
    same sparsified edge set, weights within 1e-12 relative; returns
    whether sparsify fired."""
    np.testing.assert_allclose(
        multires._effective_resistances(h), _reference_resistances(h, _pseudo_inverse), rtol=1e-12, atol=0
    )
    s = multires.sparsify(h, eps, seed=seed)
    want = _reference_sparsify(h, eps, seed, inverse=_pseudo_inverse)
    assert [e[:2] for e in s.edges] == [e[:2] for e in want]
    np.testing.assert_allclose([e[2] for e in s.edges], [e[2] for e in want], rtol=1e-12, atol=0)
    return s is not h


@pytest.mark.parametrize("seed", [1, 2])
def test_sparsify_matches_pseudo_inverse_on_random_geometric(seed):
    h = multires.graph_from_laplacian(gf.laplacian(gf.generate("random_geometric", 300, seed=seed)))
    fired = [_assert_matches_pseudo_inverse(h, eps, [0, step]) for eps, step in ((0.3, 1), (0.9, 2))]
    assert fired == [False, True]


def test_sparsify_matches_pseudo_inverse_on_k40():
    for seed in range(3):
        assert _assert_matches_pseudo_inverse(gf.generate("complete", 40), 0.9, seed)


def test_sparsify_matches_pseudo_inverse_at_n1024(coarsening_step_1024):
    assert _assert_matches_pseudo_inverse(multires.graph_from_laplacian(coarsening_step_1024), 0.3, [0, 1])


@pytest.mark.parametrize(
    "edges, p, new_w",
    [
        (((0, 1, 1.0), (2, 3, 1.0), (1, 2, 0.25)), [0.4, 0.4, 0.2], {(0, 1): 1.0, (2, 3): 1.0}),
        (((0, 1, 1.0), (1, 2, 1.0)), [0.5, 0.5], {(0, 1): 0.7, (1, 2): 0.9}),
        (((0, 1, 1.0), (2, 3, 1.0), (0, 2, 0.5), (1, 3, 0.8)), [0.3, 0.3, 0.1, 0.3], {(0, 1): 1.0, (2, 3): 1.0}),
    ],
)
def test_reconnect_matches_loop_reference(edges, p, new_w):
    g = gf.Graph(1 + max(max(i, j) for i, j, _ in edges), edges)
    p = np.array(p)
    keys = [(i, j) for i, j, _ in g.edges]
    kept = np.array([keys.index(key) for key in new_w])
    idx, w = multires._reconnect(g, kept, np.array(list(new_w.values())), p)
    got = dict(zip(((int(g.lo[k]), int(g.hi[k])) for k in idx), w.tolist()))
    expected = dict(new_w)
    _reference_reconnect(expected, g, p)
    assert got == expected


# -- Pyramid construction ----------------------------------------------------------


def test_pyramid_depth_and_sizes():
    g = random_connected_graph(40, seed=7)
    p = multires.build_pyramid(g, 3)
    assert p.depth == 3
    sizes = [lv.graph.n for lv in p.levels]
    assert sizes[0] == 40
    for a, b in zip(sizes, sizes[1:]):
        assert b == len(p.levels[sizes.index(a)].pattern.keep_low)
        assert b < a


def test_pyramid_stops_when_graph_exhausted(path2):
    p = multires.build_pyramid(path2, 5)
    assert p.requested_depth == 5
    assert p.depth == 1  # the level-0 low channel is a single vertex


def test_pyramid_rejects_nonpositive_depth():
    g = gf.generate("ring", 8)
    with pytest.raises(InputError):
        multires.build_pyramid(g, 0)


@pytest.mark.parametrize("depth", [True, 2.5, 2.0])
def test_pyramid_rejects_non_integer_depth(depth):
    # 2.5 used to build three levels, and both it and True were saved as a
    # requested_depth that load_pyramid rejects.
    with pytest.raises(InputError, match="depth must be an integer"):
        multires.build_pyramid(gf.generate("ring", 8), depth)


def test_pyramid_round_trip_depth3():
    g = random_connected_graph(50, seed=9)
    p = multires.build_pyramid(g, 3)
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = rng.standard_normal(g.n)
        tree = multires.pyramid_analyze(p, f)
        back = multires.pyramid_synthesize(p, tree)
        assert np.linalg.norm(back - f) / np.linalg.norm(f) <= 1e-7


def test_pyramid_coefficient_counts_are_critical():
    g = random_connected_graph(33, seed=4)
    p = multires.build_pyramid(g, 3)
    f = np.random.default_rng(0).standard_normal(g.n)
    tree = multires.pyramid_analyze(p, f)
    assert tree.total == g.n
    assert len(tree.highs) == p.depth


def test_pyramid_config_controls_design():
    g = random_connected_graph(24, seed=2)
    p = multires.build_pyramid(g, 2, multires.PyramidConfig(hstar=0.0))
    f = np.random.default_rng(1).standard_normal(g.n)
    tree = multires.pyramid_analyze(p, f)
    back = multires.pyramid_synthesize(p, tree)
    assert np.linalg.norm(back - f) / np.linalg.norm(f) <= 1e-7


def test_verify_pyramid_green():
    g = random_connected_graph(30, seed=6)
    p = multires.build_pyramid(g, 2)
    rep = multires.verify_pyramid(p)
    assert rep["ok"] is True
    assert len(rep["levels"]) == 2
    for entry in rep["levels"]:
        assert entry["checks_ok"] is True
        assert entry["folding"] <= 1e-6
        assert entry["orthonormality"] <= 1e-8
        assert entry["operator"] <= 1e-8


def _with_basis(p: multires.Pyramid, **changes) -> multires.Pyramid:
    level = p.levels[0]
    basis = dataclasses.replace(level.basis, **changes)
    return dataclasses.replace(p, levels=(dataclasses.replace(level, basis=basis),) + tuple(p.levels[1:]))


@pytest.mark.parametrize("tamper", ["swap", "unpair", "tag_fixed", "bad_value"])
def test_verify_pyramid_checks_pair_tags_against_phi(tamper):
    p = multires.build_pyramid(random_connected_graph(31, seed=6), 1)  # odd n: a fixed column
    tags = p.levels[0].basis.pair_tags.copy()
    fixed = np.nonzero(tags < 0)[0]
    paired = np.nonzero(tags >= 0)[0]
    assert len(fixed) and multires.verify_pyramid(p)["levels"][0]["pair_tags_ok"] is True
    if tamper == "swap":  # two columns of different pairs trade tags
        j = paired[np.nonzero(tags[paired] != tags[paired[0]])[0][0]]
        tags[[paired[0], j]] = tags[[j, paired[0]]]
    elif tamper == "unpair":  # a column that Phi moves marked as fixed
        tags[paired[0]] = -1
    elif tamper == "tag_fixed":  # a fixed column given its own pair tag
        tags[fixed[0]] = tags.max() + 1
    else:
        tags[fixed[0]] = -2
    entry = multires.verify_pyramid(_with_basis(p, pair_tags=tags))["levels"][0]
    assert entry["pair_tags_ok"] is False and entry["checks_ok"] is False


def test_verify_pyramid_checks_energies():
    p = multires.build_pyramid(random_connected_graph(30, seed=6), 1)
    energies = p.levels[0].basis.energies
    assert multires.verify_pyramid(p)["levels"][0]["energies"] <= 1e-12
    tampered = energies.copy()
    tampered[-1] *= 1.0 + 1e-9
    entry = multires.verify_pyramid(_with_basis(p, energies=tampered))["levels"][0]
    assert entry["energies"] > 1e-10 and entry["checks_ok"] is False


def test_verify_pyramid_reports_a_zero_basis_without_dividing_by_zero():
    # A zero U (a tampered basis_u.csv loads as one) has zero energies; the
    # energy residual is then the absolute one, and orthonormality fails.
    p = multires.build_pyramid(random_connected_graph(30, seed=6), 1)
    entry = multires.verify_pyramid(_with_basis(p, u=np.zeros((30, 30))))["levels"][0]
    assert entry["energies"] == np.abs(p.levels[0].basis.energies).max()
    assert entry["orthonormality"] == 1.0 and entry["checks_ok"] is False


def small_weight_pyramid() -> multires.Pyramid:
    """Depth-2 pyramid of random_geometric 64 (seed 1) with weights times 1e-12."""
    g = gf.generate("random_geometric", 64, seed=1)
    return multires.build_pyramid(gf.Graph.from_arrays(g.n, g.lo, g.hi, 1e-12 * g.w), 2)


def test_verify_pyramid_checks_energies_of_small_weights():
    # The energy residual is relative to max |energy| with no floor of 1:
    # with one, zeroed energies on this pyramid (largest energy ~1e-11)
    # passed.
    p = small_weight_pyramid()
    assert multires.verify_pyramid(p)["ok"] is True
    zeroed = np.zeros_like(p.levels[0].basis.energies)
    report = multires.verify_pyramid(_with_basis(p, energies=zeroed))
    assert report["levels"][0]["energies"] > 1e-10 and report["ok"] is False


@pytest.mark.parametrize("scale, spread", [(1e10, 1.0), (1e14, 0.01)])
def test_pyramid_of_large_weights_verifies(scale, spread):
    # A 12-vertex ring plus one chord, weights from scale to
    # scale * (1 + spread).  With gates that mixed units the first level
    # raised SolverError (stationarity residual 5.8e9 and 4.1e13).
    n = 12
    v = np.arange(n + 1)
    w = scale * (1.0 + spread * (v % 5) / 4.0)
    g = gf.Graph.from_arrays(n, np.r_[np.arange(n), 0], np.r_[(np.arange(n) + 1) % n, 6], w)
    p = multires.build_pyramid(g, 2)
    assert len(p.levels) == 2
    assert multires.verify_pyramid(p)["ok"] is True


def _flip_first_pair(phi_csv) -> None:
    """Negate the signs of the pair holding column 0 in a saved phi.csv.

    The result is still a symmetric signed involution, so it loads."""
    rows = np.loadtxt(phi_csv, delimiter=",", dtype=int, ndmin=2)
    pair = [0, rows[0, 1]]
    assert pair[1] != 0
    rows[pair, 2] *= -1
    np.savetxt(phi_csv, rows, fmt="%d", delimiter=",")


def test_verify_pyramid_rejects_a_wrong_signed_pairing(tmp_path):
    p = multires.build_pyramid(gf.generate("ring", 12), 2)
    multires.save_pyramid(p, tmp_path)
    _flip_first_pair(tmp_path / "level0" / "phi.csv")
    q = multires.load_pyramid(tmp_path)
    assert (q.levels[0].basis.phi.signs != p.levels[0].basis.phi.signs).sum() == 2
    rep = multires.verify_pyramid(q)
    entry = rep["levels"][0]
    assert entry["folding"] > 1e-6
    assert entry["checks_ok"] is False and rep["ok"] is False
    assert rep["levels"][1]["checks_ok"] is True


@pytest.mark.parametrize("tamper", ["none", "sign"])
def test_verify_pyramid_phi_checks_match_dense_phi(tamper):
    # The folding residual comes from indexing; the dense product
    # max |J U - U Phi| is the oracle.
    p = multires.build_pyramid(random_connected_graph(15, seed=3), 1)
    phi = p.levels[0].basis.phi
    perm, signs = phi.perm, phi.signs.copy()
    if tamper == "sign":  # a fixed column negated: still a signed involution
        signs[np.nonzero(perm == np.arange(len(perm)))[0][0]] *= -1
    tampered = fourier.SignedPermutation(perm, signs)
    entry = multires.verify_pyramid(_with_basis(p, phi=tampered))["levels"][0]
    u, s, m = p.levels[0].basis.u, p.levels[0].pattern.sign, phi_matrix(tampered)
    assert entry["folding"] == np.abs(s[:, None] * u - u @ m).max()
    assert entry["checks_ok"] is (tamper == "none")


# -- Coefficient trees ---------------------------------------------------------------


def tiny_tree() -> multires.CoefficientTree:
    return multires.CoefficientTree(
        lows=np.array([5.0, -6.0]),
        highs=(np.array([3.0, -0.5, 1.0]), np.array([-2.0, 0.25])),
    )


def test_threshold_zero_large_is_strict():
    out = multires.threshold_highpass(tiny_tree(), 1.0)
    np.testing.assert_allclose(out.highs[0], [0.0, -0.5, 1.0])  # |3| > 1 zeroed, |1| kept
    np.testing.assert_allclose(out.highs[1], [0.0, 0.25])
    np.testing.assert_allclose(out.lows, [5.0, -6.0])  # lows never touched


def test_threshold_zero_small_rule():
    out = multires.threshold_highpass(tiny_tree(), 1.0, zero_large=False)
    np.testing.assert_allclose(out.highs[0], [3.0, 0.0, 0.0])  # |f| <= 1 zeroed
    np.testing.assert_allclose(out.highs[1], [-2.0, 0.0])


def test_threshold_zero_r_kills_all_highs():
    out = multires.threshold_highpass(tiny_tree(), 0.0)
    assert all(np.all(h == 0) for h in out.highs)


def test_threshold_rejects_negative_r():
    with pytest.raises(InputError):
        multires.threshold_highpass(tiny_tree(), -1.0)


@pytest.mark.parametrize("r", ["1", None, True])
def test_threshold_rejects_an_r_that_is_not_a_real_number(r):
    # r=True is not read as 1.0.
    with pytest.raises(InputError, match="threshold must be a real number"):
        multires.threshold_highpass(tiny_tree(), r)


def test_threshold_rejects_an_r_too_large_for_a_float():
    with pytest.raises(InputError, match="threshold is too large for a float"):
        multires.threshold_highpass(tiny_tree(), 10**400)


def test_keep_top_k_budget():
    tree = tiny_tree()
    out = multires.keep_top_k(tree, 4)  # 2 lows + 2 largest highs (3, -2)
    np.testing.assert_allclose(out.lows, tree.lows)
    np.testing.assert_allclose(out.highs[0], [3.0, 0.0, 0.0])
    np.testing.assert_allclose(out.highs[1], [-2.0, 0.0])


def test_keep_top_k_lows_only():
    out = multires.keep_top_k(tiny_tree(), 2)
    assert all(np.all(h == 0) for h in out.highs)


def test_keep_top_k_everything():
    tree = tiny_tree()
    out = multires.keep_top_k(tree, tree.total)
    for a, b in zip(out.highs, tree.highs):
        np.testing.assert_array_equal(a, b)


def test_keep_top_k_nesting():
    tree = tiny_tree()
    prev_nonzero: set[tuple[int, int]] = set()
    for k in range(2, tree.total + 1):
        out = multires.keep_top_k(tree, k)
        nonzero = {(i, j) for i, h in enumerate(out.highs) for j in np.nonzero(h)[0]}
        assert prev_nonzero <= nonzero
        prev_nonzero = nonzero


@pytest.mark.parametrize("k", [np.float64(4.0), 4.0, True, "4"])
def test_keep_top_k_rejects_a_k_that_is_not_an_integer(k):
    # A float k used to reach the slice and raise TypeError.
    with pytest.raises(InputError, match="k must be an integer"):
        multires.keep_top_k(tiny_tree(), k)


def test_keep_top_k_accepts_a_numpy_integer():
    out = multires.keep_top_k(tiny_tree(), np.int64(4))
    np.testing.assert_array_equal(out.highs[0], [3.0, 0.0, 0.0])


def test_keep_top_k_rejects_out_of_range():
    tree = tiny_tree()
    with pytest.raises(InputError):
        multires.keep_top_k(tree, 1)  # below len(lows)
    with pytest.raises(InputError):
        multires.keep_top_k(tree, tree.total + 1)


# -- Flat cascade against the per-level chain ----------------------------------------
#
# The cascades run every level's product on one buffer; the oracles below are
# the chains of public per-level calls and the per-level threshold and top-k
# rules, which the cascades must match bit for bit.

_CASCADE_GRAPHS = {
    "rgg24": lambda: random_connected_graph(24, seed=1),
    "rgg64": lambda: random_connected_graph(64, seed=2),
    "rgg192": lambda: random_connected_graph(192, seed=3),
    "ring48": lambda: gf.generate("ring", 48),
    "grid64": lambda: gf.generate("grid", 64),
}


@pytest.fixture(scope="module")
def cascade_pyramids() -> dict[str, multires.Pyramid]:
    """One depth-3 pyramid per graph; a depth-d pyramid is its first d levels."""
    return {name: multires.build_pyramid(make(), 3) for name, make in _CASCADE_GRAPHS.items()}


def _first_levels(p: multires.Pyramid, depth: int) -> multires.Pyramid:
    return dataclasses.replace(p, levels=p.levels[:depth], requested_depth=depth)


def _chain_analyze(p, f):
    highs = []
    for level in p.levels:
        f, high = gf.analyze(level, f)
        highs.append(high)
    return f, highs


def _chain_synthesize(p, lows, highs):
    for level, high in zip(reversed(p.levels), reversed(highs)):
        lows = gf.synthesize(level, lows, high)
    return lows


def _reference_threshold(tree, r, zero_large):
    if zero_large:
        return [np.where(np.abs(h) > r, 0.0, h) for h in tree.highs]
    return [np.where(np.abs(h) <= r, 0.0, h) for h in tree.highs]


def _reference_top_k(tree, k):
    flat = np.concatenate(tree.highs)
    keep = np.zeros(len(flat), dtype=bool)
    keep[np.argsort(-np.abs(flat), kind="stable")[: k - len(tree.lows)]] = True
    bounds = np.cumsum([0] + [len(h) for h in tree.highs])
    return [np.where(keep[a:b], h, 0.0) for h, a, b in zip(tree.highs, bounds, bounds[1:])]


def _signals(n: int, seed: int):
    rng = np.random.default_rng(seed)
    for scale in (1e-3, 1.0, 1e5):
        yield scale * rng.standard_normal(n)
    yield rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 5, n)  # mixed magnitudes
    yield np.zeros(n)


def _trees(p, tree):
    """The tree itself, locality-style user trees, thresholded and top-k trees."""
    yield tree
    for i in range(1, p.depth + 1):
        highs = tuple(np.zeros_like(h) if lvl < i else h for lvl, h in enumerate(tree.highs))
        yield multires.CoefficientTree(lows=tree.lows, highs=highs)
    r = float(np.median(np.abs(np.concatenate(tree.highs))))
    yield multires.threshold_highpass(tree, r)
    yield multires.threshold_highpass(tree, r, zero_large=False)
    yield multires.keep_top_k(tree, (len(tree.lows) + tree.total) // 2)
    yield multires.CoefficientTree(lows=list(tree.lows), highs=tuple(h.tolist() for h in tree.highs))


def _same_tree(tree, lows, highs) -> bool:
    return np.array_equal(tree.lows, lows) and len(tree.highs) == len(highs) and all(
        a.dtype == np.float64 and np.array_equal(a, b) for a, b in zip(tree.highs, highs)
    )


@pytest.mark.parametrize("name", sorted(_CASCADE_GRAPHS))
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_cascade_is_bitwise_the_per_level_chain(cascade_pyramids, name, depth):
    p = _first_levels(cascade_pyramids[name], depth)
    for f in _signals(p.levels[0].n, seed=depth):
        tree = multires.pyramid_analyze(p, f)
        lows, highs = _chain_analyze(p, f)
        assert _same_tree(tree, lows, highs)
        for t in _trees(p, tree):
            want = _chain_synthesize(p, t.lows, t.highs)
            got = multires.pyramid_synthesize(p, t)
            assert got.dtype == np.float64 and np.array_equal(got, want)


@pytest.mark.parametrize("name", ["rgg64", "grid64"])
def test_threshold_and_top_k_match_per_level_rules(cascade_pyramids, name):
    p = cascade_pyramids[name]
    for f in _signals(p.levels[0].n, seed=5):
        tree = multires.pyramid_analyze(p, f)
        mags = np.abs(np.concatenate(tree.highs))
        for r in (0.0, float(np.median(mags)), float(mags.max()), np.inf):
            for zero_large in (True, False):
                out = multires.threshold_highpass(tree, r, zero_large=zero_large)
                assert _same_tree(out, tree.lows, _reference_threshold(tree, r, zero_large))
        for k in range(len(tree.lows), tree.total + 1, 7):
            assert _same_tree(multires.keep_top_k(tree, k), tree.lows, _reference_top_k(tree, k))


def test_top_k_ties_break_shallowest_level_first():
    tree = multires.CoefficientTree(lows=np.array([9.0]), highs=(np.array([1.0, -2.0]), np.array([2.0, 1.0])))
    out = multires.keep_top_k(tree, 2)  # one of the two |2| entries: level 0 comes first
    np.testing.assert_array_equal(out.highs[0], [0.0, -2.0])
    np.testing.assert_array_equal(out.highs[1], [0.0, 0.0])
    # Long runs of equal magnitudes, where an unstable sort would reorder.
    rng = np.random.default_rng(0)
    highs = tuple(rng.choice([-1.0, 1.0, 0.5], size) for size in (64, 32, 16))
    tree = multires.CoefficientTree(lows=np.zeros(16), highs=highs)
    for k in range(16, tree.total + 1):
        assert _same_tree(multires.keep_top_k(tree, k), tree.lows, _reference_top_k(tree, k))


def _channels(tree):
    return (tree.lows, *tree.highs)


def _shares(a, bs) -> bool:
    return any(np.shares_memory(a, b) for b in bs if isinstance(b, np.ndarray))


def test_returned_trees_share_no_memory_with_their_input(cascade_pyramids):
    p = cascade_pyramids["rgg64"]
    f = np.random.default_rng(7).standard_normal(p.levels[0].n)
    tree = multires.pyramid_analyze(p, f)
    assert not any(_shares(c, [f]) for c in _channels(tree))
    for out in (
        multires.threshold_highpass(tree, 0.1),
        multires.threshold_highpass(tree, 0.1, zero_large=False),
        multires.keep_top_k(tree, tree.total),
        multires.keep_top_k(tree, len(tree.lows)),
    ):
        assert not any(_shares(c, _channels(tree)) for c in _channels(out))
    for t in _trees(p, tree):
        before = [np.array(c, copy=True) for c in _channels(t)]
        y = multires.pyramid_synthesize(p, t)
        assert not _shares(y, _channels(t))
        assert all(np.array_equal(a, b) for a, b in zip(before, _channels(t)))  # input left as it was
    np.testing.assert_array_equal(multires.pyramid_analyze(p, f).lows, tree.lows)


def _with_channel(tree, k, value):
    """tree with channel k (0 = lows, 1 + j = highs[j]) replaced by value."""
    channels = list(_channels(tree))
    channels[k] = value
    return multires.CoefficientTree(lows=channels[0], highs=tuple(channels[1:]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pyramid_transforms_reject_non_finite(cascade_pyramids, bad):
    # A nan or inf anywhere in f, in the lows or in any single high.
    p = cascade_pyramids["rgg24"]
    n = p.levels[0].n
    for pos in (0, n // 2, n - 1):
        f = np.ones(n)
        f[pos] = bad
        with pytest.raises(InputError, match="non-finite"):
            multires.pyramid_analyze(p, f)
    tree = multires.pyramid_analyze(p, np.ones(n))
    for k, channel in enumerate(_channels(tree)):
        for pos in (0, len(channel) - 1):
            changed = channel.copy()
            changed[pos] = bad
            with pytest.raises(InputError, match="non-finite"):
                multires.pyramid_synthesize(p, _with_channel(tree, k, changed))


def test_cascades_reject_wrong_lengths_in_every_channel(cascade_pyramids):
    p = cascade_pyramids["rgg24"]
    n = p.levels[0].n
    for f in (np.ones(n - 1), np.ones(n + 1), np.ones((n, 1)), np.ones((1, n)), 1.0):
        with pytest.raises(InputError, match=f"length-{n} vector"):
            multires.pyramid_analyze(p, f)
    tree = multires.pyramid_analyze(p, np.ones(n))
    for k, channel in enumerate(_channels(tree)):
        size = len(channel)
        for wrong in (channel[:-1], np.append(channel, 0.0), channel[:, None]):
            with pytest.raises(InputError, match=f"length-{size} vector"):
                multires.pyramid_synthesize(p, _with_channel(tree, k, wrong))
    with pytest.raises(InputError, match="high channels"):
        multires.pyramid_synthesize(p, multires.CoefficientTree(lows=tree.lows, highs=tree.highs[:-1]))


def test_analyze_overflow_reaches_synthesis():
    # A finite signal whose 2-norm overflows makes the first level's product
    # overflow.  The per-level chain rejects that product when it enters
    # the second level; the cascade checks f once and returns a tree with
    # non-finite coefficients, which pyramid_synthesize then rejects.
    p = multires.build_pyramid(gf.generate("ring", 16), 2)
    f = np.full(16, 1.5e308)  # its low channel alone would be 2.1e308
    with np.errstate(over="ignore", invalid="ignore"):
        low, _ = gf.analyze(p.levels[0], f)
        with pytest.raises(InputError, match="non-finite"):
            gf.analyze(p.levels[1], low)
        tree = multires.pyramid_analyze(p, f)
    assert not np.isfinite(np.concatenate(_channels(tree))).all()
    with pytest.raises(InputError, match="non-finite"):
        multires.pyramid_synthesize(p, tree)


# -- Persistence ------------------------------------------------------------------


def test_save_load_round_trip_exact(tmp_path):
    g = random_connected_graph(20, seed=10)
    p = multires.build_pyramid(g, 2)
    multires.save_pyramid(p, tmp_path / "pyr")
    q = multires.load_pyramid(tmp_path / "pyr")
    assert q.depth == p.depth
    assert q.requested_depth == p.requested_depth
    assert q.config == p.config
    for lv_p, lv_q in zip(p.levels, q.levels):
        np.testing.assert_array_equal(lv_p.basis.u, lv_q.basis.u)
        np.testing.assert_array_equal(lv_p.basis.energies, lv_q.basis.energies)
        np.testing.assert_array_equal(lv_p.basis.phi.perm, lv_q.basis.phi.perm)
        np.testing.assert_array_equal(lv_p.basis.phi.signs, lv_q.basis.phi.signs)
        np.testing.assert_array_equal(lv_p.quartet.h0, lv_q.quartet.h0)
        np.testing.assert_array_equal(lv_p.quartet.h1, lv_q.quartet.h1)
        assert lv_p.graph.edges == lv_q.graph.edges
        assert lv_p.pattern.keep_low == lv_q.pattern.keep_low
    # loaded pyramid still reconstructs
    f = np.random.default_rng(3).standard_normal(g.n)
    tree = multires.pyramid_analyze(q, f)
    back = multires.pyramid_synthesize(q, tree)
    assert np.linalg.norm(back - f) / np.linalg.norm(f) <= 1e-7


def test_load_rejects_missing_manifest(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(InputError):
        multires.load_pyramid(tmp_path / "empty")


def test_load_rejects_wrong_format(tmp_path):
    d = tmp_path / "pyr"
    d.mkdir()
    (d / "manifest.json").write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(InputError):
        multires.load_pyramid(d)


def test_corrupted_basis_fails_verification(tmp_path):
    # Loading does not re-verify; verify_pyramid is the audit that catches
    # a perturbed basis entry through the folding and orthogonality checks.
    g = random_connected_graph(16, seed=12)
    p = multires.build_pyramid(g, 2)
    multires.save_pyramid(p, tmp_path / "pyr")
    path = tmp_path / "pyr" / "level0" / "basis_u.csv"
    rows = path.read_text().splitlines()
    parts = rows[1].split(",")
    parts[1] = repr(float(parts[1]) + 1e-2)
    rows[1] = ",".join(parts)
    path.write_text("\n".join(rows) + "\n")
    q = multires.load_pyramid(tmp_path / "pyr")
    rep = multires.verify_pyramid(q)
    assert rep["ok"] is False
    assert rep["levels"][0]["folding"] > 1e-6 or rep["levels"][0]["orthonormality"] > 1e-8


@pytest.mark.parametrize(
    "kwargs",
    [{"eps": 5.0}, {"eps": 0.0}, {"eps": 1.0}, {"eps": float("nan")}, {"tol": 0.0}, {"tol": -1e-10},
     {"design": "nosuch"}, {"seed": -1}, {"seed": True}, {"seed": 1.0}, {"seed": "0"}, {"seed": None},
     {"tol": True}, {"hstar": True}, {"hstar": False}, {"eps": np.True_}, {"tol": "1e-10"}, {"hstar": None},
     {"eps": [0.3]}, {"hstar": 5.0}, {"hstar": -0.5}, {"hstar": float("nan")},
     {"design": "minimax", "hstar": 2.5}, {"tol": float("inf")}, {"tol": float("nan")}, {"tol": 1e-4},
     {"tol": 1.0}],
)
def test_pyramid_config_rejects_invalid_values(kwargs):
    with pytest.raises(InputError):
        multires.PyramidConfig(**kwargs)


@pytest.mark.parametrize("key", ["eps", "hstar", "tol"])
def test_pyramid_config_rejects_a_value_too_large_for_a_float(key):
    # InputError, not OverflowError.
    with pytest.raises(InputError, match="too large for a float"):
        multires.PyramidConfig(**{key: 10**400})


def test_pyramid_config_accepts_numpy_reals():
    c = multires.PyramidConfig(eps=np.float64(0.5), hstar=np.int64(1), tol=np.float32(1e-9))
    assert (c.eps, c.hstar) == (0.5, 1)


def test_pyramid_config_accepts_numpy_seed_and_sparsify_fires():
    # seed=-1 used to reach sparsify, where default_rng raised numpy's own
    # ValueError; level 1 here is K20 at eps 0.9, above the sparsify gate.
    p = multires.build_pyramid(gf.generate("complete", 40), 2, multires.PyramidConfig(eps=0.9, seed=np.int64(5)))
    assert p.depth == 2 and multires.verify_pyramid(p)["ok"]
    with pytest.raises(InputError, match="seed"):
        multires.PyramidConfig(eps=0.9, seed=-1)


def _saved_pyramid(tmp_path):
    multires.save_pyramid(multires.build_pyramid(random_connected_graph(12, seed=3), 2), tmp_path / "pyr")
    return tmp_path / "pyr"


def test_build_pyramid_refuses_a_single_vertex_graph():
    with pytest.raises(InputError, match="pyramid needs a graph with at least two vertices"):
        multires.build_pyramid(gf.Graph(1, []), 1)


@pytest.mark.parametrize("text", ["[]", '"pyramid"', "3"])
def test_load_refuses_a_manifest_that_is_not_an_object(tmp_path, text):
    (tmp_path / "manifest.json").write_text(text)
    with pytest.raises(InputError, match="pyramid manifest is not a JSON object"):
        multires.load_pyramid(tmp_path)


def test_load_refuses_a_level_graph_whose_size_disagrees_with_the_manifest(tmp_path):
    d = _saved_pyramid(tmp_path)
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["levels"][1]["n"] += 1
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InputError, match="level 1: graph size disagrees with manifest"):
        multires.load_pyramid(d)


@pytest.mark.parametrize("name", ["basis_u.csv", "energies.csv", "pair_tags.csv", "phi.csv", "filters.csv",
                                  "graph.txt"])
def test_load_rejects_missing_level_file(tmp_path, name):
    d = _saved_pyramid(tmp_path)
    (d / "level1" / name).unlink()
    with pytest.raises(InputError, match=name):
        multires.load_pyramid(d)


def _drop_last_column(text: str) -> str:
    return "".join(row.rsplit(",", 1)[0] + "\n" for row in text.splitlines())


def _drop_last_row(text: str) -> str:
    return "".join(row + "\n" for row in text.splitlines()[:-1])


@pytest.mark.parametrize(
    "name, cut",
    [
        ("basis_u.csv", _drop_last_column),
        ("energies.csv", _drop_last_row),
        ("pair_tags.csv", _drop_last_column),
        ("phi.csv", _drop_last_row),
        ("filters.csv", _drop_last_row),
    ],
)
def test_load_rejects_level_file_of_wrong_shape(tmp_path, name, cut):
    # Each file still parses; only its shape no longer fits the level's n.
    d = _saved_pyramid(tmp_path)
    path = d / "level0" / name
    path.write_text(cut(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(InputError, match=f"{name} holds shape"):
        multires.load_pyramid(d)


def test_saved_filters_keep_four_columns(tmp_path):
    # Format v1: (h0, h1, g0, g1) with the synthesis gains written out.
    d = _saved_pyramid(tmp_path)
    for idx, level in enumerate(multires.load_pyramid(d).levels):
        filt = np.loadtxt(d / f"level{idx}" / "filters.csv", delimiter=",", ndmin=2)
        assert filt.shape == (level.n, 4)
        np.testing.assert_array_equal(filt[:, 2:], filt[:, :2])


@pytest.mark.parametrize("column", [2, 3])
def test_load_rejects_synthesis_gains_that_differ(tmp_path, column):
    d = _saved_pyramid(tmp_path)
    path = d / "level1" / "filters.csv"
    filt = np.loadtxt(path, delimiter=",", ndmin=2)
    filt[0, column] += 0.5
    np.savetxt(path, filt, fmt="%.17g", delimiter=",")
    with pytest.raises(InputError, match="synthesis gains differ"):
        multires.load_pyramid(d)


@pytest.mark.parametrize("name", ["basis_u.csv", "energies.csv", "filters.csv"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_rejects_a_non_finite_entry(tmp_path, name, bad):
    # Row 0 takes the bad value in its even columns: one entry of
    # energies.csv, and h0 and g0 alike in filters.csv, so the synthesis
    # gains still equal the analysis gains there.
    d = _saved_pyramid(tmp_path)
    path = d / "level1" / name
    a = np.loadtxt(path, delimiter=",", ndmin=2)
    a[0, ::2] = bad
    np.savetxt(path, a, fmt="%.17g", delimiter=",")
    with pytest.raises(InputError, match=f"level 1: {name} has a non-finite entry"):
        multires.load_pyramid(d)


def test_load_rejects_malformed_level_file(tmp_path):
    d = _saved_pyramid(tmp_path)
    (d / "level0" / "filters.csv").write_text("1,2\n")
    with pytest.raises(InputError):
        multires.load_pyramid(d)


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c.update(extra=1),
        lambda c: c.pop("eps"),
        lambda c: c.update(eps=5.0),
    ],
    ids=["unknown-key", "missing-key", "invalid-value"],
)
def test_load_rejects_bad_manifest_config(tmp_path, edit):
    d = _saved_pyramid(tmp_path)
    manifest = json.loads((d / "manifest.json").read_text())
    edit(manifest["config"])
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InputError):
        multires.load_pyramid(d)


@pytest.mark.parametrize(
    "key, value",
    [("n", 12.5), ("n", 12.0), ("n", True), ("n", "12"),
     ("requested_depth", 2.9), ("requested_depth", 2.0), ("requested_depth", True), ("requested_depth", "2")],
)
def test_load_rejects_non_integer_size_or_depth(tmp_path, key, value):
    # int() used to truncate n = 12.5 to 12 and requested_depth = 2.9 to 2.
    d = _saved_pyramid(tmp_path)
    manifest = json.loads((d / "manifest.json").read_text())
    doc = manifest["levels"][0] if key == "n" else manifest
    assert type(doc[key]) is int
    doc[key] = value
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InputError, match=f"{key} must be an integer"):
        multires.load_pyramid(d)


@pytest.mark.parametrize("value", [True, "1e-10", None])
def test_load_rejects_a_manifest_tol_that_is_not_a_number(tmp_path, value):
    # "tol": true used to load, and build, at tol = 1.0.
    d = _saved_pyramid(tmp_path)
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["config"]["tol"] = value
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InputError, match="tol must be a real number"):
        multires.load_pyramid(d)


@pytest.mark.parametrize("value", [float("inf"), float("nan"), 1.0])
def test_load_rejects_a_manifest_tol_outside_its_range(tmp_path, value):
    # json writes inf and nan as Infinity and NaN, which json reads back.
    d = _saved_pyramid(tmp_path)
    manifest = json.loads((d / "manifest.json").read_text())
    manifest["config"]["tol"] = value
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InputError, match="tol must lie in"):
        multires.load_pyramid(d)


@pytest.mark.parametrize(
    "edit, message",
    [(lambda m: m.update(levels=[]), "requested_depth=2 levels, got 0"),
     (lambda m: m.update(requested_depth=1), "requested_depth=1 levels, got 2")],
    ids=["empty", "over-deep"],
)
def test_load_rejects_a_level_count_outside_1_to_requested_depth(tmp_path, edit, message):
    # An empty manifest used to load as depth 0 and pass verify_pyramid.
    d = _saved_pyramid(tmp_path)
    manifest = json.loads((d / "manifest.json").read_text())
    edit(manifest)
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InputError, match=message):
        multires.load_pyramid(d)


def test_pyramid_needs_one_to_requested_depth_levels():
    p = multires.build_pyramid(random_connected_graph(12, seed=3), 2)
    with pytest.raises(InputError, match="got 0"):
        multires.Pyramid(levels=(), config=p.config, requested_depth=2)
    with pytest.raises(InputError, match="got 2"):
        multires.Pyramid(levels=p.levels, config=p.config, requested_depth=1)
    with pytest.raises(InputError, match="requested_depth must be an integer"):
        multires.Pyramid(levels=p.levels, config=p.config, requested_depth=2.0)
    assert multires.Pyramid(levels=p.levels[:1], config=p.config, requested_depth=3).depth == 1


def test_pyramid_level_sizes_must_chain(tmp_path):
    # Level 0 of ring 16 keeps 8 vertices; level 1 of ring 20 has 10.  Such
    # a pyramid used to load and verify green, and pyramid_analyze then
    # raised numpy's ValueError.
    a = multires.build_pyramid(gf.generate("ring", 16), 2)
    b = multires.build_pyramid(gf.generate("ring", 20), 2)
    with pytest.raises(InputError, match="level 1 has 10 vertices, but level 0 keeps 8"):
        multires.Pyramid(levels=(a.levels[0], b.levels[1]), config=a.config, requested_depth=2)
    multires.save_pyramid(a, tmp_path / "a")
    multires.save_pyramid(b, tmp_path / "b")
    splice_level1(tmp_path / "a", tmp_path / "b")
    with pytest.raises(InputError, match="level 1 has 10 vertices, but level 0 keeps 8"):
        multires.load_pyramid(tmp_path / "a")


def test_load_rejects_manifest_without_levels(tmp_path):
    d = _saved_pyramid(tmp_path)
    manifest = json.loads((d / "manifest.json").read_text())
    del manifest["levels"]
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InputError):
        multires.load_pyramid(d)
