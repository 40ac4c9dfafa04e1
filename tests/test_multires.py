"""Kron reduction, spectral sparsification, pyramids, and persistence.

Kron oracles:

  Star elimination. Removing the center of a star with leaf weights w_i
  produces the complete graph on the leaves with w_ij = w_i w_j / sum(w).
  (Classical star-mesh transform; follows from the rank-1 Schur update.)

  Single-vertex elimination. L' = L_kk - L_ke L_ek / L_ee, a rank-1 update.

  3-path keeping the endpoints: two unit resistors in series make weight 1/2.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest

import graphfb as gf
from graphfb import multires, sampling
from graphfb.errors import InputError, NumericalError
from conftest import random_connected_graph


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
    report = gf.check_laplacian(reduced, tol=1e-8)
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
    with pytest.raises(InputError):
        multires.kron_reduce(l_matrix, [])
    with pytest.raises(InputError):
        multires.kron_reduce(l_matrix, list(range(5)))
    with pytest.raises(InputError):
        multires.kron_reduce(l_matrix, [0, 9])
    with pytest.raises(InputError):
        multires.kron_reduce(l_matrix, [0, 0, 1])


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


def test_sparsify_rejects_bad_eps():
    g = gf.generate("ring", 10)
    with pytest.raises(InputError):
        multires.sparsify(g, eps=0.0)
    with pytest.raises(InputError):
        multires.sparsify(g, eps=1.0)


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
# tuples, weights bit for bit.


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


def _reference_sparsify(g: gf.Graph, eps: float, seed) -> tuple:
    n, m = g.n, len(g.edges)
    if n < 2 or m <= 2.0 * n * math.log(n) / eps**2:
        return g.edges
    q = math.ceil(9.0 * n * math.log(n) / eps**2)
    lp = np.linalg.pinv(gf.laplacian(g))
    d = np.diag(lp)
    w = np.array([e[2] for e in g.edges])
    p = w * np.array([d[i] + d[j] - 2.0 * lp[i, j] for i, j, _ in g.edges])
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pyramid_transforms_reject_non_finite(bad):
    g = random_connected_graph(20, seed=3)
    p = multires.build_pyramid(g, 2)
    f = np.ones(g.n)
    f[5] = bad
    with pytest.raises(InputError, match="non-finite"):
        multires.pyramid_analyze(p, f)
    tree = multires.pyramid_analyze(p, np.ones(g.n))
    lows = tree.lows.copy()
    lows[0] = bad
    with pytest.raises(InputError, match="non-finite"):
        multires.pyramid_synthesize(p, multires.CoefficientTree(lows=lows, highs=tree.highs))
    for k in range(p.depth):
        highs = [h.copy() for h in tree.highs]
        highs[k][-1] = bad
        with pytest.raises(InputError, match="non-finite"):
            multires.pyramid_synthesize(p, multires.CoefficientTree(lows=tree.lows, highs=tuple(highs)))


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


def test_keep_top_k_rejects_out_of_range():
    tree = tiny_tree()
    with pytest.raises(InputError):
        multires.keep_top_k(tree, 1)  # below len(lows)
    with pytest.raises(InputError):
        multires.keep_top_k(tree, tree.total + 1)


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
        np.testing.assert_array_equal(lv_p.quartet.g1, lv_q.quartet.g1)
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
     {"design": "nosuch"}],
)
def test_pyramid_config_rejects_invalid_values(kwargs):
    with pytest.raises(InputError):
        multires.PyramidConfig(**kwargs)


def _saved_pyramid(tmp_path):
    multires.save_pyramid(multires.build_pyramid(random_connected_graph(12, seed=3), 2), tmp_path / "pyr")
    return tmp_path / "pyr"


@pytest.mark.parametrize("name", ["basis_u.csv", "energies.csv", "pair_tags.csv", "phi.csv", "filters.csv",
                                  "graph.txt"])
def test_load_rejects_missing_level_file(tmp_path, name):
    d = _saved_pyramid(tmp_path)
    (d / "level1" / name).unlink()
    with pytest.raises(InputError, match=name):
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


def test_load_rejects_manifest_without_levels(tmp_path):
    d = _saved_pyramid(tmp_path)
    manifest = json.loads((d / "manifest.json").read_text())
    del manifest["levels"]
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(InputError):
        multires.load_pyramid(d)
