"""Filter designs, quartets, and one-level analysis/synthesis reconstruction.

Design identities checked by hand. For a pair (i, j) with i < j:

    design_from_hstar: h[i] = h*, h[j] = 2 - h*
    design_minimax:    h[i] = (h_des[i] + 2 - h_des[j]) / 2, clamped to [0,2]

The quartet takes h0 = sqrt(h) and h1 = h0 permuted by |Phi|, with the
synthesis gains equal to these, so h0*h0 + h1*h1 = h + (2-h) = 2 entrywise,
and the two-channel analysis operator built from them is orthogonal.
Perfect reconstruction is then the statement T^T T = I.
"""

from __future__ import annotations

import numpy as np
import pytest

import graphfb as gf
from graphfb import filterbank, fourier, multires, sampling
from graphfb.errors import InputError
from conftest import phi_matrix, random_connected_graph


def swap2() -> fourier.SignedPermutation:
    return fourier.SignedPermutation(perm=np.array([1, 0]), signs=np.array([1.0, 1.0]))


def basis_for(g: gf.Graph) -> fourier.FourierBasis:
    l_matrix = gf.laplacian(g)
    return fourier.compute_basis(l_matrix, sampling.greedy_max_cut(l_matrix))


# -- Gain designs -------------------------------------------------------------


def test_hstar_constant_two():
    h = filterbank.design_from_hstar(swap2(), 2.0)
    np.testing.assert_allclose(h, [2.0, 0.0])


def test_hstar_constant_zero():
    h = filterbank.design_from_hstar(swap2(), 0.0)
    np.testing.assert_allclose(h, [0.0, 2.0])


def test_hstar_constant_one_is_allpass():
    h = filterbank.design_from_hstar(swap2(), 1.0)
    np.testing.assert_allclose(h, [1.0, 1.0])


@pytest.mark.parametrize("hstar", [lambda i, j: 1.0, True, "1.5", None])
def test_hstar_rejects_a_value_that_is_not_a_number(hstar):
    # A per-pair response goes through design_minimax instead.
    with pytest.raises(InputError, match="real number"):
        filterbank.design_from_hstar(swap2(), hstar)


def test_minimax_takes_a_per_pair_response():
    phi = fourier.SignedPermutation(perm=np.array([1, 0, 3, 2]), signs=np.ones(4))
    h, clamped = filterbank.design_minimax(phi, np.array([0.5, 1.5, 1.5, 0.5]))
    np.testing.assert_array_equal(h, [0.5, 1.5, 1.5, 0.5])
    assert clamped == 0.0


def test_hstar_fixed_points_get_one():
    phi = fourier.SignedPermutation(perm=np.array([0, 2, 1]), signs=np.ones(3))
    h = filterbank.design_from_hstar(phi, 2.0)
    assert h[0] == 1.0
    np.testing.assert_allclose(sorted(h[1:]), [0.0, 2.0])


def test_hstar_rejects_out_of_range():
    with pytest.raises(InputError):
        filterbank.design_from_hstar(swap2(), 2.5)
    with pytest.raises(InputError):
        filterbank.design_from_hstar(swap2(), -0.1)


def test_gain_complement_identity_all_designs():
    # (I + |Phi|) h = 2 for every hstar design.
    g = gf.generate("random_geometric", 14, seed=6)
    b = basis_for(g)
    fold = np.abs(phi_matrix(b.phi))
    for hstar in (0.0, 0.7, 1.0, 2.0):
        h = filterbank.design_from_hstar(b.phi, hstar)
        np.testing.assert_allclose(h + fold @ h, 2.0, atol=1e-12)


def test_minimax_midpoint():
    h, clamped = filterbank.design_minimax(swap2(), np.array([2.0, 1.0]))
    np.testing.assert_allclose(h, [1.5, 0.5])
    assert clamped == 0.0


def test_minimax_exact_when_feasible():
    h, clamped = filterbank.design_minimax(swap2(), np.array([2.0, 0.0]))
    np.testing.assert_allclose(h, [2.0, 0.0])
    assert clamped == 0.0


def test_minimax_clamps_extreme_request():
    h, clamped = filterbank.design_minimax(swap2(), np.array([5.0, 0.0]))
    np.testing.assert_allclose(h, [2.0, 0.0])
    assert clamped == pytest.approx(1.5)


def test_ideal_half_band_split():
    np.testing.assert_allclose(filterbank.ideal_half_band(4), [2.0, 2.0, 0.0, 0.0])
    np.testing.assert_allclose(filterbank.ideal_half_band(5), [2.0, 2.0, 2.0, 0.0, 0.0])


# -- Quartet ------------------------------------------------------------------


def test_quartet_root_and_fold():
    h = np.array([2.0, 0.0])
    q = filterbank.quartet(h, swap2())
    np.testing.assert_allclose(q.h0, [np.sqrt(2.0), 0.0])
    np.testing.assert_allclose(q.h1, [0.0, np.sqrt(2.0)])


def test_quartet_holds_only_the_analysis_gains():
    # The synthesis gains equal the analysis gains and are not stored.
    assert filterbank.FilterQuartet._fields == ("h0", "h1")


def test_quartet_k3_frozen(k3):
    # h* = 2 on one pair plus a fixed point: h0 entries {sqrt(2), 0, 1}.
    b = basis_for(k3)
    h = filterbank.design_from_hstar(b.phi, 2.0)
    q = filterbank.quartet(h, b.phi)
    np.testing.assert_allclose(sorted(q.h0), [0.0, 1.0, np.sqrt(2.0)], atol=1e-12)


def test_quartet_gain_sum_is_two():
    g = gf.generate("random_geometric", 12, seed=2)
    b = basis_for(g)
    for hstar in (0.0, 1.0, 2.0):
        q = filterbank.quartet(filterbank.design_from_hstar(b.phi, hstar), b.phi)
        np.testing.assert_allclose(q.h0 * q.h0 + q.h1 * q.h1, 2.0, atol=1e-12)


def test_quartet_rejects_negative_gain():
    with pytest.raises(InputError):
        filterbank.quartet(np.array([2.0, -0.5]), swap2())


# -- Spectral filtering --------------------------------------------------------


def test_apply_filter_scales_basis_columns(ring4):
    # With every gain h, each operator filters a basis column into h[i] times
    # itself: analysis samples it in (keep_low, keep_high) order, synthesis
    # maps that back to the full column.
    pat = sampling.greedy_max_cut(gf.laplacian(ring4))
    b = basis_for(ring4)
    h = np.array([1.0, 2.0, 3.0, 4.0])
    level = filterbank.FilterLevel(ring4, pat, b, filterbank.FilterQuartet(h, h))
    order = list(pat.keep_low + pat.keep_high)
    for i in range(4):
        u_i = b.u[:, i]
        np.testing.assert_allclose(level.analysis @ u_i, h[i] * u_i[order], atol=1e-10)
        np.testing.assert_allclose(level.synthesis @ u_i[order], h[i] * u_i, atol=1e-10)


def test_filter_conjugation_identity():
    # Phi diag(h) Phi = diag(h permuted): signs square away.
    rng = np.random.default_rng(9)
    perm = np.array([2, 3, 0, 1])
    signs = np.array([1.0, -1.0, 1.0, -1.0])
    sp = fourier.SignedPermutation(perm=perm, signs=signs)
    m = phi_matrix(sp)
    h = rng.uniform(0.0, 2.0, size=4)
    np.testing.assert_allclose(m @ np.diag(h) @ m, np.diag(h[perm]), atol=1e-12)


# -- One-level filterbank -------------------------------------------------------


@pytest.mark.parametrize("design_kw", [
    {"design": "hstar", "hstar": 2.0},
    {"design": "hstar", "hstar": 0.0},
    {"design": "hstar", "hstar": 1.0},
    {"design": "minimax"},
])
def test_one_level_perfect_reconstruction(design_kw):
    g = random_connected_graph(18, seed=12)
    level = filterbank.build_level(g, **design_kw)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(g.n)
    f_low, f_high = filterbank.analyze(level, f)
    back = filterbank.synthesize(level, f_low, f_high)
    assert np.linalg.norm(back - f) / np.linalg.norm(f) <= 1e-10


def test_critical_sampling_counts():
    g = random_connected_graph(17, seed=3)
    level = filterbank.build_level(g)
    f = np.random.default_rng(0).standard_normal(g.n)
    f_low, f_high = filterbank.analyze(level, f)
    assert len(f_low) + len(f_high) == g.n
    assert len(f_low) == len(level.pattern.keep_low)


def test_analysis_operator_is_orthogonal():
    # g = h quartets make the stacked analysis operator orthogonal, which
    # is what guarantees reconstruction error never grows as more
    # coefficients are kept.
    g = random_connected_graph(14, seed=8)
    level = filterbank.build_level(g)
    n = g.n
    t = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        f_low, f_high = filterbank.analyze(level, e)
        t[:, k] = np.concatenate([f_low, f_high])
    np.testing.assert_allclose(t.T @ t, np.eye(n), atol=1e-9)


def test_build_level_rejects_unknown_design():
    g = random_connected_graph(10, seed=0)
    with pytest.raises(InputError):
        filterbank.build_level(g, design="butterworth")


@pytest.mark.parametrize(
    "kwargs", [{"design": "butterworth"}, {"hstar": 5.0}, {"hstar": -0.5}, {"design": "minimax", "hstar": 2.5}]
)
def test_build_level_checks_its_design_before_building_the_basis(monkeypatch, kwargs):
    def no_basis(*args, **kw):
        raise AssertionError("compute_basis called before the design was checked")

    monkeypatch.setattr(filterbank, "compute_basis", no_basis)
    with pytest.raises(InputError):
        filterbank.build_level(random_connected_graph(10, seed=0), **kwargs)


@pytest.mark.parametrize("tol", [True, float("nan"), float("inf"), 1e-4, 0.0])
def test_build_level_checks_its_tolerance_before_building_the_basis(monkeypatch, tol):
    def no_basis(*args, **kw):
        raise AssertionError("compute_basis called before the tolerance was checked")

    monkeypatch.setattr(filterbank, "compute_basis", no_basis)
    with pytest.raises(InputError, match="tol must"):
        filterbank.build_level(random_connected_graph(10, seed=0), tol=tol)


@pytest.mark.parametrize("c", [2.0**-40, 1e-12, 1e-4])
def test_build_level_of_small_weights_matches_unit_weights(c):
    # Scaling the weights by c scales L, and only the energies: the basis
    # stays.  With absolute floors in the solver's gates it moved by 1.1,
    # 0.77 and 1.1e-9 for these c.
    assert_level_matches_unit_weights(c)


@pytest.mark.parametrize("c", [1e4, 1e8, 1e12])
def test_build_level_of_large_weights_matches_unit_weights(c):
    # With gates that mixed units, c = 1e4 moved the basis by 3.1e-10, and
    # c = 1e8 and 1e12 raised SolverError (stationarity 7.8e3 and 3.9e11).
    assert_level_matches_unit_weights(c)


def assert_level_matches_unit_weights(c: float) -> None:
    """build_level of random_geometric 64 (seed 1) with weights times c has
    the basis of c = 1 and its energies times c, and verifies ok."""
    g = gf.generate("random_geometric", 64, seed=1)
    ref = filterbank.build_level(g)
    level = filterbank.build_level(gf.Graph.from_arrays(g.n, g.lo, g.hi, c * g.w, g.coords))
    assert np.abs(level.basis.u - ref.basis.u).max() <= 1e-9
    np.testing.assert_allclose(level.basis.energies / c, ref.basis.energies, rtol=0, atol=1e-9)
    pyramid = multires.Pyramid((level,), multires.PyramidConfig(), 1)
    assert multires.verify_pyramid(pyramid)["ok"]


def test_verify_pr_reports_small_residuals():
    g = random_connected_graph(16, seed=4)
    level = filterbank.build_level(g)
    rep = filterbank.verify_pr(level)
    assert set(rep) == {"gain_sum", "gain_fold", "operator"}
    assert all(v <= 1e-8 for v in rep.values())


def test_verify_pr_catches_broken_quartet():
    g = random_connected_graph(16, seed=4)
    level = filterbank.build_level(g)
    broken = filterbank.FilterLevel(
        graph=level.graph,
        pattern=level.pattern,
        basis=level.basis,
        quartet=filterbank.FilterQuartet(h0=level.quartet.h0, h1=np.zeros_like(level.quartet.h1)),
    )
    rep = filterbank.verify_pr(broken)
    assert rep["gain_sum"] > 0.1 or rep["operator"] > 0.1
    assert rep["operator"] > 0.1  # the operator gate sees the zeroed high channel


def _filter(u, h, f):
    # Spectral filtering U diag(h) U^T f.
    return u @ (h * (u.T @ f))


def _chain_analyze(level, f):
    # Reference: filter with each analysis gain, then keep the channel's entries.
    u, q, pat = level.basis.u, level.quartet, level.pattern
    low = _filter(u, q.h0, f)[list(pat.keep_low)]
    high = _filter(u, q.h1, f)[list(pat.keep_high)]
    return low, high


def _chain_synthesize(level, f_low, f_high):
    # Reference: zero-fill each channel, filter with its gain, add.
    u, q, pat = level.basis.u, level.quartet, level.pattern
    up_low, up_high = np.zeros(level.n), np.zeros(level.n)
    up_low[list(pat.keep_low)] = f_low
    up_high[list(pat.keep_high)] = f_high
    return _filter(u, q.h0, up_low) + _filter(u, q.h1, up_high)


@pytest.mark.parametrize("g", [
    gf.generate("ring", 16),
    gf.generate("grid", 25),
    random_connected_graph(12, seed=1),
    random_connected_graph(21, seed=5),
], ids=["ring16", "grid25", "rgg12", "rgg21"])
@pytest.mark.parametrize("design_kw", [{"design": "hstar", "hstar": 1.3}, {"design": "minimax"}])
def test_operators_match_filter_chain(g, design_kw):
    level = filterbank.build_level(g, **design_kw)
    rng = np.random.default_rng(g.n)
    m = len(level.pattern.keep_low)
    for _ in range(3):
        f = rng.standard_normal(g.n)
        for got, ref in zip(filterbank.analyze(level, f), _chain_analyze(level, f)):
            assert np.abs(got - ref).max() <= 1e-12
        c = rng.standard_normal(g.n)
        got = filterbank.synthesize(level, c[:m], c[m:])
        assert np.abs(got - _chain_synthesize(level, c[:m], c[m:])).max() <= 1e-12


def test_level_operators_are_cached_and_read_only():
    level = filterbank.build_level(random_connected_graph(12, seed=3))
    assert level.analysis is level.analysis
    assert level.synthesis is level.synthesis
    for op in (level.analysis, level.synthesis):
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


def test_synthesis_is_a_view_of_the_analysis_operator():
    # One n x n operator per level: synthesis is its transpose, not a copy.
    level = filterbank.build_level(random_connected_graph(12, seed=3))
    assert np.shares_memory(level.synthesis, level.analysis)
    assert np.array_equal(level.synthesis, level.analysis.T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_analyze_and_synthesize_reject_non_finite(bad):
    level = filterbank.build_level(gf.generate("ring", 8))
    f = np.ones(8)
    f[2] = bad
    with pytest.raises(InputError, match="non-finite"):
        filterbank.analyze(level, f)
    f_low, f_high = filterbank.analyze(level, np.ones(8))
    bad_low, bad_high = f_low.copy(), f_high.copy()
    bad_low[0] = bad
    bad_high[-1] = bad
    with pytest.raises(InputError, match="non-finite"):
        filterbank.synthesize(level, bad_low, f_high)
    with pytest.raises(InputError, match="non-finite"):
        filterbank.synthesize(level, f_low, bad_high)
