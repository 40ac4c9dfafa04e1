"""Folding-compatible basis construction: J U = U Phi.

Golden fixtures derived by hand:

2-path, V_L = {0}: U = [(1,1), (1,-1)]/sqrt(2), energies (0, 2), Phi swaps.

4-path, V_L = {1,3}: all sixteen entries are +-1/2,

    U = 1/2 * [[ 1,  1, -1, -1],
               [ 1,  1,  1,  1],
               [ 1, -1,  1, -1],
               [ 1, -1, -1,  1]]

energies (0, 1, 2, 3), Phi the plain anti-diagonal (all signs +1). Checked
by hand: each column has unit norm, columns are orthogonal, the Dirichlet
energies over the three unit edges are 0, 1, 2, 3, and negating entries on
V_H = {0, 2} sends column i to column 3-i.

K3, V_L = {0,1}: one solver pair with energies (3 -+ 2*sqrt(2))/2 plus one
leftover direction of energy 3; sum of energies = trace(L) = 6.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphfb as gf
from graphfb import fourier, qecqp, sampling
from graphfb.errors import InputError, NumericalError
from conftest import oracle_min, phi_matrix

PATH4_U = 0.5 * np.array(
    [
        [1.0, 1.0, -1.0, -1.0],
        [1.0, 1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)


def build(g: gf.Graph) -> fourier.FourierBasis:
    l_matrix = gf.laplacian(g)
    return fourier.compute_basis(l_matrix, sampling.greedy_max_cut(l_matrix))


def _reference_basis(l_matrix: np.ndarray, pattern: sampling.SamplingPattern):
    """The construction in full coordinates: an SVD complement per pair.

    Returns (U, energies, pair_tags) sorted like compute_basis.
    """
    n = l_matrix.shape[0]
    s = pattern.sign
    cols: list[np.ndarray] = []
    tags: list[int] = []
    step = 0
    while len(cols) < n:
        a = fourier.complement_basis(np.column_stack(cols) if cols else None, n)
        if fourier.classify_subspace(a, s) is fourier.SubspaceClass.MIXED:
            q = a.T @ l_matrix @ a
            r = a.T @ (s[:, None] * a) + np.eye(a.shape[1])
            sol = qecqp.solve(qecqp.QecqpProblem(q, r))
            u = a @ sol.x
            u = qecqp._fix_sign(u / np.linalg.norm(u))
            w = s * u
            w = w - (u @ w) * u
            cols.extend([u, w / np.linalg.norm(w)])
            tags.extend([step, step])
            step += 1
        else:
            qa = a.T @ l_matrix @ a
            _, vecs = np.linalg.eigh(0.5 * (qa + qa.T))
            cols.extend(qecqp._fix_sign(v) for v in (a @ vecs).T)
            tags.extend([-1] * a.shape[1])
            break
    u_mat = np.column_stack(cols)
    energies = np.einsum("ij,jk,ik->i", u_mat.T, l_matrix, u_mat.T)
    order = np.argsort(energies, kind="stable")
    return u_mat[:, order], energies[order], np.asarray(tags)[order]


# -- Golden fixtures -----------------------------------------------------------


def test_path2_golden(path2):
    b = build(path2)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(b.u, [[s, s], [s, -s]], atol=1e-10)
    np.testing.assert_allclose(b.energies, [0.0, 2.0], atol=1e-10)
    np.testing.assert_array_equal(b.phi.perm, [1, 0])
    np.testing.assert_array_equal(b.phi.signs, [1.0, 1.0])


def test_path4_golden(path4):
    b = build(path4)
    np.testing.assert_allclose(b.u, PATH4_U, atol=1e-9)
    np.testing.assert_allclose(b.energies, [0.0, 1.0, 2.0, 3.0], atol=1e-10)
    np.testing.assert_array_equal(b.phi.perm, [3, 2, 1, 0])
    np.testing.assert_array_equal(b.phi.signs, [1.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(b.pair_tags, [0, 1, 1, 0])


def test_ring4_golden(ring4):
    b = build(ring4)
    np.testing.assert_allclose(b.energies, [0.0, 2.0, 2.0, 4.0], atol=1e-10)
    np.testing.assert_array_equal(b.phi.perm, [3, 2, 1, 0])


def test_k3_energies(k3):
    b = build(k3)
    lo = (3.0 - 2.0 * np.sqrt(2.0)) / 2.0
    hi = (3.0 + 2.0 * np.sqrt(2.0)) / 2.0
    np.testing.assert_allclose(b.energies, [lo, hi, 3.0], atol=1e-9)
    np.testing.assert_array_equal(b.pair_tags, [0, 0, -1])  # one solver pair, one leftover
    assert sum(b.energies) == pytest.approx(np.trace(gf.laplacian(k3)), abs=1e-9)


def test_ring16_energies_match_eigenvalues():
    # Even cycles are 2-regular bipartite: the construction reproduces an
    # eigenbasis, so sorted energies equal the Laplacian spectrum.
    g = gf.generate("ring", 16)
    l_matrix = gf.laplacian(g)
    b = fourier.compute_basis(l_matrix, sampling.greedy_max_cut(l_matrix))
    np.testing.assert_allclose(b.energies, np.linalg.eigvalsh(l_matrix), atol=1e-8)


def test_path4_energies_differ_from_eigenvalues(path4):
    # Bipartite but not regular: spectrum is (0, 2-sqrt(2), 2, 2+sqrt(2)),
    # while the folding basis carries energies (0, 1, 2, 3).
    b = build(path4)
    eigs = np.linalg.eigvalsh(gf.laplacian(path4))
    assert np.abs(b.energies - eigs).max() > 0.4


# -- Invariants on random graphs ------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basis_invariants_random(seed):
    g = gf.generate("random_geometric", 24, seed=seed)
    l_matrix = gf.laplacian(g)
    pat = sampling.greedy_max_cut(l_matrix)
    b = fourier.compute_basis(l_matrix, pat)
    n = g.n
    assert np.abs(b.u.T @ b.u - np.eye(n)).max() <= 1e-8
    j = np.diag(pat.sign)
    assert np.abs(j @ b.u - b.u @ phi_matrix(b.phi)).max() <= 1e-6
    assert (np.diff(b.energies) >= -1e-10).all()
    assert sum(b.energies) == pytest.approx(np.trace(l_matrix), rel=1e-10)
    # column energies really are Dirichlet energies
    for i in (0, n // 2, n - 1):
        assert b.energies[i] == pytest.approx(float(b.u[:, i] @ l_matrix @ b.u[:, i]), abs=1e-8)


@pytest.mark.parametrize("n", [24, 64])
@pytest.mark.parametrize("seed", [1, 2])
def test_basis_matches_reference_construction(n, seed):
    g = gf.generate("random_geometric", n, seed=seed)
    l_matrix = gf.laplacian(g)
    pat = sampling.greedy_max_cut(l_matrix)
    b = fourier.compute_basis(l_matrix, pat)
    u_ref, e_ref, tags_ref = _reference_basis(l_matrix, pat)
    assert np.abs(b.u - u_ref).max() <= 1e-9
    assert np.abs(b.energies - e_ref).max() <= 1e-9
    np.testing.assert_array_equal(b.pair_tags, tags_ref)


@pytest.mark.parametrize("kind,n", [("ring", 16), ("grid", 36)])
def test_basis_on_degenerate_spectra_matches_reference_energies(kind, n):
    # Degenerate energies leave each pair free to rotate inside its
    # eigenspace, so only the energies and the invariants are compared.
    g = gf.generate(kind, n)
    l_matrix = gf.laplacian(g)
    pat = sampling.greedy_max_cut(l_matrix)
    b = fourier.compute_basis(l_matrix, pat)
    _, e_ref, _ = _reference_basis(l_matrix, pat)
    assert np.abs(b.energies - e_ref).max() <= 1e-9
    assert np.abs(b.u.T @ b.u - np.eye(n)).max() <= 1e-12
    assert np.abs(pat.sign[:, None] * b.u - b.u @ phi_matrix(b.phi)).max() <= 1e-12


def test_phi_is_symmetric_involution():
    g = gf.generate("random_geometric", 18, seed=5)
    b = build(g)
    m = phi_matrix(b.phi)
    np.testing.assert_allclose(m, m.T, atol=0)
    np.testing.assert_allclose(m @ m, np.eye(g.n), atol=0)


@pytest.mark.parametrize("kind,n,low", [
    ("ring", 9, (0, 2, 4)),  # the high block is left over: Ju = -u
    ("ring", 9, (0, 1, 2, 4, 6, 7)),  # the low block is left over: Ju = +u
    ("complete", 10, None),
    ("grid", 36, None),
    ("path", 9, None),
])
def test_recorded_phi_is_the_rounded_folding(kind, n, low):
    # Phi is recorded as the columns are written; rounding U^T J U, which
    # the construction once did itself, must give the same signed permutation.
    l_matrix = gf.laplacian(gf.generate(kind, n))
    if low is None:
        pat = sampling.greedy_max_cut(l_matrix)
    else:
        pat = sampling.SamplingPattern.from_dict({"n": n, "keep_low": list(low)})
    b = fourier.compute_basis(l_matrix, pat)
    t = b.u.T @ (pat.sign[:, None] * b.u)
    np.testing.assert_array_equal(np.round(t), phi_matrix(b.phi))
    fixed = b.pair_tags < 0
    if low is not None:
        expect = 1 if len(low) > n - len(low) else -1
        assert fixed.sum() == abs(n - 2 * len(low)) and (b.phi.signs[fixed] == expect).all()


def test_basis_rejects_a_column_off_its_recorded_phi(monkeypatch):
    # A built column that drifts off unit norm must fail the build's
    # orthonormality gate rather than pass into the basis.
    split_off = fourier._split_off
    calls = []

    def drifting(b, x):
        col, rest, v = split_off(b, x)
        calls.append(None)
        return (1.5 * col if len(calls) == 1 else col), rest, v

    monkeypatch.setattr(fourier, "_split_off", drifting)
    l_matrix = gf.laplacian(gf.generate("random_geometric", 16, seed=3))
    with pytest.raises(NumericalError, match="orthonormality"):
        fourier.compute_basis(l_matrix, sampling.greedy_max_cut(l_matrix))


def test_basis_orthonormality_gate_is_1e_8(monkeypatch):
    # Stretching one pair's low-channel part by 1e-7 leaves u and s * u
    # 1e-7 from orthogonal: inside the 1e-6 that the build once allowed on
    # U^T J U, outside the 1e-8 that verify_pyramid applies too.
    split_off = fourier._split_off
    calls = []

    def stretched(b, x):
        col, rest, v = split_off(b, x)
        calls.append(None)
        return ((1.0 + 1e-7) * col if len(calls) == 1 else col), rest, v

    monkeypatch.setattr(fourier, "_split_off", stretched)
    l_matrix = gf.laplacian(gf.generate("random_geometric", 16, seed=3))
    with pytest.raises(NumericalError, match="orthonormality error 1.0"):
        fourier.compute_basis(l_matrix, sampling.greedy_max_cut(l_matrix))


@pytest.mark.parametrize("kind,n", [
    ("ring", 8), ("ring", 16), ("ring", 40), ("ring", 400), ("grid", 36), ("grid", 256),
    ("complete", 10), ("complete", 120), ("path", 9),
    ("random_geometric", 24), ("random_geometric", 64), ("random_geometric", 192),
])
def test_folding_is_exact_on_every_pyramid_level(kind, n):
    # Each pair is written as (u, s * u) and each completion column lives on
    # one channel, so J U = U Phi holds bit for bit and needs no build gate.
    p = gf.build_pyramid(gf.generate(kind, n, seed=1), 3)
    assert p.depth == 3
    for level in p.levels:
        u, phi = level.basis.u, level.basis.phi
        assert np.array_equal(level.pattern.sign[:, None] * u, u[:, phi.perm] * phi.signs)


def test_pair_energies_straddle_uniquely():
    # Each solver pair contributes one column kept on each side of the
    # energy ordering; tags appear exactly twice (leftovers once, tag -1).
    g = gf.generate("random_geometric", 20, seed=7)
    b = build(g)
    tags = [t for t in b.pair_tags if t >= 0]
    for t in set(tags):
        assert tags.count(t) == 2


# -- Subspace classification -----------------------------------------------------


def test_classify_mixed():
    # Invariant span holding one fixed and one negated direction.
    sign = np.array([1.0, 1.0, -1.0])
    a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    assert fourier.classify_subspace(a, sign) is fourier.SubspaceClass.MIXED


def test_classify_rejects_non_invariant_span():
    sign = np.array([1.0, 1.0, -1.0])
    a = np.array([[0.0], [1 / np.sqrt(2)], [1 / np.sqrt(2)]])
    with pytest.raises(NumericalError):
        fourier.classify_subspace(a, sign)


def test_classify_all_plus():
    sign = np.array([1.0, 1.0, -1.0])
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert fourier.classify_subspace(a, sign) is fourier.SubspaceClass.ALL_PLUS


def test_classify_all_minus():
    sign = np.array([1.0, 1.0, -1.0])
    a = np.array([[0.0], [0.0], [1.0]])
    assert fourier.classify_subspace(a, sign) is fourier.SubspaceClass.ALL_MINUS


# -- Complement basis -------------------------------------------------------------


def test_complement_of_nothing_is_full():
    a = fourier.complement_basis(None, 4)
    assert a.shape == (4, 4)
    np.testing.assert_allclose(a.T @ a, np.eye(4), atol=1e-12)


def test_complement_spec_fixture():
    built = np.column_stack([np.full(4, 0.5), 0.5 * np.array([1.0, -1.0, 1.0, -1.0])])
    a = fourier.complement_basis(built, 4)
    assert a.shape == (4, 2)
    np.testing.assert_allclose(a.T @ a, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(built.T @ a, 0.0, atol=1e-12)


def test_complement_of_everything_is_empty():
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))
    a = fourier.complement_basis(q, 5)
    assert a.shape == (5, 0)


# -- Signed permutation ------------------------------------------------------------


def test_signed_permutation_apply():
    sp = fourier.SignedPermutation(perm=np.array([1, 0]), signs=np.array([-1.0, -1.0]))
    v = np.array([3.0, 4.0])
    np.testing.assert_allclose(sp.signs * v[sp.perm], [-4.0, -3.0])


def test_signed_permutation_rejects_non_involution():
    with pytest.raises(InputError):
        fourier.SignedPermutation(perm=np.array([1, 2, 0]), signs=np.ones(3))


def test_signed_permutation_rejects_sign_mismatch():
    # signs must be consistent under the permutation: signs[perm] == signs.
    with pytest.raises(InputError):
        fourier.SignedPermutation(perm=np.array([1, 0]), signs=np.array([1.0, -1.0]))


def test_signed_permutation_rejects_bad_sign_values():
    with pytest.raises(InputError):
        fourier.SignedPermutation(perm=np.array([0, 1]), signs=np.array([1.0, 0.5]))


@pytest.mark.parametrize(
    "perm, signs, message",
    [
        ([0, 1], [1], "perm and signs must be vectors of equal length"),
        ([0, 1], [[1, 1]], "perm and signs must be vectors of equal length"),
        ([0, 0], [1, 1], "perm is not a permutation"),
        ([0, 2], [1, 1], "perm is not a permutation"),
    ],
)
def test_signed_permutation_refuses_vectors_that_are_not_a_permutation(perm, signs, message):
    with pytest.raises(InputError, match=message):
        fourier.SignedPermutation(perm, signs)


@pytest.mark.parametrize("a", [np.zeros((3, 0)), np.zeros(3)], ids=["no-columns", "1-d"])
def test_classify_refuses_a_basis_without_columns(a):
    with pytest.raises(InputError, match="need at least one column to classify"):
        fourier.classify_subspace(a, np.array([1.0, 1.0, -1.0]))


def test_complement_refuses_built_columns_of_another_height():
    with pytest.raises(InputError, match="built columns have 4 rows, expected 3"):
        fourier.complement_basis(np.zeros((4, 1)), 3)


# -- Transform: coefficients U^T f, synthesis U c --------------------------------


def test_transform_round_trip():
    g = gf.generate("random_geometric", 16, seed=4)
    b = build(g)
    f = np.random.default_rng(0).standard_normal(g.n)
    coeff = b.u.T @ f
    back = b.u @ coeff
    np.testing.assert_allclose(back, f, atol=1e-10)


def test_transform_diagonalizes_columns():
    g = gf.generate("ring", 8)
    b = build(g)
    e = b.u.T @ b.u[:, 3]
    expected = np.zeros(8)
    expected[3] = 1.0
    np.testing.assert_allclose(e, expected, atol=1e-10)


# -- Input contracts ---------------------------------------------------------------


def test_compute_basis_rejects_mismatched_pattern(ring4):
    l_matrix = gf.laplacian(ring4)
    pat = sampling.SamplingPattern.from_dict({"n": 3, "keep_low": [0, 1]})
    with pytest.raises(InputError):
        fourier.compute_basis(l_matrix, pat)


@pytest.mark.parametrize("entry", [np.nan, np.inf, "asymmetric"])
def test_compute_basis_rejects_a_non_finite_or_asymmetric_laplacian(entry):
    # The level's problem is checked once, before any pair is solved.
    l_matrix = gf.laplacian(gf.generate("random_geometric", 16, seed=3))
    pattern = sampling.greedy_max_cut(l_matrix)
    if entry == "asymmetric":
        l_matrix[0, 1] += 1e-6
        match = "not symmetric"
    else:
        l_matrix[2, 2] = entry
        match = "finite"
    with pytest.raises(InputError, match=match):
        fourier.compute_basis(l_matrix, pattern)


def test_compute_basis_rejects_a_small_laplacian_off_symmetry():
    # Weights times 1e-12, one off-diagonal entry off by 1e-6 relative: the
    # asymmetry counts against max |Q|, not against a floor of 1.
    g = gf.generate("random_geometric", 64, seed=1)
    l_matrix = gf.laplacian(gf.Graph.from_arrays(g.n, g.lo, g.hi, 1e-12 * g.w))
    pattern = sampling.greedy_max_cut(l_matrix)
    i, j = np.argwhere(l_matrix < 0)[0]
    l_matrix[i, j] *= 1.0 + 1e-6
    with pytest.raises(InputError, match="not symmetric"):
        fourier.compute_basis(l_matrix, pattern)


def test_compute_basis_checks_its_problem_once(monkeypatch):
    # One Q check for the level, and no QecqpProblem built; the pairs are
    # deflations of the level, exactly symmetric and finite by construction,
    # and go unchecked.
    checks = []
    checked_q = qecqp._checked_q

    def counting(q):
        checks.append(q.shape)
        return checked_q(q)

    def refusing(self):
        raise AssertionError("compute_basis built a QecqpProblem")

    monkeypatch.setattr(qecqp, "_checked_q", counting)
    monkeypatch.setattr(qecqp.QecqpProblem, "__post_init__", refusing)
    l_matrix = gf.laplacian(gf.generate("random_geometric", 64, seed=1))
    b = fourier.compute_basis(l_matrix, sampling.greedy_max_cut(l_matrix))
    assert np.count_nonzero(b.pair_tags >= 0) >= 40
    assert checks == [(64, 64)]


def test_first_column_energy_is_feasible_minimum():
    # The first solver column minimizes the Dirichlet energy over the
    # feasible set; a sampling oracle can only do worse.
    from graphfb import qecqp

    for n, seed in ((4, 0), (5, 1), (6, 2)):
        g = gf.generate("random_geometric", n, seed=seed)
        l_matrix = gf.laplacian(g)
        pat = sampling.greedy_max_cut(l_matrix)
        b = fourier.compute_basis(l_matrix, pat)
        r = np.diag(pat.sign) + np.eye(n)
        oracle = oracle_min(qecqp.QecqpProblem(l_matrix, r), samples=20000, seed=seed)
        first_pair = np.nonzero(np.asarray(b.pair_tags) == 0)[0]
        assert b.energies[first_pair].min() <= oracle + 1e-5


def test_solver_columns_are_balanced_leftovers_are_fixed():
    g = gf.generate("random_geometric", 21, seed=11)
    l_matrix = gf.laplacian(g)
    pat = sampling.greedy_max_cut(l_matrix)
    b = fourier.compute_basis(l_matrix, pat)
    tags = np.asarray(b.pair_tags)
    for i in range(g.n):
        u = b.u[:, i]
        balance = float(u @ (pat.sign * u))
        if tags[i] >= 0:
            assert abs(balance) <= 1e-6  # u^T J u = 0 for solver pairs
        else:
            assert abs(abs(balance) - 1.0) <= 1e-6  # J u = +-u for leftovers


# Builds whose pairs end at their own start at k >= 128 and so take the
# projected route, down to a last pair of size 2.  Run in a fresh process
# per BLAS thread count, since OpenBLAS reads it once, at load: a k = 2
# failure of the dual search showed at one thread count and not the other.
_ROUTE_SCRIPT = """
import graphfb as gf
from graphfb.sampling import SamplingPattern

lap = gf.laplacian(gf.generate("ring", 300))
gf.compute_basis(lap, SamplingPattern.from_dict({"n": 300, "keep_low": list(range(0, 300, 2))}))
for kind, n in [("ring", 300), ("ring", 400), ("grid", 256), ("grid", 400)]:
    assert gf.verify_pyramid(gf.build_pyramid(gf.generate(kind, n), 3))["ok"], (kind, n)
print("ok")
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_large_lattices_certify_at_either_blas_thread_count(threads):
    src = str(Path(gf.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", _ROUTE_SCRIPT], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0 and done.stdout.strip() == "ok", done.stderr
