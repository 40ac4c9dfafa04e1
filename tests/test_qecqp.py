"""Global solver for the doubly constrained quadratic subproblem.

The central oracle is the closed-form dual of the 2x2 instance
Q = [[1,-1],[-1,1]], R = diag(2,0): the matrix Q + mu2*R has eigenvalues
1 + mu2 +- sqrt(mu2^2 + 1), so

    f(mu2) = -mu2 + lambda_min = 1 - sqrt(mu2^2 + 1)
    f'(mu2) = -mu2 / sqrt(mu2^2 + 1)

with a smooth maximum f(0) = 0. All expected values below follow from this
form by hand; nothing is copied from solver output.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import graphfb as gf
from graphfb import multires, qecqp, sampling
from graphfb.errors import EigensolverError, InputError, SolverError
from conftest import oracle_min, random_problem

Q_PATH = np.array([[1.0, -1.0], [-1.0, 1.0]])
R_20 = np.diag([2.0, 0.0])


def dual_closed_form(mu2: float) -> tuple[float, float]:
    root = np.sqrt(mu2**2 + 1.0)
    return 1.0 - root, -mu2 / root


# -- Problem validation -------------------------------------------------------


def test_problem_accepts_straddling_r():
    p = qecqp.QecqpProblem(Q_PATH, R_20)
    assert p.dim == 2


def test_problem_rejects_asymmetric_q():
    with pytest.raises(InputError):
        qecqp.QecqpProblem(np.array([[1.0, 2.0], [0.0, 1.0]]), R_20)


def test_problem_holds_a_small_q_to_the_relative_symmetry_bound():
    # max |Q - Q^T| <= 1e-12 max |Q|, with no floor of 1: with one, this Q
    # (off-diagonals 5e-13 and 0) passed and was symmetrized to 2.5e-13.
    with pytest.raises(InputError, match="Q is not symmetric"):
        qecqp.QecqpProblem(np.array([[1e-13, 5e-13], [0.0, 1e-13]]), R_20)
    small = 1e-13 * Q_PATH
    assert np.array_equal(qecqp.QecqpProblem(small, R_20).q, small)
    assert not qecqp.QecqpProblem(np.zeros((2, 2)), R_20).q.any()


def test_problem_rejects_indefinite_r():
    with pytest.raises(InputError):
        qecqp.QecqpProblem(Q_PATH, np.diag([2.0, -0.5]))


def test_problem_rejects_r_below_one():
    # All R eigenvalues below 1: x^T R x = 1 unreachable on the sphere.
    with pytest.raises(InputError):
        qecqp.QecqpProblem(Q_PATH, np.diag([0.5, 0.25]))


def test_problem_rejects_r_above_one():
    with pytest.raises(InputError):
        qecqp.QecqpProblem(Q_PATH, np.diag([2.0, 3.0]))


def test_problem_rejects_r_eigenvalue_at_one():
    # Spectrum must straddle 1 strictly.
    with pytest.raises(InputError):
        qecqp.QecqpProblem(Q_PATH, np.diag([1.0, 2.0]))
    with pytest.raises(InputError):
        qecqp.QecqpProblem(Q_PATH, np.eye(2))


def test_problem_rejects_shape_mismatch():
    with pytest.raises(InputError):
        qecqp.QecqpProblem(Q_PATH, np.diag([2.0, 0.0, 0.0]))


def test_problem_rejects_empty_data():
    with pytest.raises(InputError, match="must not be empty"):
        qecqp.QecqpProblem(np.zeros((0, 0)), np.zeros((0, 0)))


def test_problem_rejects_non_finite_data():
    with pytest.raises(InputError, match="finite"):
        qecqp.QecqpProblem(np.array([[np.nan, 0.0], [0.0, 1.0]]), R_20)
    with pytest.raises(InputError, match="finite"):
        qecqp.QecqpProblem(Q_PATH, np.diag([np.inf, 0.0]))


@pytest.mark.parametrize(
    "spectrum, message",
    [
        ([1.0, 2.0, 0.0], "eigenvalue at 1"),
        ([2.0, -0.5, 0.0], "not positive semidefinite"),
        ([0.5, 0.25, 0.0], "straddle 1"),
        ([2.0, 3.0, 1.5], "straddle 1"),
    ],
)
def test_problem_rejects_r_spectrum_diagonal_and_rotated(spectrum, message):
    # Both forms must give the same verdict.
    q = np.eye(3)
    rot, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))
    r_diag = np.diag(spectrum)
    r_rot = rot @ r_diag @ rot.T
    r_rot = 0.5 * (r_rot + r_rot.T)
    assert np.count_nonzero(r_rot - np.diag(np.diagonal(r_rot)))  # really not diagonal
    for r in (r_diag, r_rot):
        with pytest.raises(InputError, match=message):
            qecqp.QecqpProblem(q, r)


def test_problem_keeps_r_norm_of_channel_matrix():
    s = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
    p = qecqp.QecqpProblem(np.eye(5), np.diag(s) + np.eye(5))
    assert p.r_norm == 2.0
    rot, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))
    p = qecqp.QecqpProblem(np.eye(5), rot @ np.diag([2.0, 2.0, 0.5, 0.0, 0.0]) @ rot.T)
    assert p.r_norm == pytest.approx(2.0, rel=1e-14)


def test_problem_keeps_huge_symmetric_entries_finite():
    # The symmetric part is formed from halves: 0.5 * (Q + Q^T) would
    # overflow to inf on these entries.
    q = np.array([[1.5e308, -1.5e308], [-1.5e308, 1.5e308]])
    with np.errstate(over="ignore"):
        assert not np.isfinite(0.5 * (q + q.T)).all()
    p = qecqp.QecqpProblem(q, R_20)
    assert np.array_equal(p.q, q) and p.q is not q


def test_problem_keeps_its_own_copy_of_the_data():
    # Exactly symmetric Q and a diagonal R, as the basis construction builds
    # them: writing into the given arrays afterwards (R no longer diagonal,
    # Q changed) must reach neither the problem nor its solution.
    z = np.random.default_rng(6).standard_normal((30, 30))
    q = z + z.T
    r = np.diag(np.where(np.arange(30) < 12, 2.0, 0.0))
    p = qecqp.QecqpProblem(q, r)
    before = qecqp.solve(p)
    r[0, 1] = r[1, 0] = 0.5
    q += np.eye(30)
    assert np.count_nonzero(p.r) == 12 and not np.array_equal(p.q, q)
    after = qecqp.solve(p)
    assert np.array_equal(after.x, before.x)
    assert (after.mu1, after.mu2) == (before.mu1, before.mu2)


@pytest.mark.parametrize("c", [2.0**-40, 1e-12, 1e-4, 1e4, 1e8, 1e12])
def test_solve_is_invariant_to_the_scale_of_q(c):
    # Every gate has no units or scales with the problem's own data, so Q
    # times c gives the same solution with every output that scales with Q
    # times c.  With absolute floors (max(1, .), 1 + ||H||_2) a Q of norm
    # << 1 passed them vacuously (objective / c certified at 61.3 for
    # c = 2^-40 and 49.0 for c = 1e-12, against a minimum of 0.0656).
    z = np.random.default_rng(3).standard_normal((60, 60))
    r = np.diag(np.repeat([2.0, 0.0], [25, 35]))
    ref = qecqp.solve(qecqp.QecqpProblem(z @ z.T, r))
    sol, trace = cold_solve(qecqp.QecqpProblem(c * (z @ z.T), r))
    assert sol.objective / c == pytest.approx(ref.objective, rel=1e-9)
    assert sol.fval / c == pytest.approx(ref.fval, rel=1e-9)
    assert sol.mu1 / c == pytest.approx(ref.mu1, rel=1e-6)
    assert sol.mu2 / c == pytest.approx(ref.mu2, rel=1e-6)
    assert sol.gap / c <= 1e-9 and sol.stationarity / c <= 1e-9
    assert trace[-1] == (sol.mu2, sol.fval)


def test_solve_certifies_q_zero():
    # H = 0 exactly: only the smallest normal float in the rounding floor
    # keeps the Cholesky shift of the positive semidefiniteness gate above 0.
    r = np.diag([2.0, 0.0, 0.0])
    sol = qecqp.solve(qecqp.QecqpProblem(np.zeros((3, 3)), r))
    assert (sol.objective, sol.mu1, sol.mu2) == (0.0, 0.0, 0.0)
    assert sol.x @ r @ sol.x == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("c", [1e-101, 1e101, 1e300])
def test_solve_refuses_q_outside_the_certified_range(c):
    # Past [1e-100, 1e100] the squares the solver forms overflow or lose
    # every digit: weights of 1e300 ended in an overflow warning and a
    # stationarity residual of inf.
    p = qecqp.QecqpProblem(c * Q_PATH, R_20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match=r"outside \[1e-100, 1e100\]"):
            qecqp.solve(p)


# -- Dual objective against the closed form -----------------------------------


def solver_problem(p: qecqp.QecqpProblem) -> qecqp._Problem:
    """The record the solver works on, built as ``solve`` builds it."""
    return qecqp._Problem(p.q, p.r, p.r_norm)


def cold_solve(p: qecqp.QecqpProblem) -> tuple[qecqp.QecqpSolution, list[tuple[float, float]]]:
    """solve(p), run as solve runs it, with the (mu2, f) rows it returns,
    one per full-size dual evaluation."""
    sol, _, rows = qecqp._solve(solver_problem(p), 1e-10, qecqp._COLD)
    return sol, rows


def dual_value(p: qecqp.QecqpProblem, mu2: float) -> float:
    """f(mu2) = -mu2 + lambda_min(Q + mu2 R) from one dual evaluation."""
    return -mu2 + qecqp._dual_eval(p.q, p.r, mu2).lam


def test_dual_objective_matches_closed_form():
    p = qecqp.QecqpProblem(Q_PATH, R_20)
    for mu2 in (-2.0, -0.5, 0.0, 0.3, 1.0, 4.0):
        e = qecqp._dual_eval(p.q, p.r, mu2)
        f_exp, g_exp = dual_closed_form(mu2)
        assert dual_value(p, mu2) == pytest.approx(f_exp, abs=1e-12)
        assert e.g_lo == e.g_hi  # a smooth point
        assert e.g_lo == pytest.approx(g_exp, abs=1e-9)


def test_dual_objective_frozen_values():
    p = qecqp.QecqpProblem(Q_PATH, R_20)
    assert dual_value(p, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert dual_value(p, 1.0) == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-12)
    assert dual_value(p, -2.0) == pytest.approx(1.0 - np.sqrt(5.0), abs=1e-12)


def test_dual_concavity_probe():
    p = random_problem(5, seed=21)
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rng.uniform(-4.0, 4.0, size=2)
        t = rng.uniform()
        fa = dual_value(p, a)
        fb = dual_value(p, b)
        fm = dual_value(p, t * a + (1 - t) * b)
        assert fm >= t * fa + (1 - t) * fb - 1e-12


def test_dual_curvature_matches_closed_form_and_finite_difference():
    # Closed form: g(mu2) = f'(mu2) = -mu2 / sqrt(mu2^2 + 1), so
    # g'(mu2) = -(mu2^2 + 1)^(-3/2).
    p = qecqp.QecqpProblem(Q_PATH, R_20)
    for mu2 in (-2.0, 0.0, 0.3, 4.0):
        e = qecqp._dual_eval(p.q, p.r, mu2)
        assert e.dg == pytest.approx(-((mu2**2 + 1.0) ** -1.5), rel=1e-9)
    p = random_problem(5, seed=21)
    h = 1e-5
    for mu2 in (-1.0, 0.5, 2.0):
        e = qecqp._dual_eval(p.q, p.r, mu2)
        assert e.g_lo == e.g_hi  # a smooth point
        g_plus = qecqp._dual_eval(p.q, p.r, mu2 + h).g_lo
        g_minus = qecqp._dual_eval(p.q, p.r, mu2 - h).g_lo
        assert e.dg == pytest.approx((g_plus - g_minus) / (2.0 * h), rel=1e-6)


# -- Exact 2 x 2 solve ----------------------------------------------------------


def test_solve_certifies_a_near_scalar_2x2_problem():
    # Q + mu2 R has eigenvalues 1e-12 apart at mu2 = 0, within the cluster
    # bound 1e-9 max |w|, though H there is not near zero: a dual search
    # stopped at a kink that is not one and failed its stationarity gate.
    # x = (1, 1) / sqrt(2), and H x = 0 gives 0.5 + mu1 + 2 mu2 = 0 and
    # 0.5 + 1e-12 + mu1 = 0: mu1 = -(0.5 + 1e-12), mu2 = 5e-13, and the
    # objective -mu1 - mu2 = 0.5 + 5e-13.
    p = qecqp.QecqpProblem(np.diag([0.5, 0.5 + 1e-12]), R_20)
    sol = qecqp.solve(p)
    # mu2 is a difference of numbers of size 0.5, so it is pinned within a
    # few rounding units of ||Q||, not relative to itself.
    assert np.allclose(np.abs(sol.x), np.sqrt(0.5), rtol=0, atol=1e-15)
    assert sol.mu1 == pytest.approx(-(0.5 + 1e-12), rel=1e-15, abs=0)
    assert sol.mu2 == pytest.approx(5e-13, rel=0, abs=1e-15)
    assert sol.objective == pytest.approx(0.5 + 5e-13, rel=1e-15, abs=0)


@pytest.mark.parametrize("size", [1e-14, 1e-12, 1e-10])
def test_solve_certifies_near_scalar_2x2_problems(size):
    # Q = 0.5 I + E with symmetric ||E||_2 = size: the minimum is the lower
    # of the two feasible pairs +-(1, +-1) / sqrt(2).
    rng = np.random.default_rng(20261020)
    for _ in range(100):
        e = rng.standard_normal((2, 2))
        e = (e + e.T) * (size / np.linalg.norm(e + e.T, 2))
        q = 0.5 * np.eye(2) + e
        sol = qecqp.solve(qecqp.QecqpProblem(q, R_20))
        lower = min(float(x @ q @ x) for x in (np.array([1.0, 1.0]), np.array([1.0, -1.0]))) / 2.0
        assert sol.objective == pytest.approx(lower, rel=1e-15, abs=0)


@pytest.mark.parametrize("seed", range(5))
def test_2x2_solve_is_the_global_minimum_and_needs_no_search(seed, monkeypatch):
    def no_search(*args):
        raise AssertionError("a 2 x 2 problem ran the dual search")

    monkeypatch.setattr(qecqp, "_search", no_search)
    monkeypatch.setattr(qecqp, "_dual_eval", no_search)
    p = random_problem(2, seed=300 + seed)
    sol = qecqp.solve(p)
    assert sol.objective <= oracle_min(p, samples=2000, seed=seed) + 1e-12
    w = np.linalg.eigvalsh(p.q + sol.mu1 * np.eye(2) + sol.mu2 * p.r)
    assert abs(w[0]) <= 1e-12 * w[-1]


# -- Dual maximization, read off the solution's dual point ---------------------
#
# ``solve`` settles a 2 x 2 problem without a search, so the 2 x 2 closed
# forms below check the search itself through _search as well.


def search(p: qecqp.QecqpProblem, tol: float = 1e-10, trace=None) -> qecqp._DualEval:
    """The cold dual search's final evaluation, as _solve runs it: _search
    from one full evaluation at mu2 = 0, with one (mu2, f) row per full
    evaluation appended to ``trace`` when it is a list."""
    rows = [] if trace is None else trace

    def ev(m: float) -> qecqp._DualEval:
        e = qecqp._dual_eval(p.q, p.r, m)
        rows.append((m, -m + e.lam))
        return e

    return qecqp._search(ev, ev(0.0), qecqp._Limits(tol, p.r_norm))


def test_maximize_dual_smooth_maximum():
    p = qecqp.QecqpProblem(Q_PATH, R_20)
    d = qecqp.solve(p)
    e = search(p)
    for mu1, mu2, fval in [(d.mu1, d.mu2, d.fval), (-e.lam, e.mu2, -e.mu2 + e.lam)]:
        assert mu2 == pytest.approx(0.0, abs=1e-6)
        assert fval == pytest.approx(0.0, abs=1e-12)
        assert mu1 == pytest.approx(0.0, abs=1e-6)


def test_maximize_dual_kink_maximum():
    # Q = diag(0,4), R = diag(2,0): f(mu2) = -mu2 + min(2 mu2, 4),
    # piecewise linear with the maximum f(2) = 2 at the kink.
    p = qecqp.QecqpProblem(np.diag([0.0, 4.0]), R_20)
    d = qecqp.solve(p)
    e = search(p)
    for mu1, mu2, fval in [(d.mu1, d.mu2, d.fval), (-e.lam, e.mu2, -e.mu2 + e.lam)]:
        assert mu2 == pytest.approx(2.0, abs=1e-6)
        assert fval == pytest.approx(2.0, abs=1e-8)
        assert mu1 == pytest.approx(-4.0, abs=1e-6)


def test_maximize_dual_mu2_within_tolerance():
    tol = 1e-10
    assert abs(search(qecqp.QecqpProblem(Q_PATH, R_20), tol).mu2) <= tol
    # At the kink the search stops as soon as the two eigenvalues 2 mu2 and 4
    # of Q + mu2 R cluster, i.e. |2 mu2 - 4| <= 1e-9 * 4: within 2e-9 of 2.
    # The exact 2 x 2 solve lands on it within rounding.
    p = qecqp.QecqpProblem(np.diag([0.0, 4.0]), R_20)
    assert abs(search(p, tol).mu2 - 2.0) <= 2e-9
    assert abs(qecqp.solve(p, tol=tol).mu2 - 2.0) <= 1e-15


def test_maximize_dual_h_is_psd_with_zero_min():
    p = random_problem(6, seed=3)
    d = qecqp.solve(p)
    w = np.linalg.eigvalsh(p.q + d.mu1 * np.eye(p.dim) + d.mu2 * p.r)
    scale = max(1.0, abs(w).max())
    assert w[0] >= -1e-8 * scale
    assert w[0] <= 1e-6 * scale  # lambda_min(H) = 0 by construction


def test_maximize_dual_trace_collects_evaluations():
    # The search starts at mu2 = 0, where this fixture has its maximum
    # f(0) = 0 with supergradient 0: one evaluation settles it.  The exact
    # 2 x 2 solve records the same point as its one row.
    p = qecqp.QecqpProblem(Q_PATH, R_20)
    trace: list[tuple[float, float]] = []
    search(p, trace=trace)
    assert trace == [(0.0, 0.0)]
    assert cold_solve(p)[1] == [(0.0, 0.0)]


def test_maximize_dual_trace_off_zero_maximum():
    p = random_problem(6, seed=3)
    d, trace = cold_solve(p)
    assert abs(d.mu2) > 1e-3  # the maximum is not at the starting point
    assert trace[0][0] == 0.0
    assert len(trace) >= 2
    assert max(f for _, f in trace) <= d.fval + 1e-12  # dual values never exceed the maximum


def test_maximize_dual_rejects_bad_tol():
    p = qecqp.QecqpProblem(Q_PATH, R_20)
    with pytest.raises(InputError):
        qecqp.solve(p, tol=0.0)


@pytest.mark.parametrize("tol", [-1e-10, float("nan"), float("inf"), 1e-4, 1.0, True, np.True_, "1e-10", None])
def test_solve_rejects_a_tolerance_outside_its_range(tol):
    # From tol = 1e-4 on, the feasibility gate 1e4 tol reaches 1 and any
    # unit x passes it (R = diag(2, 0)); NaN made every gate fail, inf or
    # True (tol = 1) made every certificate vacuous.
    p = qecqp.QecqpProblem(Q_PATH, R_20)
    with pytest.raises(InputError, match="tol must"):
        qecqp.solve(p, tol=tol)


def test_solve_accepts_a_tolerance_just_inside_its_range():
    p = qecqp.QecqpProblem(Q_PATH, R_20)
    assert qecqp.solve(p, tol=np.float32(9e-5)).feas_error <= 1e-8


def test_translation_shifts_mu1_only():
    p = random_problem(5, seed=8)
    c = 3.7
    shifted = qecqp.QecqpProblem(p.q + c * np.eye(5), p.r)
    d0 = qecqp.solve(p)
    d1 = qecqp.solve(shifted)
    assert d1.mu2 == pytest.approx(d0.mu2, abs=1e-6)
    assert d1.mu1 == pytest.approx(d0.mu1 - c, abs=1e-6)
    assert d1.fval == pytest.approx(d0.fval + c, rel=1e-8, abs=1e-8)


# -- Feasible point extraction ------------------------------------------------


def null_point(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The feasible point solve reads off the eigenpairs of H."""
    w, v = np.linalg.eigh(h)
    return qecqp._null_point_from_eigh(w, v, r)


def test_feasible_null_point_direct():
    # Null space of the path Laplacian is the constant; M = [1] exactly.
    x = null_point(Q_PATH, R_20)
    np.testing.assert_allclose(np.abs(x), np.full(2, 1 / np.sqrt(2)), atol=1e-12)
    assert x @ R_20 @ x == pytest.approx(1.0, abs=1e-12)


def test_feasible_null_point_interpolates_straddle():
    # H = 0 on a 2-space where R has eigenvalues {0, 2}: alpha^2 = 1/2.
    h = np.zeros((2, 2))
    x = null_point(h, R_20)
    assert x @ x == pytest.approx(1.0, abs=1e-12)
    assert x @ R_20 @ x == pytest.approx(1.0, abs=1e-12)


def test_feasible_null_point_enlarges_when_needed():
    # Null vector alone has x^T R x = 0; the next eigenvector is required.
    h = np.diag([0.0, 0.0, 3.0])
    r = np.diag([0.0, 2.0, 1.0])
    x = null_point(h, r)
    assert x @ r @ x == pytest.approx(1.0, abs=1e-10)
    assert x @ h @ x == pytest.approx(0.0, abs=1e-10)


def test_feasible_null_point_prefers_least_energy():
    # Both null vectors are feasible within the direct-accept band; the one
    # feasible to fewer digits comes first in B^T R B but has the lower
    # energy on H, and is the one returned.  Energies equal within rounding
    # keep that first candidate.
    r = np.diag([1.0 + 2e-9, 1.0 + 1e-9, 5.0])
    x = null_point(np.diag([0.0, 1e-8, 1.0]), r)
    np.testing.assert_array_equal(np.abs(x), [1.0, 0.0, 0.0])
    x = null_point(np.diag([0.0, 1e-17, 1.0]), r)
    np.testing.assert_array_equal(np.abs(x), [0.0, 1.0, 0.0])


def test_feasible_null_point_does_not_depend_on_eigenvector_signs():
    # A two-dimensional null space whose R-spectrum straddles 1: the point
    # mixes the straddling pair, and flipping the sign of either null
    # eigenvector (as another LAPACK route may) gives the same point.
    rng = np.random.default_rng(11)
    v = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    w = np.array([0.0, 0.0, 1.0, 2.0, 3.0])
    r = np.diag([2.0, 2.0, 0.0, 0.0, 0.0])
    x = qecqp._fix_sign(qecqp._null_point_from_eigh(w, v, r))
    assert abs(float(x @ r @ x) - 1.0) <= 1e-12
    for j in (0, 1):
        flipped = v.copy()
        flipped[:, j] *= -1.0
        y = qecqp._fix_sign(qecqp._null_point_from_eigh(w, flipped, r))
        np.testing.assert_allclose(y, x, atol=1e-14)


def test_feasible_null_point_raises_when_unreachable():
    h = np.diag([0.0, 2.0])
    r = np.diag([0.5, 0.3])
    with pytest.raises(SolverError):
        null_point(h, r)


# -- End-to-end solve with certificates ---------------------------------------


def test_solve_smooth_instance():
    sol = qecqp.solve(qecqp.QecqpProblem(Q_PATH, R_20))
    assert sol.objective == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(np.abs(sol.x), np.full(2, 1 / np.sqrt(2)), atol=1e-8)
    assert sol.x[0] > 0  # sign convention: dominant entry positive


def test_solve_kink_instance():
    sol = qecqp.solve(qecqp.QecqpProblem(np.diag([0.0, 4.0]), R_20))
    assert sol.objective == pytest.approx(2.0, abs=1e-8)
    np.testing.assert_allclose(np.abs(sol.x), np.full(2, 1 / np.sqrt(2)), atol=1e-8)


def test_solve_certificates_on_random_instances():
    for seed in range(25):
        dim = 2 + seed % 7
        p = random_problem(dim, seed=100 + seed)
        sol = qecqp.solve(p)
        assert sol.unit_error <= 1e-8
        assert sol.feas_error <= 1e-6
        assert sol.stationarity <= 1e-6 * max(1.0, float(np.linalg.norm(p.q, 2)))
        assert sol.gap <= 1e-6 * (1.0 + abs(sol.objective))


def test_solve_objective_is_global_min_vs_oracle():
    for seed in range(6):
        p = random_problem(4, seed=40 + seed)
        sol = qecqp.solve(p)
        oracle = oracle_min(p, samples=20000, seed=seed)
        assert sol.objective <= oracle + 1e-5


def test_solution_payload_consistency():
    p = random_problem(5, seed=77)
    sol = qecqp.solve(p)
    assert sol.objective == pytest.approx(float(sol.x @ p.q @ sol.x), rel=1e-12, abs=1e-12)
    assert sol.gap == pytest.approx(abs(sol.objective - sol.fval), abs=1e-15)


def test_solve_decomposes_once_per_dual_evaluation(monkeypatch):
    # Every full-size eigendecomposition is a dual evaluation; the only other
    # one is of the projection of R onto the null space of H, whose
    # dimension is 1 at these smooth maxima.
    sizes: list[int] = []
    eigh = qecqp._eigh

    def counting_eigh(m):
        sizes.append(m.shape[0])
        return eigh(m)

    monkeypatch.setattr(qecqp, "_eigh", counting_eigh)
    for seed in range(5):
        p = random_problem(8, seed=200 + seed)
        sizes.clear()
        _, trace = cold_solve(p)
        assert sizes.count(p.dim) == len(trace)
        assert sorted(s for s in sizes if s != p.dim) == [1]


def test_psd_certificate_rejects_lowered_mu1():
    # Raising lambda_min by s lowers mu1 = -lambda_min by s, so H shifts by
    # -s I and lambda_min(H) = -s.  The Cholesky gate must reject once
    # -s < -delta and pass below it.
    tol = 1e-10
    p = solver_problem(random_problem(6, seed=3))
    x = qecqp.solve(p, tol=tol).x
    e = search(p, tol)
    assert qecqp._certify(p, e, x, tol).objective == pytest.approx(e.lam - e.mu2, abs=1e-8)
    delta = 1e3 * tol * float(e.w[-1] - e.w[0]) + qecqp._rounding(p, e)
    qecqp._certify(p, e._replace(lam=e.lam + 0.5 * delta), x, tol)
    with pytest.raises(SolverError, match="not positive semidefinite"):
        qecqp._certify(p, e._replace(lam=e.lam + 2.0 * delta), x, tol)


# -- Cold and projected dual searches -----------------------------------------


class _Enough(Exception):
    pass


def basis_subproblems(l_matrix: np.ndarray, steps: int) -> list[tuple[qecqp._Problem, qecqp._Start]]:
    """The first ``steps`` problems compute_basis solves for L and its
    greedy max-cut split, each with the start it was handed."""
    problems: list[tuple[qecqp._Problem, qecqp._Start]] = []
    solve = qecqp._solve

    def record(problem, tol, start):
        problems.append((problem, start))
        if len(problems) == steps:
            raise _Enough
        return solve(problem, tol, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qecqp, "_solve", record)
        try:
            gf.compute_basis(l_matrix, sampling.greedy_max_cut(l_matrix))
        except _Enough:
            pass
    return problems


def rgg_subproblem(n: int, seed: int, step: int) -> tuple[qecqp._Problem, qecqp._Start]:
    """Step ``step`` of the basis construction on a random geometric graph,
    with its start; step 0 is Q = L (split-ordered) with R = diag(2I, 0),
    started cold, and every later step is warm."""
    l_matrix = gf.laplacian(gf.generate("random_geometric", n, seed=seed))
    return basis_subproblems(l_matrix, step + 1)[step]


def solve_recorded(problem: qecqp._Problem, start: qecqp._Start | None = None):
    """solve(), or _solve from ``start``, returning the solution, the rows
    it returns, the sizes of every eigendecomposition and every _certify
    call as (tight, passed)."""
    sizes: list[int] = []
    calls: list[tuple[bool, bool]] = []
    eigh, certify = qecqp._eigh, qecqp._certify

    def counting_eigh(m):
        sizes.append(m.shape[0])
        return eigh(m)

    def recording(problem, e, x, tol, tight=False):
        try:
            sol = certify(problem, e, x, tol, tight)
        except SolverError:
            calls.append((tight, False))
            raise
        calls.append((tight, True))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qecqp, "_eigh", counting_eigh)
        mp.setattr(qecqp, "_certify", recording)
        sol, _, trace = qecqp._solve(problem, 1e-10, qecqp._COLD if start is None else start)
    return sol, trace, sizes, calls


def projected_evaluations(problem: qecqp._Problem, sizes: list[int]) -> int:
    # Subspace evaluations are 2 x 2 or larger; the null-space
    # eigendecomposition of R at a smooth maximum is 1 x 1.
    return sum(1 for s in sizes if 1 < s < problem.dim)


def test_cold_solve_makes_only_full_decompositions():
    # k = 96: a cold solve is the full search, one k x k eigendecomposition
    # per trace row and the 1 x 1 one of R on the null space of H, certified
    # with the gates of a full evaluation.
    p, start = rgg_subproblem(96, 1, 0)
    assert start.w is None and p.dim >= 48
    _, trace, sizes, calls = solve_recorded(p)
    assert sizes.count(p.dim) == len(trace) >= 1
    assert sorted(s for s in sizes if s != p.dim) == [1]
    assert calls == [(False, True)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_projected_search_matches_full_search(seed):
    # Step 1, warm from the subspace step 0 hands on, against a cold solve.
    p, start = rgg_subproblem(96, seed, 1)
    assert start.w is not None and p.dim >= qecqp._WARM_MIN_DIM
    warm, _, sizes, _ = solve_recorded(p, start)
    full, _, full_sizes, _ = solve_recorded(p)
    assert projected_evaluations(p, sizes) > 0
    assert projected_evaluations(p, full_sizes) == 0
    assert abs(warm.mu2 - full.mu2) <= 1e-7
    assert warm.objective == pytest.approx(full.objective, rel=1e-9)
    assert oracle_min(p, samples=20000, seed=seed) >= warm.objective - 1e-9


@pytest.mark.parametrize("seed", [1, 2])
def test_warm_solve_of_a_small_pair_matches_full_search(seed):
    # k = 20, below _WARM_MIN_DIM: a start that carries a subspace runs the
    # full search from its mu2, with no projected evaluation.
    p, start = rgg_subproblem(24, seed, 2)
    assert start.w is not None and p.dim == 20 < qecqp._WARM_MIN_DIM
    warm, trace, sizes, _ = solve_recorded(p, start)
    full, _, _, _ = solve_recorded(p)
    assert projected_evaluations(p, sizes) == 0 and trace[0][0] == start.mu2
    assert abs(warm.mu2 - full.mu2) <= 1e-7
    assert warm.objective == pytest.approx(full.objective, rel=1e-9)


@pytest.mark.parametrize("step", [0, 9, 18])
def test_projected_search_counts_only_full_decompositions(step):
    p, start = rgg_subproblem(96, 1, step)
    _, trace, sizes, _ = solve_recorded(p, start)
    _, full_trace, full_sizes, _ = solve_recorded(p)
    assert sizes.count(p.dim) == len(trace)
    assert full_sizes.count(p.dim) == len(full_trace)
    if step == 0:
        # The first step is handed no subspace: its solve is the full search.
        assert start.w is None and trace == full_trace
    if step == 18:
        # k = 60, where the full search needs 12 evaluations.
        assert 2 * len(trace) <= len(full_trace)


def test_projected_search_recovers_from_carried_subspace_without_straddle():
    # The carried subspace cut down to the low block, where R = 2 I: the
    # spectrum of W^T R W lies above 1, the projected dual has no maximizer,
    # and the solve must fall back to the full search from the start mu2.
    p, start = rgg_subproblem(96, 1, 1)
    w = start.w.copy()
    w[np.diagonal(p.r) == 0.0] = 0.0
    basis = np.linalg.qr(w)[0]
    assert (np.linalg.eigvalsh(basis.T @ p.r @ basis) > 1.0).all()
    sol, trace, sizes, calls = solve_recorded(p, start._replace(w=w))
    assert projected_evaluations(p, sizes) == 0
    assert trace[0][0] == start.mu2
    assert calls == [(False, True)]
    full, _, _, _ = solve_recorded(p)
    assert abs(sol.mu2 - full.mu2) <= 1e-7
    assert sol.objective == pytest.approx(full.objective, rel=1e-9)


def clustered_grid_subproblem() -> tuple[qecqp._Problem, qecqp._Start]:
    """Step 1 on the Kron-reduced 16 x 16 grid (k = 126), warm: the smallest
    eigenvalue is degenerate at evaluations of both the projected and the
    full problem, so the search meets supergradient intervals, not values."""
    l0 = gf.laplacian(gf.generate("grid", 256))
    l1 = multires.kron_reduce(l0, sampling.greedy_max_cut(l0).keep_low)
    p, start = basis_subproblems(l1, 2)[1]
    assert start.w is not None and p.dim >= qecqp._WARM_MIN_DIM
    return p, start


def solve_recording_clusters(monkeypatch, p, start):
    """solve_recorded from ``start``, with the sizes of the evaluations
    whose smallest eigenvalue was degenerate in place of the sizes of all."""
    clustered: list[int] = []
    dual_eval = qecqp._dual_eval

    def recording(q, r, mu2):
        e = dual_eval(q, r, mu2)
        if e.dg is None:
            clustered.append(q.shape[0])
        return e

    monkeypatch.setattr(qecqp, "_dual_eval", recording)
    sol, trace, _, calls = solve_recorded(p, start)  # raises SolverError if a certificate fails
    monkeypatch.undo()
    return sol, trace, clustered, calls


def test_projected_search_certifies_at_clustered_minimum(monkeypatch):
    # Without shift-invert steps a projected maximizer that fails the Ritz
    # gate hands over to the full search, which meets the degenerate
    # minimum too.
    p, start = clustered_grid_subproblem()
    monkeypatch.setattr(qecqp, "_LU_ROUNDS", 0)
    sol, _, clustered, _ = solve_recording_clusters(monkeypatch, p, start)
    assert any(k < p.dim for k in clustered) and p.dim in clustered
    full, _, _, _ = solve_recorded(p)
    assert sol.objective == pytest.approx(full.objective, rel=1e-9)
    assert sol.stationarity <= 1e-6 * max(1.0, float(np.linalg.norm(p.q, 2)))
    assert sol.feas_error <= 1e-6


def test_shift_invert_certifies_at_clustered_minimum(monkeypatch):
    # With shift-invert steps the projected search meets the degenerate
    # minimum and ends at a Ritz point, certified with the tight gates and
    # without a full evaluation, that agrees with the cold solve.
    p, start = clustered_grid_subproblem()
    sol, trace, clustered, calls = solve_recording_clusters(monkeypatch, p, start)
    assert any(k < p.dim for k in clustered)
    assert trace == [] and calls == [(True, True)]
    full, _, _, _ = solve_recorded(p)
    assert abs(sol.mu2 - full.mu2) <= 1e-7
    assert sol.objective == pytest.approx(full.objective, rel=1e-9)
    assert sol.stationarity <= 1e-6 * max(1.0, float(np.linalg.norm(p.q, 2)))
    assert sol.feas_error <= 1e-6


def test_clustered_minimum_does_not_depend_on_the_route():
    # The warm solve ends at a Ritz point, the cold one at a full
    # evaluation, and the minimum is degenerate: both pick the same
    # minimizer, since the straddling pair is mixed with the sign of each
    # fixed (with LAPACK's relative sign they differed by 0.26).
    p, start = clustered_grid_subproblem()
    warm, _, _, calls = solve_recorded(p, start)
    cold = qecqp.solve(p)
    assert calls == [(True, True)]
    assert np.abs(warm.x - cold.x).max() <= 1e-6


def record_ritz_rounds(mp: pytest.MonkeyPatch) -> list[tuple]:
    """Patches _ritz_round to record each call's arguments after the
    problem, (w, qw, rw, p, lim, step), with its result appended."""
    rounds: list[tuple] = []
    ritz_round = qecqp._ritz_round

    def recording(problem, *args):
        out = ritz_round(problem, *args)
        rounds.append((*args, out))
        return out

    mp.setattr(qecqp, "_ritz_round", recording)
    return rounds


def test_projected_search_hands_its_last_maximizer_to_the_full_search():
    # With every Ritz point rejected (a negative Ritz gate, which no
    # residual passes), the projected search takes all its shift-invert
    # steps and makes no full evaluation itself; the full search then
    # starts at the last projected maximizer, not at the start's mu2.
    p, start = rgg_subproblem(96, 1, 9)
    evals: list[tuple[int, float]] = []
    lu_solves: list[int] = []
    dual_eval, solve = qecqp._dual_eval, np.linalg.solve

    def recording(q, r, mu2):
        evals.append((q.shape[0], mu2))
        return dual_eval(q, r, mu2)

    def counting_solve(a, rhs):
        lu_solves.append(a.shape[0])
        return solve(a, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qecqp, "_RITZ_GATE", -1.0)
        rounds = record_ritz_rounds(mp)
        mp.setattr(qecqp, "_dual_eval", recording)
        mp.setattr(np.linalg, "solve", counting_solve)
        sol, trace, _, calls = solve_recorded(p, start)
    assert [out is None for *_, out in rounds] == [False] * qecqp._LU_ROUNDS + [True]
    first_full = next(i for i, (k, _) in enumerate(evals) if k == p.dim)
    assert first_full > 0 and all(k < p.dim for k, _ in evals[:first_full])
    assert all(k == p.dim for k, _ in evals[first_full:])
    last_maximizer = evals[first_full - 1][1]
    assert trace[0][0] == evals[first_full][1] == last_maximizer
    assert abs(last_maximizer - start.mu2) > 1e-8
    assert lu_solves == [p.dim] * qecqp._LU_ROUNDS
    assert calls == [(False, True)]
    full, _, _, _ = solve_recorded(p)
    assert abs(sol.mu2 - full.mu2) <= 1e-7
    assert sol.objective == pytest.approx(full.objective, rel=1e-9)


def test_ritz_round_steps_and_lifts_as_documented():
    # k = 78: the first round fails the Ritz gate and steps, the last one
    # passes it.  The step's directions, rebuilt from the full matrices,
    # solve (A - sigma I) X = [A y_i - theta_i y_i (i < 3), (R - y_0^T R y_0) y_0]
    # with A = Q + mu2 R and sigma = theta_0 - _SHIFT (top - theta_0);
    # the Ritz point is p with the Ritz vectors W z and top >= theta_max.
    p, start = rgg_subproblem(96, 1, 9)
    with pytest.MonkeyPatch.context() as mp:
        rounds = record_ritz_rounds(mp)
        _, trace, _, calls = solve_recorded(p, start)
    assert trace == [] and calls == [(True, True)]
    (w, _, _, e, _, step, x), *_, (w_last, _, _, e_last, _, _, ritz) = rounds
    assert step and isinstance(x, np.ndarray)
    a = p.q + e.mu2 * p.r
    y = w @ e.v[:, :3]
    y0 = y[:, 0]
    rhs = np.column_stack([a @ y - y * e.w[:3], p.r @ y0 - (y0 @ p.r @ y0) * y0])
    top = max(e.w[-1], a.diagonal().max())
    sigma = e.w[0] - qecqp._SHIFT * (top - e.w[0])
    assert np.abs(np.linalg.solve(a - sigma * np.eye(p.dim), rhs) - x).max() <= 1e-12
    assert isinstance(ritz, qecqp._DualEval)
    assert np.array_equal(ritz.v, w_last @ e_last.v)
    assert ritz.top >= e_last.w[-1]
    assert ritz.w is e_last.w and ritz[:5] == e_last[:5]  # mu2, lam, g_lo, g_hi, dg


# -- Warm starts and Ritz points ----------------------------------------------


@pytest.mark.parametrize("useless", ["random", "highest"])
def test_warm_start_from_useless_subspace_still_certifies(useless):
    # A random subspace, or the 16 highest eigenvectors of Q + mu2* R at
    # the cold maximizer (orthogonal to the answer there): the solve must
    # find and certify the same optimum as the cold solve.
    p, _ = rgg_subproblem(96, 1, 0)
    cold = qecqp.solve(p)
    if useless == "random":
        w = np.random.default_rng(5).standard_normal((p.dim, qecqp._CARRY_DIM))
    else:
        w = np.linalg.eigh(p.q + cold.mu2 * p.r)[1][:, -qecqp._CARRY_DIM :]
    for mu2 in (0.0, cold.mu2):
        sol, trace, _, _ = solve_recorded(p, qecqp._Start(mu2, w))
        assert abs(sol.mu2 - cold.mu2) <= 1e-7
        assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
        assert len(trace) >= 1


def shifted_block_problem(offset: float, b: int = 25) -> qecqp._Problem:
    """Q and R block diagonal, the second block of Q a copy of the first
    shifted up by ``offset``: the minimum lies in the first block."""
    z = np.random.default_rng(3).standard_normal((b, b))
    q1 = z @ z.T / b
    q = np.block([[q1, np.zeros((b, b))], [np.zeros((b, b)), q1 + offset * np.eye(b)]])
    r = np.diag(np.tile(np.where(np.arange(b) < 10, 2.0, 0.0), 2))
    p = solver_problem(qecqp.QecqpProblem(q, r))
    assert p.dim >= qecqp._WARM_MIN_DIM
    return p


def test_orthonormal_complement_drops_repeated_directions():
    # Four columns that differ from one direction outside span(w) only by
    # rounding-size parts: one column comes back, orthogonal to w.
    rng = np.random.default_rng(7)
    w = np.linalg.qr(rng.standard_normal((40, 10)))[0]
    d = rng.standard_normal(40)
    new = np.column_stack(
        [c * d + 1e-15 * rng.standard_normal(40) + w @ rng.standard_normal(10) for c in (1.0, 2.0, -3.0, 0.5)]
    )
    out = qecqp._orthonormal_complement(w, new)
    assert out.shape == (40, 1)
    assert np.abs(w.T @ out).max() <= 1e-12
    assert np.abs(out.T @ out - 1.0).max() <= 1e-12


@pytest.mark.parametrize("offset", [10.0, 1e-8])
def test_shift_invert_steps_fill_an_invariant_block_without_noise(offset):
    # W starts as 16 random directions inside the first block of
    # shifted_block_problem, the one that holds the minimum.  Block inverse
    # iteration stays in that block, so after the 9 directions left in it
    # W holds the block and no more: its Ritz point is the answer, certified
    # without a full evaluation.  Had W grown by directions made of rounding
    # noise from the second block, the search would have drifted there and
    # ended with several full evaluations.
    b = 25
    p = shifted_block_problem(offset, b)
    cold = qecqp.solve(p)
    w = np.zeros((2 * b, qecqp._CARRY_DIM))
    w[:b] = np.random.default_rng(0).standard_normal((b, qecqp._CARRY_DIM))
    sizes: list[int] = []
    complement = qecqp._orthonormal_complement

    def recording(w, new):
        out = complement(w, new)
        sizes.append(w.shape[1] + out.shape[1])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qecqp, "_orthonormal_complement", recording)
        sol, trace, _, calls = solve_recorded(p, qecqp._Start(0.0, w))
    assert max(sizes) == b
    assert trace == [] and calls == [(True, True)]
    assert abs(sol.mu2 - cold.mu2) <= 1e-7
    assert sol.objective == pytest.approx(cold.objective, rel=1e-9)


@pytest.mark.parametrize("offset", [10.0, 1e-8])
def test_ritz_point_failing_its_certificate_falls_back_to_full_evaluation(offset):
    # W spans the second block of shifted_block_problem: its Ritz pairs are
    # exact eigenpairs at every mu2 and pass the residual gate, but theta is
    # lambda_min + offset.  The Cholesky certificate must reject the Ritz
    # point, also when the offset (1e-8) is below the shift of the
    # full-evaluation gate (1e3 tol h ~ 1e-6), and the solve must
    # recover the cold optimum from a full evaluation.
    b = 25
    p = shifted_block_problem(offset, b)
    cold = qecqp.solve(p)
    sol, trace, _, calls = solve_recorded(p, qecqp._Start(0.0, np.eye(2 * b)[:, b:]))
    assert calls[0] == (True, False)
    assert calls[-1][1] is True
    assert len(trace) >= 1
    assert abs(sol.mu2 - cold.mu2) <= 1e-7
    assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
    assert np.linalg.norm(sol.x[b:]) <= 1e-6  # the answer lies in the lower block


@pytest.mark.parametrize("offset", [10.0, 1e-8])
def test_refined_ritz_point_failing_its_certificate_falls_back_to_full_evaluation(offset):
    # W holds the lowest eigenvectors of the second block of
    # shifted_block_problem at the optimal mu2, perturbed by 1e-4, so the
    # first Ritz point fails the residual gate.  Q + mu2 R - sigma I is
    # block diagonal, so the shift-invert steps stay in the second block,
    # and the Ritz point they reach has theta = lambda_min + offset: the
    # Cholesky certificate must reject it, and the solve must recover the
    # cold optimum from a full evaluation.
    b = 25
    p = shifted_block_problem(offset, b)
    cold = qecqp.solve(p)
    w = np.zeros((2 * b, qecqp._CARRY_DIM))
    w[b:] = np.linalg.eigh(p.q[b:, b:] + cold.mu2 * p.r[b:, b:])[1][:, : qecqp._CARRY_DIM]
    w[b:] += 1e-4 * np.random.default_rng(4).standard_normal((b, qecqp._CARRY_DIM))
    lu_solves: list[int] = []
    solve = np.linalg.solve

    def counting_solve(a, rhs):
        lu_solves.append(a.shape[0])
        return solve(a, rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", counting_solve)
        sol, trace, _, calls = solve_recorded(p, qecqp._Start(0.0, w))
    assert lu_solves and set(lu_solves) == {p.dim}
    assert calls[0] == (True, False)
    assert calls[-1] == (False, True)
    assert len(trace) >= 1
    assert abs(sol.mu2 - cold.mu2) <= 1e-7
    assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
    assert np.linalg.norm(sol.x[b:]) <= 1e-6


@pytest.mark.parametrize("failure", ["singular", "nan", "inf"])
@pytest.mark.parametrize("step", [1, 9, 18])
def test_failed_shift_invert_step_falls_back_to_full_evaluation(failure, step):
    # An LU solve that raises LinAlgError, or returns NaN or inf, is replaced
    # by a full evaluation: the warm solve still ends certified at the cold
    # optimum.
    p, start = rgg_subproblem(96, 1, step)
    assert start.w is not None
    attempts: list[int] = []

    def failing_solve(a, rhs):
        attempts.append(a.shape[0])
        if failure == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(rhs.shape, np.nan if failure == "nan" else np.inf)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", failing_solve)
        sol, trace, _, calls = solve_recorded(p, start)
    full, _, _, _ = solve_recorded(p)
    assert attempts and len(trace) >= 1
    assert calls[-1][1] is True
    assert abs(sol.mu2 - full.mu2) <= 1e-7
    assert sol.objective == pytest.approx(full.objective, rel=1e-9)


def test_ritz_point_h_scale_is_a_lower_bound():
    # Every Ritz point the basis construction certifies uses an h no larger
    # than lambda_max(H) = ||H||_2 of the same H = Q + mu2 R - theta I.
    l_matrix = gf.laplacian(gf.generate("random_geometric", 96, seed=1))
    accepted: list[tuple[qecqp._Problem, qecqp._DualEval]] = []
    certify = qecqp._certify

    def recording(problem, e, x, tol, tight=False):
        sol = certify(problem, e, x, tol, tight)
        if tight:
            accepted.append((problem, e))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qecqp, "_certify", recording)
        gf.compute_basis(l_matrix, sampling.greedy_max_cut(l_matrix))
    assert accepted
    for problem, e in accepted:
        top = float(np.linalg.eigvalsh(problem.q + e.mu2 * problem.r)[-1])
        assert 0.0 <= e.top - e.lam <= top - e.lam


@pytest.mark.parametrize("below", [2, 0])
def test_own_start_solve_hands_on_its_subspace_from_the_size_threshold(below):
    # A ring Laplacian with an even split has its maximum at the cold start
    # mu2 = 0: lambda_min = 0 is simple, with the constant eigenvector, whose
    # g = 2 (k / 2) / k - 1 = 0.  Such a solve hands on its lowest
    # eigenvectors from k = _CARRY_OWN_START_DIM on, and only its mu2 below.
    k = qecqp._CARRY_OWN_START_DIM - below
    q = gf.laplacian(gf.generate("ring", k))
    r = np.diag(np.repeat([2.0, 0.0], k // 2))
    sol, nxt, _ = qecqp._solve(qecqp._Problem(q, r, 2.0), 1e-10, qecqp._COLD)
    assert nxt.mu2 == sol.mu2 and abs(sol.mu2) <= 1e-12
    if below:
        assert nxt.w is None
    else:
        assert nxt.w.shape == (k, qecqp._CARRY_DIM)
        lam = np.linalg.eigvalsh(q)[: qecqp._CARRY_DIM]
        assert np.abs(q @ nxt.w - nxt.w * lam).max() <= 1e-12


def test_carried_subspace_follows_the_deflation():
    # A solve that ends at a full evaluation hands on exact eigenvectors
    # v_j of A = Q + mu2 R.  The next problem is A compressed to the
    # complement of span{x, Jx}, and x = v_0 at a smooth maximum, so after
    # compute_basis reflects and cuts them, their residuals
    # A' w_j - lambda_j w_j in the next problem are all multiples of one
    # vector (the compression of A Jx): the residual matrix has rank 1.
    l_matrix = gf.laplacian(gf.generate("random_geometric", 96, seed=1))
    calls: list[tuple] = []
    solve = qecqp._solve

    def recording(problem, tol, start):
        sol, nxt, rows = solve(problem, tol, start)
        calls.append((problem, start, nxt))
        return sol, nxt, rows

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qecqp, "_solve", recording)
        gf.compute_basis(l_matrix, sampling.greedy_max_cut(l_matrix))
    checked = 0
    for (p0, _, carry), (p1, start, _) in zip(calls, calls[1:]):
        if carry.w is None or carry.w.shape[1] < qecqp._CARRY_DIM:
            continue
        a0 = p0.q + carry.mu2 * p0.r
        lam = np.einsum("ij,ij->j", carry.w, a0 @ carry.w)
        if np.abs(a0 @ carry.w - carry.w * lam).max() > 1e-10:
            continue  # Ritz vectors, not eigenvectors
        res = (p1.q + carry.mu2 * p1.r) @ start.w - start.w * lam
        sv = np.linalg.svd(res, compute_uv=False)
        assert sv[1] <= 1e-9 * sv[0]
        checked += 1
    assert checked >= 3


def test_basis_uses_few_full_decompositions_per_large_pair():
    # The carried subspace replaces the evaluation at mu2 = 0, and
    # shift-invert steps replace the full evaluations of the projected
    # search: pairs with k >= 48 take at most 0.25 full k x k
    # eigendecompositions on average (the cold first pair takes 4 of them).
    l_matrix = gf.laplacian(gf.generate("random_geometric", 96, seed=1))
    dims: list[int] = []
    full: list[int] = []
    solve, eigh = qecqp._solve, qecqp._eigh

    def recording_solve(problem, tol, start):
        dims.append(problem.dim)
        full.append(0)
        return solve(problem, tol, start)

    def counting_eigh(m):
        if m.shape[0] == dims[-1]:
            full[-1] += 1
        return eigh(m)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qecqp, "_solve", recording_solve)
        mp.setattr(qecqp, "_eigh", counting_eigh)
        gf.compute_basis(l_matrix, sampling.greedy_max_cut(l_matrix))
    large = [c for k, c in zip(dims, full) if k >= 48]
    assert len(large) >= 20
    assert sum(large) <= 0.25 * len(large)


# -- Exits of the solve that no build reaches -----------------------------------


def test_eigendecomposition_failure_is_an_eigensolver_error(monkeypatch):
    p = random_problem(5, seed=0)

    def fail(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigensolverError, match="symmetric eigendecomposition failed: Eigenvalues did not converge"):
        qecqp.solve(p)


def test_projected_search_that_fails_hands_the_start_to_the_full_search(monkeypatch):
    # The projected search's _search raises; the full search then runs from
    # the start mu2 exactly as a solve started there without a subspace.
    problem, start = rgg_subproblem(64, seed=1, step=5)
    assert start.w is not None and problem.dim >= qecqp._WARM_MIN_DIM
    search_ = qecqp._search
    failed = []

    def fail_first(ev, e, lim):
        if not failed:
            failed.append(e.mu2)
            raise SolverError("dual root finding failed to converge")
        return search_(ev, e, lim)

    monkeypatch.setattr(qecqp, "_search", fail_first)
    sol, _, rows = qecqp._solve(problem, 1e-10, start)
    monkeypatch.undo()
    cold, _, cold_rows = qecqp._solve(problem, 1e-10, qecqp._Start(start.mu2, None))
    assert failed == [start.mu2]
    assert rows == cold_rows and rows[0][0] == start.mu2
    assert np.array_equal(sol.x, cold.x)


def step_dual(c: float, slope: float = 0.5):
    """Evaluations of f(mu2) = -slope |mu2 - c|, whose supergradient jumps
    from +slope to -slope at c.  No evaluation reports the kink (c itself
    reads -slope) or a supergradient small enough to accept, so neither
    _Limits.done nor _Limits.accepts ends a search on it; ``calls`` counts
    the evaluations."""
    calls = []

    def ev(m: float) -> qecqp._DualEval:
        calls.append(m)
        g = slope if m < c else -slope
        return qecqp._DualEval(m, m - slope * abs(m - c), g, g, None, None, None, 0, 1.0, np.inf)

    return ev, calls


def test_search_stops_once_the_bracket_is_at_rounding_width():
    ev, calls = step_dual(0.3)
    e = qecqp._search(ev, ev(0.0), qecqp._Limits(1e-10, 1.0))
    # Tangent cuts and bisection close the bracket on 0.3 to no wider than
    # 16 eps |mu2| + eps ||Q + mu2 R||_2 / ||R||_2, about 1.3e-15 here; the
    # search returns one more evaluation, at its middle.
    assert e.mu2 == calls[-1]
    assert abs(e.mu2 - 0.3) <= 2e-15
    assert len(calls) == 11


def test_search_gives_up_after_its_far_evaluation_budget():
    # f = mu2/2 rises for ever: the bracket never closes.
    calls = []

    def ev(m: float) -> qecqp._DualEval:
        calls.append(m)
        return qecqp._DualEval(m, 1.5 * m, 0.5, 0.5, None, None, None, 0, 1.0, np.inf)

    with pytest.raises(SolverError, match="dual bracket search failed; no supergradient sign change"):
        qecqp._search(ev, ev(0.0), qecqp._Limits(1e-10, 1.0))
    assert len(calls) == 1 + qecqp._MAX_FAR_EVALS


def test_search_gives_up_after_its_evaluation_budget(monkeypatch):
    # The search on step_dual takes 11 evaluations; allow it 3 steps.
    monkeypatch.setattr(qecqp, "_MAX_EVALS", 3)
    ev, calls = step_dual(0.3)
    with pytest.raises(SolverError, match="dual root finding failed to converge"):
        qecqp._search(ev, ev(0.0), qecqp._Limits(1e-10, 1.0))
    assert len(calls) == 4


def test_full_evaluation_failing_its_certificate_is_final(monkeypatch):
    # Only a Ritz point starts over cold when a certificate fails; a full
    # evaluation's failure is raised.
    p = random_problem(6, seed=3)
    calls = []

    def fail(m):
        calls.append(m.shape)
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(SolverError, match="H not positive semidefinite"):
        qecqp.solve(p)
    assert calls == [(6, 6)]


# -- Sampling oracle ----------------------------------------------------------


def test_oracle_exactly_feasible_samples():
    # Every oracle sample satisfies both constraints by construction, so for
    # Q = I the oracle value is exactly 1 on the unit sphere.
    p = qecqp.QecqpProblem(np.eye(3), np.diag([2.0, 2.0, 0.0]))
    assert oracle_min(p, samples=500, seed=1) == pytest.approx(1.0, abs=1e-12)


def test_oracle_constant_objective_on_feasible_set():
    # Q = diag(0,4), R = diag(2,0): feasibility forces x1^2 = 1/2 = x2^2,
    # so x^T Q x = 2 on the whole feasible set.
    p = qecqp.QecqpProblem(np.diag([0.0, 4.0]), R_20)
    assert oracle_min(p, samples=200, seed=0) == pytest.approx(2.0, abs=1e-12)


def test_oracle_upper_bounds_solver():
    p = random_problem(6, seed=13)
    sol = qecqp.solve(p)
    assert oracle_min(p, samples=5000, seed=2) >= sol.objective - 1e-9


def test_oracle_deterministic():
    p = random_problem(4, seed=19)
    a = oracle_min(p, samples=1000, seed=7)
    b = oracle_min(p, samples=1000, seed=7)
    assert a == b
