"""Globally solved quadratic programs with two quadratic equality constraints.

The problem is

    minimize x^T Q x  subject to  x^T x = 1,  x^T R x = 1,

with Q symmetric and R symmetric positive semidefinite whose spectrum
straddles 1 strictly (some eigenvalue below 1 and some above, none equal).
Under these assumptions the Lagrangian dual

    f(mu2) = -mu2 + lambda_min(Q + mu2 R)

is concave in the single variable mu2, its supergradients at mu2 are
v^T R v - 1 over unit eigenvectors v of the smallest eigenvalue, and a
maximizer yields a dual pair (mu1, mu2) with mu1 = -lambda_min(Q + mu2 R)
such that H = Q + mu1 I + mu2 R is positive semidefinite with a nontrivial
null space.  A feasible point inside that null space attains the dual value,
so the duality gap is zero and global optimality is certified by

    H >= 0,  H x ~ 0,  x^T x = 1,  x^T R x = 1,  x^T Q x = -mu1 - mu2.

The maximizer is a root of the supergradient.  The search starts at
mu2 = 0, where the evaluation is the eigendecomposition of Q itself: if its
supergradient interval straddles zero the maximum is found, otherwise its
sign tells which side of 0 holds the root and its extreme eigenvalues give
||Q||_2 for a one-sided sign-change bracket.  Inside the bracket the root is
found by safeguarded Newton steps, the first one taken from mu2 = 0.  Where
the smallest eigenvalue is simple the supergradient g is differentiable and
its derivative

    g'(mu2) = 2 sum_{j>0} (v_0^T R v_j)^2 / (lambda_0 - lambda_j)

comes from the eigenpairs the evaluation already computed.  A Newton step is
taken when it lands strictly inside the bracket and shrinks fast enough;
otherwise an Illinois secant step, or failing that bisection, narrows it.  At
kinks the smallest eigenvalue is degenerate and the supergradient is an
interval; the search moves toward the side the whole interval lies on and
stops when the interval straddles zero or the bracket is narrower than the
tolerance.

H = Q + mu1 I + mu2 R is a shift of Q + mu2 R by a multiple of I, so the
last evaluation's eigenpairs (w - lambda_min, V) are those of H, and the
feasible null point is read off them: a solve costs exactly one k x k
symmetric eigendecomposition per dual evaluation (plus one of R projected
onto the null space of H, whose dimension is usually 1).  Reused
eigenvalues cannot certify H >= 0 (the smallest is 0 by construction), so
that certificate is a Cholesky factorization of the explicitly formed
H + delta I: if it succeeds, lambda_min(H) >= -delta up to O(k u ||H||)
rounding.  The other residuals are explicit products with H, Q and R.  The
spectrum of R is computed once per problem, read off the diagonal when R is
diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EigensolverError, InputError, SolverError

__all__ = [
    "QecqpProblem",
    "DualPoint",
    "QecqpSolution",
    "dual_objective",
    "maximize_dual",
    "feasible_null_point",
    "solve",
    "oracle_min",
]

_SYM_TOL = 1e-12
_EIG_ONE_GAP = 1e-8


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigendecomposition failed: {exc}") from exc


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


@dataclass(frozen=True, eq=False)
class QecqpProblem:
    """Validated problem data (Q, R), with the spectral norm ``r_norm`` of R."""

    q: np.ndarray
    r: np.ndarray
    r_norm: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        r = np.asarray(self.r, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape != r.shape:
            raise InputError(f"Q and R must be square with equal shapes, got {q.shape} and {r.shape}")
        if not (np.isfinite(q).all() and np.isfinite(r).all()):
            raise InputError("Q and R must be finite")
        qs = max(1.0, float(np.abs(q).max(initial=0.0)))
        rs = max(1.0, float(np.abs(r).max(initial=0.0)))
        if float(np.abs(q - q.T).max(initial=0.0)) > _SYM_TOL * qs:
            raise InputError("Q is not symmetric")
        if float(np.abs(r - r.T).max(initial=0.0)) > _SYM_TOL * rs:
            raise InputError("R is not symmetric")
        r = _sym(r)
        # A diagonal R (as the basis construction builds it) shows its
        # spectrum on the diagonal.
        diag = np.diagonal(r)
        if np.count_nonzero(r) == np.count_nonzero(diag):
            ev = np.sort(diag)
        else:
            ev = np.linalg.eigvalsh(r)
        if ev[0] < -1e-10 * rs:
            raise InputError(f"R is not positive semidefinite (lambda_min = {ev[0]:.3e})")
        gap = _EIG_ONE_GAP * rs
        if not (ev[0] < 1.0 - gap and ev[-1] > 1.0 + gap):
            raise InputError("spectrum of R must straddle 1 strictly (some eigenvalue below and some above)")
        if np.abs(ev - 1.0).min() <= gap:
            raise InputError("R has an eigenvalue at 1, which the dual approach excludes")
        object.__setattr__(self, "q", _sym(q))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "r_norm", max(-float(ev[0]), float(ev[-1])))

    @property
    def dim(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True, eq=False)
class DualPoint:
    """Dual maximizer with its certificate matrix H = Q + mu1 I + mu2 R."""

    mu1: float
    mu2: float
    fval: float
    h_matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class QecqpSolution:
    """Certified global minimizer.

    Residuals: ``stationarity`` = ||H x||_2, ``unit_error`` = |x^T x - 1|,
    ``feas_error`` = |x^T R x - 1|.  ``gap`` is |x^T Q x - fval|.
    """

    x: np.ndarray
    objective: float
    dual: DualPoint
    stationarity: float
    unit_error: float
    feas_error: float
    gap: float


class _DualEval(NamedTuple):
    """One dual evaluation."""

    mu2: float
    lam: float  # lambda_min(Q + mu2 R)
    g_lo: float  # supergradient interval [g_lo, g_hi]
    g_hi: float
    dg: float | None  # g'(mu2) when lambda_min is simple, else None
    w: np.ndarray | None  # eigenpairs of Q + mu2 R, ascending
    v: np.ndarray | None


def _dual_eval(q: np.ndarray, r: np.ndarray, mu2: float) -> _DualEval:
    """Smallest eigenvalue and supergradient interval at mu2, plus the
    curvature g'(mu2) of the module docstring when the smallest eigenvalue is
    simple, and the eigenpairs they came from."""
    w, v = _eigh(q + mu2 * r)
    lam = float(w[0])
    cluster_tol = 1e-9 * max(1.0, float(np.abs(w).max()))
    k = int(np.searchsorted(w, lam + cluster_tol, side="right"))
    if k == 1:
        c = v.T @ (r @ v[:, 0])
        g = float(c[0]) - 1.0
        dg = 2.0 * float(np.sum(c[1:] ** 2 / (lam - w[1:])))
        return _DualEval(mu2, lam, g, g, dg, w, v)
    vc = v[:, :k]
    d = np.linalg.eigvalsh(_sym(vc.T @ r @ vc))
    return _DualEval(mu2, lam, float(d[0]) - 1.0, float(d[-1]) - 1.0, None, w, v)


def dual_objective(problem: QecqpProblem, mu2: float) -> tuple[float, float]:
    """Dual value f(mu2) = -mu2 + lambda_min(Q + mu2 R) and one supergradient.

    The supergradient returned is v^T R v - 1 for v a unit eigenvector of the
    smallest eigenvalue (the first one the eigensolver reports).
    """
    w, v = _eigh(problem.q + mu2 * problem.r)
    v0 = v[:, 0]
    return -mu2 + float(w[0]), float(v0 @ problem.r @ v0) - 1.0


def maximize_dual(
    problem: QecqpProblem,
    tol: float = 1e-10,
    trace: list[tuple[float, float]] | None = None,
) -> DualPoint:
    """Maximize the concave dual by safeguarded Newton steps on the supergradient.

    The first evaluation is at mu2 = 0.  If its supergradient interval
    straddles zero it is the maximizer.  Otherwise the root lies on the side
    its sign points to, and the bracket on that side runs from 0 to
    +-(||Q||_2 + 1), with ||Q||_2 read off the eigenvalues of Q; it is
    widened by doubling until the supergradient changes sign.  Inside the
    bracket each step is a Newton step on the supergradient g from the
    latest evaluation (from mu2 = 0 for the first step), using the curvature
    g' from that evaluation's eigenpairs, whenever it lands strictly inside
    the bracket and is at most half the step before last (so an oscillating
    Newton iteration is cut off); otherwise it is a bracketed secant step
    (Illinois weighting) or, failing that, bisection.  Convergence is
    declared when the supergradient interval straddles zero within a small
    band (the kink case), or the bracket is narrower than ``tol`` with a
    supergradient small enough that a near-feasible null vector exists (the
    smooth case).  ``trace``, if given, collects (mu2, f(mu2)) for every
    evaluation.
    """
    return _dual_point_at(problem, _maximize_dual(problem, tol, trace))


def _maximize_dual(
    problem: QecqpProblem,
    tol: float,
    trace: list[tuple[float, float]] | None,
) -> _DualEval:
    """The search of maximize_dual; returns the evaluation at the maximizer,
    which is always the latest one and the only one holding eigenpairs."""
    if tol <= 0:
        raise InputError(f"tolerance must be positive, got {tol}")
    q, r = problem.q, problem.r
    r_scale = max(1.0, problem.r_norm)
    g_tol = 1e-13 * r_scale
    g_accept = 1e-8 * r_scale

    def ev(mu2: float) -> _DualEval:
        e = _dual_eval(q, r, mu2)
        if trace is not None:
            trace.append((mu2, -mu2 + e.lam))
        return e

    def straddles(e: _DualEval) -> bool:
        return e.g_lo <= g_tol and e.g_hi >= -g_tol

    e = ev(0.0)
    if straddles(e):
        return e
    width = max(-float(e.w[0]), float(e.w[-1])) + 1.0
    # The first Newton step starts from mu2 = 0; its eigenpairs are not
    # needed any more.
    e = e._replace(w=None, v=None)
    if e.g_lo > 0.0:
        # Bracket invariant: some supergradient is > 0 at lo and < 0 at hi.
        lo, f_lo, hi = 0.0, e.g_hi, width
        for _ in range(80):
            far = ev(hi)
            if far.g_lo <= 0:
                break
            lo, f_lo = hi, far.g_hi
            hi += width
            width *= 2.0
        else:
            raise SolverError("dual bracket search failed on the right; no supergradient sign change")
        f_hi = far.g_lo
    else:
        lo, hi, f_hi = -width, 0.0, e.g_lo
        for _ in range(80):
            far = ev(lo)
            if far.g_hi >= 0:
                break
            hi, f_hi = lo, far.g_lo
            lo -= width
            width *= 2.0
        else:
            raise SolverError("dual bracket search failed on the left; no supergradient sign change")
        f_lo = far.g_hi
    if straddles(far):
        return far
    del far

    eps = float(np.finfo(float).eps)
    prev_step = last_step = np.inf
    side = 0
    for _ in range(300):
        mu2 = 0.5 * (lo + hi)
        if hi - lo <= 16.0 * eps * (1.0 + abs(mu2)):
            return ev(mu2)
        # Newton must land inside the bracket and at least halve the step
        # before last; a Newton step that does not is oscillating.
        newton = e.mu2 - e.g_lo / e.dg if e.dg else None
        if newton is not None and lo < newton < hi and abs(newton - e.mu2) <= 0.5 * abs(prev_step):
            mu2 = newton
        elif f_hi < f_lo:
            secant = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
            if lo < secant < hi:
                mu2 = secant
        prev_step, last_step = last_step, mu2 - e.mu2
        del e  # only the latest evaluation's eigenvectors stay alive
        e = ev(mu2)
        if straddles(e):
            return e
        if max(abs(e.g_lo), abs(e.g_hi)) <= g_accept and hi - lo <= tol * (1.0 + abs(mu2)):
            return e
        if e.g_lo > 0.0:
            lo, f_lo = mu2, e.g_lo
            if side == 1:
                f_hi *= 0.5
            side = 1
        else:
            hi, f_hi = mu2, e.g_hi
            if side == -1:
                f_lo *= 0.5
            side = -1
    raise SolverError("dual root finding failed to converge")


def _dual_point_at(problem: QecqpProblem, e: _DualEval) -> DualPoint:
    h = _h_matrix(problem, -e.lam, e.mu2)
    return DualPoint(mu1=-e.lam, mu2=e.mu2, fval=-e.mu2 + e.lam, h_matrix=h)


def _h_matrix(problem: QecqpProblem, mu1: float, mu2: float) -> np.ndarray:
    """Q + mu1 I + mu2 R, built in place to keep the peak of temporaries low;
    exactly symmetric because Q and R are."""
    h = problem.q.copy()
    h.flat[:: problem.dim + 1] += mu1
    h += mu2 * problem.r
    return h


def _null_point_from_eigh(
    w: np.ndarray,
    v: np.ndarray,
    r: np.ndarray,
    tol_null: float,
) -> np.ndarray:
    """Feasible point from the near-null eigenvectors of H.

    Starts with all eigenvectors below the null threshold and enlarges with
    the next-smallest ones until the eigenvalues of B^T R B straddle 1, then
    interpolates between the straddling pair to hit x^T R x = 1 exactly.
    """
    dim = len(w)
    threshold = tol_null * max(1.0, float(w[-1]))
    k = max(1, int(np.searchsorted(w, threshold, side="right")))
    # Direct-accept band for a single near-feasible eigenvector.  Wide enough
    # to absorb the solver's supergradient residual at a smooth dual maximum,
    # still well inside the feasibility certificate.
    one_tol = 1e-7
    while k <= dim:
        b = v[:, :k]
        m = _sym(b.T @ r @ b)
        d, z = _eigh(m)
        near = np.abs(d - 1.0) <= one_tol
        if near.any():
            idx = int(np.nonzero(near)[0][0])
            return b @ z[:, idx]
        below = np.nonzero(d < 1.0)[0]
        above = np.nonzero(d > 1.0)[0]
        if len(below) and len(above):
            i_lo = int(below[-1])
            i_hi = int(above[0])
            d_lo, d_hi = float(d[i_lo]), float(d[i_hi])
            alpha = np.sqrt((1.0 - d_lo) / (d_hi - d_lo))
            beta = np.sqrt(1.0 - alpha**2)
            return b @ (alpha * z[:, i_hi] + beta * z[:, i_lo])
        k += 1
    raise SolverError("could not reach the feasibility constraint inside the null space of H")


def feasible_null_point(h: np.ndarray, r: np.ndarray, tol_null: float = 1e-8) -> np.ndarray:
    """Unit vector x in the (near-)null space of H with x^T R x = 1."""
    h = _sym(np.asarray(h, dtype=float))
    r = _sym(np.asarray(r, dtype=float))
    if h.shape != r.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InputError(f"H and R must be square with equal shapes, got {h.shape} and {r.shape}")
    w, v = _eigh(h)
    return _null_point_from_eigh(w, v, r, tol_null)


def _fix_sign(x: np.ndarray) -> np.ndarray:
    # Lowest index within a relative band of the max magnitude, so that
    # rounding noise cannot flip the convention on tied entries.
    a = np.abs(x)
    k = int(np.nonzero(a >= a.max() * (1.0 - 1e-9))[0][0])
    return -x if x[k] < 0 else x


def solve(
    problem: QecqpProblem,
    tol: float = 1e-10,
    trace: list[tuple[float, float]] | None = None,
) -> QecqpSolution:
    """Globally solve the problem and certify optimality.

    The feasible null point is read off the eigenpairs of the last dual
    evaluation, shifted to those of H, so the solve performs no k x k
    eigendecomposition beyond the dual evaluations.  Positive
    semidefiniteness of H is certified by a Cholesky factorization of
    H + delta I with delta = 1e3 * tol * (1 + ||H||_2); every other residual
    is an explicit product.  Raises SolverError if any certificate fails
    (thresholds scale with ``tol``; at the default they are delta = 1e-7
    relative for positive semidefiniteness, 1e-6 relative for stationarity
    and the duality gap, 1e-8 for the unit norm, and 1e-6 for x^T R x - 1).
    """
    e = _maximize_dual(problem, tol, trace)
    x = _fix_sign(_null_point_from_eigh(e.w - e.lam, e.v, problem.r, tol_null=1e-8))
    e = e._replace(v=None)  # frees the eigenvectors before the certificate's k x k work
    return _certify(problem, e, x, tol)


def _certify(problem: QecqpProblem, e: _DualEval, x: np.ndarray, tol: float) -> QecqpSolution:
    """Check every optimality certificate of x for the dual point of the
    evaluation e."""
    h_scale = 1.0 + max(0.0, float(e.w[-1] - e.lam), float(e.lam - e.w[0]))
    delta = 1e3 * tol * h_scale
    # H + delta I is factored before H is built, so that the two and the
    # factor are never alive together.
    try:
        np.linalg.cholesky(_h_matrix(problem, delta - e.lam, e.mu2))
        psd = True
    except np.linalg.LinAlgError:
        psd = False

    dual = _dual_point_at(problem, e)
    objective = float(x @ problem.q @ x)
    stationarity = float(np.linalg.norm(dual.h_matrix @ x))
    unit_error = abs(float(x @ x) - 1.0)
    feas_error = abs(float(x @ problem.r @ x) - 1.0)
    gap = abs(objective - dual.fval)

    checks = [
        (psd, f"H not positive semidefinite: Cholesky of H + {delta:.3e} I failed"),
        (stationarity <= 1e4 * tol * h_scale, f"stationarity residual {stationarity:.3e} too large"),
        (unit_error <= 1e2 * tol, f"unit-norm residual {unit_error:.3e} too large"),
        (feas_error <= 1e4 * tol, f"feasibility residual {feas_error:.3e} too large"),
        (gap <= 1e4 * tol * (1.0 + abs(objective)), f"duality gap {gap:.3e} too large"),
    ]
    for ok, msg in checks:
        if not ok:
            raise SolverError(f"optimality certificate failed: {msg}")
    return QecqpSolution(
        x=x,
        objective=objective,
        dual=dual,
        stationarity=stationarity,
        unit_error=unit_error,
        feas_error=feas_error,
        gap=gap,
    )


def oracle_min(problem: QecqpProblem, samples: int = 100_000, seed: int = 0) -> float:
    """Monte Carlo upper bound on the optimum, independent of the solver.

    Requires R to have eigenvalues exactly in {0, 2}.  Each standard normal
    draw is split into its components in the two eigenspaces and each
    component is rescaled to squared norm 1/2; the result satisfies both
    constraints exactly, so the sample minimum of x^T Q x bounds the true
    minimum from above.
    """
    if samples < 1:
        raise InputError(f"need at least one sample, got {samples}")
    ev, vec = _eigh(problem.r)
    scale = max(1.0, float(np.abs(ev).max()))
    at0 = np.abs(ev) <= 1e-8 * scale
    at2 = np.abs(ev - 2.0) <= 1e-8 * scale
    if not (at0.any() and at2.any() and (at0 | at2).all()):
        raise InputError("oracle requires R eigenvalues to be exactly {0, 2}")
    p0 = vec[:, at0]
    p2 = vec[:, at2]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, problem.dim))
    c0 = z @ p0
    c2 = z @ p2
    n0 = np.linalg.norm(c0, axis=1)
    n2 = np.linalg.norm(c2, axis=1)
    bad = (n0 < 1e-12) | (n2 < 1e-12)
    while bad.any():
        z = rng.standard_normal((int(bad.sum()), problem.dim))
        c0[bad] = z @ p0
        c2[bad] = z @ p2
        n0[bad] = np.linalg.norm(c0[bad], axis=1)
        n2[bad] = np.linalg.norm(c2[bad], axis=1)
        bad = (n0 < 1e-12) | (n2 < 1e-12)
    x = (c0 / (np.sqrt(2.0) * n0[:, None])) @ p0.T + (c2 / (np.sqrt(2.0) * n2[:, None])) @ p2.T
    vals = np.einsum("ij,jk,ik->i", x, problem.q, x)
    return float(vals.min())
