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

The maximizer is a root of the supergradient.  The full search starts with
one full evaluation at its start point, mu2 = 0 for ``solve``, where the
evaluation is the eigendecomposition of Q itself: if its supergradient
interval straddles zero the maximum is found, otherwise its sign tells
which side holds the root and its extreme eigenvalues give ||Q + mu2 R||_2
as the first width of a one-sided bracket (mu2 has the units of Q, R has
none).  Where the smallest eigenvalue is simple the supergradient g is
differentiable and its derivative

    g'(mu2) = 2 sum_{j>0} (v_0^T R v_j)^2 / (lambda_0 - lambda_j)

comes from the eigenpairs the evaluation already computed.  The root is
found by safeguarded Newton steps, the first one taken from the start
before any far bracket end is evaluated.  A Newton step is taken when it
lands strictly inside the bracket and shrinks fast enough; while the
bracket is still open a far end is evaluated instead, at doubling
distances; once it is closed, the intersection of the tangent lines of f at
its two ends (or bisection) narrows it.  At kinks the smallest eigenvalue
is degenerate and the supergradient is an interval; the tangent
intersection lands on a lone kink exactly.  The search stops when the
interval straddles zero within 1e-13 ||R||_2; when a smooth point is so
close to the root that its null point v_0 is within _NEWTON_STOP tol of
the root's; or when the bracket is narrower than tol |mu2| plus
eps ||Q + mu2 R||_2 / ||R||_2, the move of mu2 that changes Q + mu2 R by
one rounding unit.

A cold solve, one started without a subspace, is the full search above
from one full evaluation at its start point; the public ``solve`` is always
cold.  A warm solve starts from a mu2 and a subspace handed on by the solve
of a nearby problem (the basis construction hands each pair's mu2 and
lowest _CARRY_DIM eigenvectors or Ritz vectors to the next, except that a
pair of size k < _CARRY_OWN_START_DIM that ended at its own start point
hands on its mu2 alone).
Below k = _WARM_MIN_DIM it too runs the full search; from that size on it
searches a small subspace W first (Rayleigh-Ritz): W starts as the carried
subspace, and the dual of (W^T Q W, W^T R W) is maximized with the same
routine at that mu2, at the cost of m x m eigendecompositions only,
provided the spectrum of W^T R W straddles 1 so that the projected dual has
a maximizer.  At that maximizer one pass over the lowest Ritz pairs
(theta, y) forms their residuals (Q + mu2 R) y - theta y on the full
problem.  If those of the smallest Ritz value pass the Ritz gate,
||(Q + mu2 R) y - theta y|| <= _RITZ_GATE tol h + rho (h and rho below),
the Ritz point is the answer.  Otherwise the same pass takes one
shift-invert step (block inverse iteration; Parlett, The Symmetric
Eigenvalue Problem; Knyazev, LOBPCG, SISC 2001): a single LU solve with
Q + mu2 R - sigma I, sigma = theta - _SHIFT h just below the Ritz value,
whose right-hand sides are the residuals of the lowest three Ritz pairs and
(R - y^T R y) y, the direction of dv_0/dmu2; W grows by its solutions, and
the next round maximizes again, from the same mu2, on the larger W.  After
_LU_ROUNDS steps, or when a step fails, is not finite or adds nothing to W,
the full search takes over from one full evaluation at the last projected
maximizer.  It starts at the start mu2 instead when the carried subspace
does not straddle 1 or would fill the space, or when its projected dual
has no maximizer.  Every stopping rule is therefore one of the full search
or the Ritz gate.

H = Q + mu1 I + mu2 R is a shift of Q + mu2 R by a multiple of I, so the
last full evaluation's eigenpairs (w - lambda_min, V) are those of H, and
the feasible null point is read off them, or off the Ritz pairs at a Ritz
point.  A cold solve costs one k x k symmetric eigendecomposition per
evaluation of the full search.  A warm solve costs at most _LU_ROUNDS
k x k LU factorizations, each a small fraction of an eigendecomposition:
one that ends at a Ritz point makes no k x k eigendecomposition, and one
that does not adds those of the full search.  The other eigendecompositions are
small: m x m ones of the projected duals, and one of R projected onto the
null space of H, whose dimension is usually 1.
Reused eigenvalues cannot certify H >= 0 (the smallest is 0 by
construction), so that certificate is a Cholesky factorization of the
explicitly formed H + delta I: if it succeeds, lambda_min(H) >= -delta up
to O(k u ||H||) rounding; H is formed only there and, shifted, for the
shift-invert steps, and the Cholesky factorization costs a small fraction
of an eigendecomposition.  At a Ritz point theta only bounds
lambda_min(Q + mu2 R) from above, and this certificate, with delta
tightened to _RITZ_GATE tol h + rho, is what proves that no eigenvector
outside W lies lower.  The other residuals are explicit products with Q
and R, H x among them as Q x + mu1 x + mu2 R x.

Every threshold either has no units (g = x^T R x - 1, the unit norm,
tol) or scales with the problem's own data, so Q times c changes nothing
but mu1, mu2 and the objective, each times c.  The data scales are
h = ||H||_2 = lambda_max - lambda_min, the mu2 unit ||Q + mu2 R||_2 /
||R||_2, and the rounding floor rho = 8 k (eps (||Q + mu2 R||_2 +
|mu2| ||R||_2) + tiny), tiny the smallest normal float, a bound on the
rounding error of forming H and its products.  rho is added, not scaled
by tol, to the positive semidefiniteness shift delta, to the stationarity
and Ritz gates and to the duality gap gate: it is what certifies a
near-scalar H at a kink, where h is near zero, and H = 0 when Q = 0.  h is
exact after a full evaluation; at a Ritz point it is the lower bound
max(theta_max, max_i (Q + mu2 R)_ii) - theta, and rho is computed from
the same lower bound on ||Q + mu2 R||_2, so no gate is looser there.
The solver takes max |Q| in [1e-100, 1e100] (or Q = 0), where the squares
it forms neither overflow nor underflow, and refuses the rest with
InputError.

A 2 x 2 problem runs no search.  Its feasible set is four points, two
pairs +-x, so the lower pair is the minimum, and its multipliers solve
H x = 0, two linear equations; the certificates above check it as they
check a full evaluation.  A search there would compare eigenvalues of a
near-scalar Q + mu2 R against a cluster bound relative to their size, not
to h, and stop at a kink that is not one.

Problems enter the solver validated, as one private record of Q, R and
||R||_2: ``solve`` builds it once per call; the basis construction checks
one Q per level, and solves the deflated problems of that level, windows
of it, unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EigensolverError, InputError, SolverError
from .graphs import _finite_square, _real

__all__ = [
    "QecqpProblem",
    "QecqpSolution",
    "solve",
]

_SYM_TOL = 1e-12
_EIG_ONE_GAP = 1e-8


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"symmetric eigendecomposition failed: {exc}") from exc


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * m + 0.5 * m.T


@dataclass(frozen=True, eq=False)
class QecqpProblem:
    """Validated problem data (Q, R), with the spectral norm ``r_norm`` of R.

    Q and R are the symmetric parts of the given matrices, which must be
    symmetric within rounding, in arrays of their own, so a later change to
    the given arrays does not reach the problem.
    """

    q: np.ndarray
    r: np.ndarray
    r_norm: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        q, r = _finite_square(self.q, "Q"), _finite_square(self.r, "R")
        if q.shape != r.shape:
            raise InputError(f"Q and R must have equal shapes, got {q.shape} and {r.shape}")
        if q.size == 0:
            raise InputError("Q and R must not be empty")
        q = _checked_q(q)
        rs = max(1.0, float(np.abs(r).max()))
        r = _symmetric(r, rs, "R")
        ev = np.linalg.eigvalsh(r)
        if ev[0] < -1e-10 * rs:
            raise InputError(f"R is not positive semidefinite (lambda_min = {ev[0]:.3e})")
        gap = _EIG_ONE_GAP * rs
        if not (ev[0] < 1.0 - gap and ev[-1] > 1.0 + gap):
            raise InputError("spectrum of R must straddle 1 strictly (some eigenvalue below and some above)")
        if np.abs(ev - 1.0).min() <= gap:
            raise InputError("R has an eigenvalue at 1, which the dual approach excludes")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "r_norm", max(-float(ev[0]), float(ev[-1])))

    @property
    def dim(self) -> int:
        return self.q.shape[0]


def _symmetric(m: np.ndarray, scale: float, name: str) -> np.ndarray:
    """The symmetric part of m, provided m is symmetric within
    _SYM_TOL * scale.  An exactly symmetric m comes back unchanged, but for
    rounding in subnormal entries, even with entries near the largest
    float."""
    if float(np.abs(m - m.T).max()) > _SYM_TOL * scale:
        raise InputError(f"{name} is not symmetric")
    return _sym(m)


def _checked_q(q: np.ndarray) -> np.ndarray:
    """The symmetric part of a finite Q symmetric within _SYM_TOL * max |Q|,
    with no floor, so a small Q is held to the same relative bound as a
    large one.  The basis construction runs this check once per level, on
    the scaled Q, and solves the deflated problems of that level unchecked."""
    return _symmetric(q, float(np.abs(q).max()), "Q")


def _check_scale(q: np.ndarray, name: str) -> None:
    """InputError unless Q = 0 or 1e-100 <= max |Q| <= 1e100.  Within that
    range the squares the solver forms stay normal floats: those of
    ||Q + mu2 R||_2, up to about 10 max |Q|, and of the inverse eigenvalue
    gaps of g'.  Past it, sums of squares overflow (weights of 1e200 gave a
    stationarity residual of inf) or underflow to 0."""
    q_max = float(np.abs(q).max())
    if q_max and not 1e-100 <= q_max <= 1e100:
        raise InputError(f"max |{name}| = {q_max:.3e} lies outside [1e-100, 1e100], the range the solver certifies")


@dataclass(frozen=True, eq=False)
class QecqpSolution:
    """Certified global minimizer with its dual maximizer (mu1, mu2) and the
    dual value ``fval`` = -mu1 - mu2.

    Residuals, for H = Q + mu1 I + mu2 R: ``stationarity`` = ||H x||_2,
    ``unit_error`` = |x^T x - 1|, ``feas_error`` = |x^T R x - 1|.  ``gap``
    is |x^T Q x - fval|.
    """

    x: np.ndarray
    objective: float
    mu1: float
    mu2: float
    fval: float
    stationarity: float
    unit_error: float
    feas_error: float
    gap: float


class _Problem(NamedTuple):
    """The problem as the solver works on it: validated Q and R, and
    r_norm = ||R||_2."""

    q: np.ndarray
    r: np.ndarray
    r_norm: float

    @property
    def dim(self) -> int:
        return self.q.shape[0]


class _DualEval(NamedTuple):
    """One dual evaluation, of the full problem or of a projected one."""

    mu2: float
    lam: float  # lambda_min(Q + mu2 R)
    g_lo: float  # supergradient interval [g_lo, g_hi]
    g_hi: float
    dg: float | None  # g'(mu2) when lambda_min is simple, else None
    w: np.ndarray | None  # eigenpairs of Q + mu2 R, ascending
    v: np.ndarray | None
    cluster: int  # eigenvalues within rounding of lambda_min (0 without eigenpairs)
    top: float  # lambda_max(Q + mu2 R), or a lower bound on it at a Ritz point
    dv: float  # ||dv_0/dmu2|| when lambda_min is simple, else inf

    @property
    def norm(self) -> float:
        """||Q + mu2 R||_2 (a lower bound on it at a Ritz point)."""
        return max(-self.lam, self.top)


def _dual_eval(q: np.ndarray, r: np.ndarray, mu2: float) -> _DualEval:
    """Smallest eigenvalue and supergradient interval at mu2, plus the
    curvature g'(mu2) of the module docstring when the smallest eigenvalue is
    simple, and the eigenpairs they came from.  The cluster of the smallest
    eigenvalue holds the eigenvalues within 1e-9 max |w| of it."""
    w, v = _eigh(_h_matrix(q, r, 0.0, mu2))
    lam, top = float(w[0]), float(w[-1])
    k = int(np.searchsorted(w, w[0] + 1e-9 * float(np.abs(w).max()), side="right"))
    if k == 1:
        c = v.T @ (r @ v[:, 0])
        g = float(c[0]) - 1.0
        coef = c[1:] / (lam - w[1:])
        dg = 2.0 * float(c[1:] @ coef)
        return _DualEval(mu2, lam, g, g, dg, w, v, k, top, float(np.linalg.norm(coef)))
    vc = v[:, :k]
    d = np.linalg.eigvalsh(_sym(vc.T @ r @ vc))
    return _DualEval(mu2, lam, float(d[0]) - 1.0, float(d[-1]) - 1.0, None, w, v, k, top, np.inf)


class _Start(NamedTuple):
    """Where a solve begins: the dual variable mu2 of its first evaluation,
    and optionally a subspace (columns of ``w``, not necessarily orthonormal)
    expected to hold the lowest eigenvectors of Q + mu2 R.  Without ``w``
    the first evaluation is a full one."""

    mu2: float
    w: np.ndarray | None


_COLD = _Start(0.0, None)


_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# A smooth point counts as the maximizer when its null point v_0 is within
# _NEWTON_STOP * tol of the one at the root (see _Limits.done).
_NEWTON_STOP = 1e-2


def _mu2_tol(rel: float, mu2: float, e: _DualEval, r_norm: float) -> float:
    """A width in mu2 near the evaluation e: rel |mu2| plus
    eps ||Q + mu2 R||_2 / ||R||_2, the move of mu2 that changes Q + mu2 R
    by one rounding unit of its norm."""
    return rel * abs(mu2) + _EPS * e.norm / r_norm


class _Limits(NamedTuple):
    """Stopping rules of a dual search.  None has the units of Q: g has
    none, and a width in mu2 is measured by _mu2_tol."""

    tol: float
    r_norm: float  # ||R||_2

    def accepts(self, e: _DualEval) -> bool:
        """The supergradient is small enough for a near-feasible null vector."""
        return max(abs(e.g_lo), abs(e.g_hi)) <= 1e-8 * self.r_norm

    def done(self, e: _DualEval) -> bool:
        """The supergradient interval reaches zero within 1e-13 ||R||_2 (a
        kink or an exact root), or e is smooth and its null point v_0 is as
        good as the root's: the feasibility error g of v_0 and its move
        |g / g'| * ||dv_0/dmu2|| along the Newton step to the root are both
        within _NEWTON_STOP * tol."""
        band = 1e-13 * self.r_norm
        if e.g_lo <= band and e.g_hi >= -band:
            return True
        if not e.dg:
            return False
        g = abs(e.g_lo)
        return max(g, g / abs(e.dg) * e.dv) <= _NEWTON_STOP * self.tol


# Below this size a start's subspace is not searched: a projected search
# there, on a W of _CARRY_DIM or more columns, costs more than the full
# search it saves (measured with one BLAS thread).  Without the rule random_geometric
# 192 built about 2% slower, and build_level of random_geometric 128 seed 1
# at tol 1e-14 failed its feasibility certificate with one BLAS thread
# (residual 5.0e-10), where it passes with the rule (with two BLAS threads
# it fails either way).
_WARM_MIN_DIM = 24
# Lowest eigenvectors or Ritz vectors a solve hands on as the next start.
_CARRY_DIM = 16
# From this size on, a solve that ended at its own start hands on its
# subspace too; below it, only its mu2 (see _solve).
_CARRY_OWN_START_DIM = 128
# A Ritz point is accepted, and certified, with its residual and the
# positive semidefiniteness shift both at _RITZ_GATE * tol * h plus the
# rounding floor (see _rounding).
_RITZ_GATE = 1e-2
# Shift-invert steps of a projected search, each followed by one more
# projected maximization, before the full search takes over.
_LU_ROUNDS = 3
# The shift-invert step's shift lies this far below the smallest Ritz value,
# relative to h.
_SHIFT = 1e-6
_MAX_FAR_EVALS = 80
_MAX_EVALS = 400


def _projected_search(
    problem: _Problem,
    mu2: float,
    new: np.ndarray,
    lim: _Limits,
) -> _DualEval | float:
    """Dual maximizer searched on a subspace W and checked on the full
    problem, without a full-size evaluation.

    W starts as the span of ``new``, carried over from a nearby problem.
    Each round maximizes the dual of (W^T Q W, W^T R W) from mu2 with
    _search, which costs only m x m eigendecompositions, and hands the
    projected maximizer p to _ritz_round, one pass that returns p's Ritz
    point if it passes, or else, in the first _LU_ROUNDS rounds, one
    shift-invert step (one k x k LU solve) by which W grows; the next round
    starts from p.mu2.  When the rounds run out, or when a step fails or
    adds nothing to W, p.mu2 is returned for the full search to start from.
    When the spectrum of the carried W^T R W does not straddle 1, when W
    would fill the space, or when the projected dual has no maximizer, the
    latest mu2 (the given one before any maximizer) is returned.
    """
    q, r = problem.q, problem.r
    w = np.zeros((problem.dim, 0))
    qw = rw = w
    new = _orthonormal_complement(w, new)
    for rnd in range(_LU_ROUNDS + 1):
        if not 0 < new.shape[1] < problem.dim - w.shape[1]:
            break
        w = np.column_stack([w, new])
        qw = np.column_stack([qw, q @ new])
        rw = np.column_stack([rw, r @ new])
        qs, rs = _sym(w.T @ qw), _sym(w.T @ rw)
        if rnd == 0:
            # The projected dual has a maximizer only if the spectrum of
            # W^T R W straddles 1.
            d = np.linalg.eigvalsh(rs)
            if not d[0] < 1.0 < d[-1]:
                break
        try:
            p = _search(lambda m: _dual_eval(qs, rs, m), _dual_eval(qs, rs, mu2), lim)
        except SolverError:
            break
        mu2 = p.mu2
        found = _ritz_round(problem, w, qw, rw, p, lim, rnd < _LU_ROUNDS)
        if isinstance(found, _DualEval):
            return found
        if found is None:
            break
        new = _orthonormal_complement(w, found)
    return mu2


def _ritz_round(
    problem: _Problem, w: np.ndarray, qw: np.ndarray, rw: np.ndarray, p: _DualEval, lim: _Limits, step: bool
) -> _DualEval | np.ndarray | None:
    """One round's check and refinement at the projected maximizer p, in
    one pass over the lowest max(c, 3) Ritz pairs (theta_i, y_i = W z_i) of
    A = Q + mu2 R, c = p.cluster the size of the cluster of theta_0 that
    the projected evaluation counted: y_i, R y_i and the residuals
    A y_i - theta_i y_i come from the products qw = Q W and rw = R W, and
    h = top - theta_0, a lower bound of ||H||_2, from
    top = max(theta_max, max_j A_jj) <= lambda_max(A).

    Returns p lifted to the full problem (``v`` = W z, and ``top``) when p
    ends the search (_Limits.done) and the cluster's residuals pass the Ritz
    gate, _RITZ_GATE * tol * h plus the rounding floor; since
    theta_0 >= lambda_min(A), whether it is the minimum is left to the
    positive semidefiniteness certificate.  Otherwise, if ``step`` is set,
    returns the solution of one LU solve with A - sigma I,
    sigma = theta_0 - _SHIFT * h, for the residuals of the lowest three
    Ritz pairs and (R - y_0^T R y_0) y_0, the direction of dv_0/dmu2.  (A - sigma I)^{-1} (A - theta_i I) y_i =
    y_i + (sigma - theta_i) (A - sigma I)^{-1} y_i spans, with y_i in W, the
    inverse iteration step from y_i, and solved for the residual its part
    outside W survives rounding ((A - sigma I)^{-1} y_i alone is parallel to
    y_i to about 1e-11, below the drop rule of _orthonormal_complement).
    None without ``step``, or if the factorization fails or the solution is
    not finite.
    """
    done = lim.done(p)
    if not (done or step):
        return None
    d = problem.q.diagonal() + p.mu2 * problem.r.diagonal()
    lifted = p._replace(top=max(float(p.w[-1]), float(d.max())))
    h = lifted.top - p.lam
    z = p.v[:, : max(p.cluster, 3)]
    y = w @ z
    ry = rw @ z
    res = qw @ z + p.mu2 * ry - y * p.w[: z.shape[1]]
    gate = _RITZ_GATE * lim.tol * h + _rounding(problem, lifted)
    if done and float(np.linalg.norm(res[:, : p.cluster], axis=0).max()) <= gate:
        return lifted._replace(v=w @ p.v)
    if not step:
        return None
    dv = ry[:, 0] - float(y[:, 0] @ ry[:, 0]) * y[:, 0]
    try:
        h_shifted = _h_matrix(problem.q, problem.r, _SHIFT * h - p.lam, p.mu2)
        x = np.linalg.solve(h_shifted, np.column_stack([res[:, :3], dv]))
    except np.linalg.LinAlgError:
        return None
    return x if np.isfinite(x).all() else None


def _orthonormal_complement(w: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the part of span(new) orthogonal to the
    orthonormal columns of w: the left singular vectors, with singular value
    above 1e-8, of the unit columns of new projected off span(w).  So zero
    columns, columns (numerically) inside span(w) and columns that
    (numerically) repeat the others add nothing; an orthonormal basis of
    the projected columns themselves would turn their rounding noise into
    unit directions."""
    norm = np.linalg.norm(new, axis=0)
    new = new[:, norm > 0.0] / norm[norm > 0.0]
    for _ in range(2):  # twice is enough (Kahan-Parlett)
        new = new - w @ (w.T @ new)
    u, s, _ = np.linalg.svd(new, full_matrices=False)
    return u[:, s > 1e-8]


def _search(ev, e: _DualEval, lim: _Limits) -> _DualEval:
    """Root of the supergradient of the dual that ``ev`` evaluates, searched
    from the evaluation ``e``; returns the latest evaluation, at which the
    search converged.

    The bracket starts one-sided at e.mu2 on the side the supergradient
    points to, with ``width`` = ||Q + mu2 R||_2 at e.  Each step is, in this
    order of preference:

    * a Newton step from the latest evaluation, when it lands strictly
      inside the bracket, is at most half the step before last (so an
      oscillating Newton iteration is cut off) and, while the bracket is
      open, at most ``width``;
    * on an open bracket, the far end ``width`` past its finite end, with
      width doubling each time;
    * on a closed bracket, the intersection of the tangent lines of f at
      the two ends, exact where f has a kink, or bisection when it does not
      land strictly inside.
    """
    width = e.norm
    lo = hi = None  # (mu2, f, supergradient) at the two ends of the bracket
    prev_step = last_step = np.inf
    far = 0
    for _ in range(_MAX_EVALS):
        if lim.done(e):
            return e
        if e.g_lo > 0.0:
            lo = (e.mu2, -e.mu2 + e.lam, e.g_lo)
        else:
            hi = (e.mu2, -e.mu2 + e.lam, e.g_hi)
        a = lo[0] if lo else -np.inf
        b = hi[0] if hi else np.inf
        closed = lo is not None and hi is not None
        if closed:
            if lim.accepts(e) and b - a <= _mu2_tol(lim.tol, e.mu2, e, lim.r_norm):
                return e
            mu2 = 0.5 * (a + b)
            if b - a <= _mu2_tol(16.0 * _EPS, mu2, e, lim.r_norm):
                return ev(mu2)
        newton = e.mu2 - e.g_lo / e.dg if e.dg else np.nan
        step = abs(newton - e.mu2)
        if a < newton < b and step <= 0.5 * abs(prev_step) and (closed or step <= width):
            mu2 = newton
        elif closed:
            (_, fa, ga), (_, fb, gb) = lo, hi
            cut = (fb - fa + ga * a - gb * b) / (ga - gb)
            if a < cut < b:
                mu2 = cut
        else:
            far += 1
            if far > _MAX_FAR_EVALS:
                raise SolverError("dual bracket search failed; no supergradient sign change")
            mu2 = a + width if lo else b - width
            width *= 2.0
        prev_step, last_step = last_step, mu2 - e.mu2
        e = e._replace(w=None, v=None)  # only the latest evaluation's eigenpairs stay alive
        e = ev(mu2)
    raise SolverError("dual root finding failed to converge")


def _h_matrix(q: np.ndarray, r: np.ndarray, mu1: float, mu2: float) -> np.ndarray:
    """Q + mu1 I + mu2 R, built in place to keep the peak of temporaries low;
    exactly symmetric because Q and R are.  With mu1 = 0 it is the
    Q + mu2 R of a dual evaluation."""
    h = q.copy()
    h.flat[:: q.shape[0] + 1] += mu1
    h += mu2 * r
    return h


def _null_point_from_eigh(w: np.ndarray, v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Feasible point from the near-null eigenvectors of H.

    Starts with all eigenvectors below the null threshold, 1e-8 times the
    largest eigenvalue of H, and enlarges with the next-smallest ones until
    an eigenvector of B^T R B is feasible within the direct-accept band (of
    several, one of least energy z^T diag(w) z on H), or until the
    eigenvalues of B^T R B straddle 1; it then interpolates between the
    straddling pair to hit x^T R x = 1 exactly.
    """
    dim = len(w)
    threshold = 1e-8 * float(w[-1])
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
            # The first near-feasible candidate of least energy, energies
            # within the rounding noise dim eps ||H|| counting as equal.
            cand = np.nonzero(near)[0]
            energy = w[:k] @ z[:, cand] ** 2
            idx = int(cand[np.argmax(energy <= energy.min() + dim * _EPS * float(w[-1]))])
            return b @ z[:, idx]
        below = np.nonzero(d < 1.0)[0]
        above = np.nonzero(d > 1.0)[0]
        if len(below) and len(above):
            i_lo = int(below[-1])
            i_hi = int(above[0])
            d_lo, d_hi = float(d[i_lo]), float(d[i_hi])
            alpha = np.sqrt((1.0 - d_lo) / (d_hi - d_lo))
            beta = np.sqrt(1.0 - alpha**2)
            # Each of the pair with its sign fixed, so that the mix depends
            # on the null space only, not on the signs LAPACK returns.
            return alpha * _fix_sign(b @ z[:, i_hi]) + beta * _fix_sign(b @ z[:, i_lo])
        k += 1
    raise SolverError("could not reach the feasibility constraint inside the null space of H")


def _fix_sign(x: np.ndarray) -> np.ndarray:
    # Lowest index within a relative band of the max magnitude, so that
    # rounding noise cannot flip the convention on tied entries.
    a = np.abs(x)
    k = int(np.nonzero(a >= a.max() * (1.0 - 1e-9))[0][0])
    return -x if x[k] < 0 else x


def solve(problem: QecqpProblem, tol: float = 1e-10) -> QecqpSolution:
    """Globally solve the problem and certify optimality.

    The solve is cold: the full search of the module docstring from mu2 = 0,
    with one k x k eigendecomposition per full-size dual evaluation; a 2 x 2
    problem is solved exactly instead.  The feasible null point is read off
    the eigenpairs of the last evaluation, shifted to those of H, so no
    further k x k eigendecomposition is made.  Positive
    semidefiniteness of H is certified by a Cholesky factorization of
    H + delta I; every other residual is an explicit product with Q and R.
    Raises SolverError if any certificate fails.  At the default ``tol`` the
    thresholds are delta = 1e-7 ||H||_2 for positive semidefiniteness,
    1e-6 ||H||_2 for stationarity and 1e-6 |x^T Q x| for the duality gap,
    each plus the rounding floor of the module docstring, and 1e-8 for the
    unit norm and 1e-6 for x^T R x - 1.  None depends on the scale of Q, so
    Q times c gives the same x, with mu1, mu2 and fval times c.
    Raises InputError when Q is not 0 and max |Q| lies outside
    [1e-100, 1e100].
    """
    _check_tol(tol)
    _check_scale(problem.q, "Q")
    return _solve(_Problem(problem.q, problem.r, problem.r_norm), tol, _COLD)[0]


def _solve(problem: _Problem, tol: float, start: _Start) -> tuple[QecqpSolution, _Start, list[tuple[float, float]]]:
    """solve() from ``start``.  Returns the solution, the start for a next
    problem that differs from this one by a small deflation, and one
    (mu2, f(mu2)) row per full-size dual evaluation, in order; the subspace
    evaluations and the shift-invert steps are not recorded.

    The route: a 2 x 2 problem is solved exactly (_solve_2d), with one row,
    and hands on its mu2 alone.  A start with a subspace, for
    k >= _WARM_MIN_DIM, runs _projected_search from that subspace at
    start.mu2 first; it ends at a Ritz point or names the mu2 the full
    search starts from.  The full search takes one full evaluation there, at
    start.mu2 for any other start, and maximizes the concave dual by
    safeguarded Newton steps on the supergradient (_search).  Convergence is
    declared by _Limits.done (an interval that straddles zero within a small
    band, or a smooth point whose null vector is as good as the root's), or
    when the bracket is narrower than _mu2_tol with a supergradient small
    enough that a near-feasible null vector exists.

    The start handed on is the final mu2 with the lowest _CARRY_DIM
    eigenvectors (or Ritz vectors) of Q + mu2 R there.  Below
    k = _CARRY_OWN_START_DIM a solve that ended at its own start point
    (within tol relative to |mu2| plus the mu2 unit ||Q + mu2 R||_2 /
    ||R||_2) hands on its mu2 alone, since one full evaluation there is
    likely to settle the next problem too; from that size on the projected
    search on the handed-on subspace costs less.

    A start without a subspace is a cold solve, certified as solve() is.  A
    start with one is warm, and its solution may come from a Ritz point of
    the projected search, reached through shift-invert steps.  That point
    is certified with the residual and positive semidefiniteness gates
    tightened to _RITZ_GATE * tol * h plus the rounding floor, so
    lambda_min(H) >= -delta also proves that no eigenvector outside the
    subspace lies below the Ritz value by more than delta; h and the floor
    there are lower bounds of the full-evaluation path's, which makes every
    gate at least as tight as on that path.  If any certificate fails
    there, the solve starts over cold at that mu2 and returns the rows of
    that restart, the Ritz attempt having made no full evaluation.  The
    problem enters validated, and tol is checked by the caller.
    """
    if problem.dim == 2:
        e, x = _solve_2d(problem)
        return _certify(problem, e, x, tol), _Start(e.mu2, None), [(e.mu2, -e.mu2 + e.lam)]
    q, r = problem.q, problem.r
    lim = _Limits(tol, problem.r_norm)
    rows: list[tuple[float, float]] = []
    found = start.mu2
    if start.w is not None and problem.dim >= _WARM_MIN_DIM:
        found = _projected_search(problem, found, start.w, lim)
    if isinstance(found, _DualEval):
        e = found
    else:

        def ev(m: float) -> _DualEval:
            d = _dual_eval(q, r, m)
            rows.append((m, -m + d.lam))
            return d

        e = _search(ev, ev(found), lim)
    ritz = e.v.shape[1] < problem.dim
    x = _fix_sign(_null_point_from_eigh(e.w - e.lam, e.v, r))
    # Carrying the subspace of a solve that ended at its own start is a size
    # trade-off: from k = _CARRY_OWN_START_DIM on, the warm projected search
    # it buys costs less than the k x k eigendecomposition at the handed-on
    # mu2 that it replaces.  Measured with one BLAS thread on depth-3
    # builds, against handing on mu2 alone: grid 256 built 10-14% faster
    # (level-0 full evaluations 132 -> 86), ring 200, grid 400 and ring 400
    # in 0.75x, 0.7x and 0.5x the time; grid 144, complete 120 and
    # random_geometric 192 did not move.  A threshold of 64 built grid 100
    # 1.1x slower, and carrying at every size made grid 64 1.5x and ring 64
    # 1.2x slower.
    moved = abs(e.mu2 - start.mu2) > tol * (abs(start.mu2) + e.norm / problem.r_norm)
    carry = e.v[:, :_CARRY_DIM].copy() if moved or problem.dim >= _CARRY_OWN_START_DIM else None
    e = e._replace(v=None)  # frees the eigenvectors before the certificate's k x k work
    try:
        sol = _certify(problem, e, x, tol, tight=ritz)
    except SolverError:
        if not ritz:
            raise
        return _solve(problem, tol, _Start(e.mu2, None))
    return sol, _Start(e.mu2, carry), rows


def _solve_2d(problem: _Problem) -> tuple[_DualEval, np.ndarray]:
    """The exact solution of a 2 x 2 problem, as the evaluation at its dual
    point (lam = -mu1 and top = lambda_max(Q + mu2 R)) and its x.

    The feasible set is the four points +-a u_0 +- b u_1, for the unit
    eigenvectors u_i of R with eigenvalues d_0 < 1 < d_1 and
    a^2 = (d_1 - 1) / (d_1 - d_0), b^2 = (1 - d_0) / (d_1 - d_0); x is the
    lower of a u_0 + b u_1 and a u_0 - b u_1, and (mu1, mu2) solve
    H x = Q x + mu1 x + mu2 R x = 0, a 2 x 2 system whose columns x and R x
    are independent (their determinant is +-a b (d_1 - d_0) in the u
    basis).  x is an eigenvector of Q + mu2 R with eigenvalue -mu1, so the
    other one is the trace minus it.
    """
    q, r = problem.q, problem.r
    d, u = np.linalg.eigh(r)
    a = np.sqrt((d[1] - 1.0) / (d[1] - d[0]))
    b = np.sqrt((1.0 - d[0]) / (d[1] - d[0]))
    x = min((a * u[:, 0] + b * u[:, 1], a * u[:, 0] - b * u[:, 1]), key=lambda c: float(c @ q @ c))
    x = _fix_sign(x)
    mu1, mu2 = (float(m) for m in np.linalg.solve(np.column_stack([x, r @ x]), -(q @ x)))
    lam = -mu1
    top = float(np.trace(q) + mu2 * np.trace(r)) - lam
    return _DualEval(mu2, lam, 0.0, 0.0, None, None, None, 0, top, np.inf), x


def _check_tol(tol) -> None:
    """InputError unless tol is a real number, not a bool, with
    0 < tol < 1e-4 (so NaN and inf fail too): from 1e-4 on the feasibility
    gate 1e4 * tol reaches 1, which any unit x passes when R = diag(2I, 0)."""
    if not 0.0 < _real(tol, "tol") < 1e-4:
        raise InputError(f"tol must lie in (0, 1e-4), got {tol!r}")


def _rounding(problem: _Problem, e: _DualEval) -> float:
    """The rounding floor rho of the module docstring at e: a bound on the
    rounding error of H and of the products with it, which a threshold
    scaled by tol cannot meet where ||H||_2 is near zero (a kink at a
    near-scalar H).  Its tiny keeps it positive where H = 0 exactly
    (Q = 0), so that the Cholesky factorization of H + delta I certifies
    H >= 0 there too."""
    return 8.0 * problem.dim * (_EPS * (e.norm + abs(e.mu2) * problem.r_norm) + _TINY)


def _certify(problem: _Problem, e: _DualEval, x: np.ndarray, tol: float, tight: bool = False) -> QecqpSolution:
    """Check every optimality certificate of x for the dual point of the
    evaluation e and return the solution.  The positive semidefiniteness
    shift, the stationarity and the duality gap gates each add the rounding
    floor to a multiple of tol: of h = ||H||_2 = top - lambda_min, and of
    |x^T Q x| for the gap.  ``tight`` scales the stationarity and positive
    semidefiniteness multiples down to _RITZ_GATE * tol * h."""
    h = e.top - e.lam
    floor = _rounding(problem, e)
    c_psd, c_stat = (_RITZ_GATE, _RITZ_GATE) if tight else (1e3, 1e4)
    delta, stat_tol = c_psd * tol * h + floor, c_stat * tol * h + floor
    try:
        np.linalg.cholesky(_h_matrix(problem.q, problem.r, delta - e.lam, e.mu2))
        psd = True
    except np.linalg.LinAlgError:
        psd = False

    mu1, mu2, fval = -e.lam, e.mu2, -e.mu2 + e.lam
    # H x = Q x + mu1 x + mu2 R x, from the products the other residuals need.
    qx = x @ problem.q
    rx = x @ problem.r
    objective = float(qx @ x)
    stationarity = float(np.linalg.norm(qx + mu1 * x + mu2 * rx))
    unit_error = abs(float(x @ x) - 1.0)
    feas_error = abs(float(rx @ x) - 1.0)
    gap = abs(objective - fval)

    checks = [
        (psd, f"H not positive semidefinite: Cholesky of H + {delta:.3e} I failed"),
        (stationarity <= stat_tol, f"stationarity residual {stationarity:.3e} too large"),
        (unit_error <= 1e2 * tol, f"unit-norm residual {unit_error:.3e} too large"),
        (feas_error <= 1e4 * tol, f"feasibility residual {feas_error:.3e} too large"),
        (gap <= 1e4 * tol * abs(objective) + floor, f"duality gap {gap:.3e} too large"),
    ]
    for ok, msg in checks:
        if not ok:
            raise SolverError(f"optimality certificate failed: {msg}")
    return QecqpSolution(
        x=x, objective=objective, mu1=mu1, mu2=mu2, fval=fval, stationarity=stationarity,
        unit_error=unit_error, feas_error=feas_error, gap=gap,
    )
