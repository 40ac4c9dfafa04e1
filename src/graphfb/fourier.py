"""Orthonormal graph Fourier bases adapted to a two-channel sampling pattern.

Given a Laplacian L and a sign vector s (J = diag(s)) from a sampling
pattern, the basis U is built so that J U = U Phi for a symmetric signed
permutation Phi: flipping the signs of one channel permutes basis vectors.
Columns come in pairs (u, Ju) where u minimizes the smoothness u^T L u over
unit vectors of the current complement subspace subject to u^T J u = 0, a
problem solved globally as a two-constraint quadratic program.

Every complement the construction visits is J-invariant, so it splits into a
part supported on the low channel and a part supported on the high channel.
The construction keeps an orthonormal basis of each part, B_lo and B_hi, in
coordinates of keep_low and keep_high (both start as the identity), and the
projected smoothness Q = A^T L A for A = blockdiag(B_lo, B_hi), which starts
as L with rows and columns ordered (low, high).  In these coordinates the
constraint matrix R = A^T J A + I = diag(2I, 0) is constant.  A pair's
solution x = (x_lo, x_hi) gives u = (B_lo x_lo + B_hi x_hi) / |.| and
Ju = s * u; one Householder reflection per block then rotates x_lo, and
x_hi, onto the first column of its block, which is dropped, and Q follows by
a rank-2 update per block.  The complement is MIXED (J has both signs on it)
while both blocks are non-empty.  Once one block is empty, J acts as +-I on
the rest, and the smoothness eigenvectors of the remaining block complete
the basis with Ju = +-u.  Phi is recorded as each column is written: the
two columns of a pair are each other's partner with sign +1, and a
completion column is its own partner with sign +1 on the low block and -1
on the high block.  Columns are finally sorted by increasing smoothness
(stable, so pair discovery order breaks ties), Phi is carried through the
same sort.  J U = U Phi then holds exactly, so the build gates only
orthonormality, max |U^T U - I| <= 1e-8, as ``verify_pyramid`` does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import qecqp
from .errors import InputError, NumericalError
from .graphs import _finite_square, _real_array, _vertex_indices
from .sampling import SamplingPattern

__all__ = [
    "SubspaceClass",
    "SignedPermutation",
    "FourierBasis",
    "classify_subspace",
    "complement_basis",
    "compute_basis",
]

# Largest max |U^T U - I| that the build and verify_pyramid accept.
_ORTHONORMALITY_TOL = 1e-8


class SubspaceClass(enum.Enum):
    MIXED = "mixed"
    ALL_PLUS = "all_plus"
    ALL_MINUS = "all_minus"


@dataclass(frozen=True, eq=False)
class SignedPermutation:
    """Symmetric signed involution: entry signs[i] at (i, perm[i]).

    perm is an involution and signs are +-1 with signs[perm] == signs, which
    makes the matrix symmetric and equal to its own inverse.  perm must hold
    integers (a bool or a float, integral or not, raises InputError rather
    than being truncated); signs may be integral floats.
    """

    perm: np.ndarray
    signs: np.ndarray

    def __post_init__(self) -> None:
        perm = _vertex_indices(self.perm, "perm")
        signs = _real_array(self.signs, "signs")
        n = perm.shape[0]
        if signs.shape != (n,):
            raise InputError("perm and signs must be vectors of equal length")
        if sorted(perm.tolist()) != list(range(n)):
            raise InputError("perm is not a permutation")
        if not np.array_equal(perm[perm], np.arange(n)):
            raise InputError("perm is not an involution")
        if not np.all(np.abs(signs) == 1):
            raise InputError("signs must be +-1")
        if not np.array_equal(signs[perm], signs):
            raise InputError("signs must agree across each pair")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs.astype(int))

    @property
    def n(self) -> int:
        return len(self.perm)


@dataclass(frozen=True, eq=False)
class FourierBasis:
    """Orthonormal basis with the channel-flip folding property.

    ``u`` holds the basis columns ordered by ``energies`` (ascending),
    ``phi`` satisfies J U = U Phi for the pattern's J (both on a FilterLevel),
    and ``pair_tags`` marks which pair of the construction each column came
    from (-1 for completion columns).
    """

    u: np.ndarray = field(repr=False)
    energies: np.ndarray
    phi: SignedPermutation
    pair_tags: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.u.shape[0]


def classify_subspace(a: np.ndarray, sign: np.ndarray) -> SubspaceClass:
    """Classify how J = diag(sign) acts on the span of the columns of a.

    The span must be J-invariant, equivalently every eigenvalue of A^T J A
    is +-1 within 1e-8.  Returns ALL_PLUS / ALL_MINUS when J fixes /
    negates the whole span, MIXED when both eigenvalues occur.
    """
    a = _real_array(a, "subspace basis")
    if a.ndim != 2 or a.shape[1] < 1:
        raise InputError(f"need at least one column to classify, got shape {a.shape}")
    t = a.T @ (sign[:, None] * a)
    ev = np.linalg.eigvalsh(0.5 * (t + t.T))
    if np.abs(np.abs(ev) - 1.0).max() > 1e-8:
        raise NumericalError("subspace is not invariant under the channel sign flip")
    if ev[0] > 0:
        return SubspaceClass.ALL_PLUS
    if ev[-1] < 0:
        return SubspaceClass.ALL_MINUS
    return SubspaceClass.MIXED


def complement_basis(u_built: np.ndarray | None, n: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the built columns.

    Computed from a full singular value decomposition, so the returned
    columns are orthogonal to the built ones at machine precision.
    """
    if u_built is None or u_built.shape[1] == 0:
        return np.eye(n)
    if u_built.shape[0] != n:
        raise InputError(f"built columns have {u_built.shape[0]} rows, expected {n}")
    m = u_built.shape[1]
    if m >= n:
        return np.zeros((n, 0))
    left, _, _ = np.linalg.svd(u_built, full_matrices=True)
    return left[:, m:]


def _orthonormality(u: np.ndarray) -> float:
    """max |U^T U - I|, with 1 taken off the diagonal of U^T U in place."""
    gram = u.T @ u
    gram[np.diag_indices_from(gram)] -= 1.0
    return float(np.abs(gram).max())


def _split_off(b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reflect the block basis b so that b x / |x| becomes its first column.

    Returns that column, the other reflected columns, and the unit vector v
    of the Householder reflection I - 2 v v^T, which sends x / |x| to -+e_1.
    """
    v = x / np.linalg.norm(x)
    sigma = 1.0 if v[0] >= 0 else -1.0
    v[0] += sigma
    v /= np.linalg.norm(v)
    reflected = b - 2.0 * np.outer(b @ v, v)
    return -sigma * reflected[:, 0], reflected[:, 1:], v


def compute_basis(
    l_matrix: np.ndarray,
    pattern: SamplingPattern,
    *,
    tol: float = 1e-10,
    trace_hook=None,
) -> FourierBasis:
    """Build the folding-adapted orthonormal basis for (L, pattern).

    Consecutive subproblems differ by one deflation, so each solve starts
    warm from the one before: its final mu2 and a few of the lowest
    eigenvectors (or Ritz vectors) of Q + mu2 R there, which follow Q
    through the same block Householder reflections and row deletions.  The
    solve searches that subspace before any k x k eigendecomposition, and
    may end at a certified Ritz point without one (see ``qecqp``).  A small
    solve that ended at its own start (within ``tol``) hands on only its
    mu2, and the next one starts with a full evaluation there; a large one
    hands on its subspace too, as nearly every pair of the first level of a
    grid 256 does at mu2 = 0.  The last pair of a level, at k = 2 when
    both channels end together, is solved exactly.  ``tol``, the solver
    tolerance, must lie in (0, 1e-4).

    The level's problem, Q = L in (low, high) order with R = diag(2I, 0)
    and ||R||_2 = 2, is checked once, by the checks a public problem's Q
    passes (so a non-finite or asymmetric L, or one with max |L| outside
    [1e-100, 1e100], raises InputError).  Each deflation keeps Q exactly
    symmetric, and each pair's R is a window of the level's, so the pairs
    are solved unchecked.

    ``trace_hook``, if given, is called as trace_hook(step, rows) with the
    rows the solve for the subproblem of each step returns: one (mu2, f)
    row per full-size dual evaluation, so none for a step that ended at a
    Ritz point, and one, its dual value, for an exactly solved 2 x 2 step.
    """
    qecqp._check_tol(tol)
    l_matrix = _finite_square(l_matrix)
    n = l_matrix.shape[0]
    if pattern.n != n:
        raise InputError(f"pattern size {pattern.n} does not match Laplacian size {n}")
    s = pattern.sign
    low, high = list(pattern.keep_low), list(pattern.keep_high)
    perm = low + high
    r = np.diag(np.repeat([2.0, 0.0], [len(low), len(high)]))
    q = qecqp._checked_q(l_matrix[np.ix_(perm, perm)])
    qecqp._check_scale(q, "L")
    b_lo = np.eye(len(low))
    b_hi = np.eye(len(high))

    u_mat = np.zeros((n, n))
    tags = np.full(n, -1, dtype=int)
    # Phi as built: column j's partner and the sign of J u_j = sign * u_partner.
    partner = np.arange(n)
    sign = np.ones(n, dtype=int)
    step = 0
    start = qecqp._COLD
    while b_lo.shape[1] and b_hi.shape[1]:
        k_lo, k = b_lo.shape[1], q.shape[0]
        sol, start, rows = qecqp._solve(qecqp._Problem(q, r[step : n - step, step : n - step], 2.0), tol, start)
        if trace_hook is not None:
            trace_hook(step, rows)
        u = np.zeros(n)
        u[low], b_lo, v_lo = _split_off(b_lo, sol.x[:k_lo])
        u[high], b_hi, v_hi = _split_off(b_hi, sol.x[k_lo:])
        u = qecqp._fix_sign(u / np.linalg.norm(u))
        u_mat[:, 2 * step] = u
        u_mat[:, 2 * step + 1] = s * u
        tags[2 * step : 2 * step + 2] = step
        partner[2 * step : 2 * step + 2] = 2 * step + 1, 2 * step

        # Q <- H Q H for H = I - 2 V V^T, a rank-2 update per block, then
        # drop the first coordinate of each block.
        v = np.zeros((k, 2))
        v[:k_lo, 0] = v_lo
        v[k_lo:, 1] = v_hi
        z = q @ v
        z -= v @ (v.T @ z)
        w = v @ z.T
        q = q - 2.0 * (w + w.T)
        keep = np.r_[1:k_lo, k_lo + 1 : k]
        q = q[np.ix_(keep, keep)]
        # The carried subspace follows Q: W <- H W, then the same rows go.
        if start.w is not None:
            start = start._replace(w=(start.w - 2.0 * (v @ (v.T @ start.w)))[keep])
        step += 1

    # One block is used up: J acts as +-I on what is left, and the
    # smoothness eigenvectors of the other block complete the basis.
    b, idx, j_sign = (b_lo, low, 1) if b_lo.shape[1] else (b_hi, high, -1)
    sign[2 * step :] = j_sign
    if b.shape[1]:
        _, vecs = np.linalg.eigh(q)
        for j, vec in enumerate((b @ vecs).T, start=2 * step):
            u_mat[idx, j] = qecqp._fix_sign(vec)

    energies = np.einsum("ij,ij->j", u_mat, l_matrix @ u_mat)
    order = np.argsort(energies, kind="stable")
    u_mat = u_mat[:, order]
    energies = energies[order]
    pair_tags = tags[order]
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    residual = _orthonormality(u_mat)
    if not residual <= _ORTHONORMALITY_TOL:
        raise NumericalError(f"basis orthonormality error {residual:.3e} exceeds {_ORTHONORMALITY_TOL:g}")
    phi = SignedPermutation(rank[partner[order]], sign[order])
    return FourierBasis(u=u_mat, energies=energies, phi=phi, pair_tags=pair_tags)
