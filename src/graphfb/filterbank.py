"""Two-channel spectral filter quartets with perfect reconstruction.

A filter is a vector h of spectral gains; its operator is F_h = U diag(h) U^T
for a folding-adapted basis U.  For a symmetric signed involution Phi the
identity Phi diag(h) Phi = diag(|Phi| h) reduces the reconstruction condition
of the sampled two-channel bank to two pointwise equations on the gains:

    g0.h0 + g1.h1 = 2,        (|Phi| g0).h0 - (|Phi| g1).h1 = 0.

Both designs here produce h with h + |Phi| h = 2 on every entry and take
h0 = sqrt(h) and h1 = |Phi| h0.  The synthesis gains equal the analysis
gains (g0 = h0, g1 = h1), so they are not stored, and both equations hold
exactly up to rounding.

Each level therefore applies its bank as one orthogonal n x n operator,
built once on first use from U and the gains and shared by ``analyze``,
``synthesize`` and ``verify_pr``:

    analysis = [rows keep_low of F_h0; rows keep_high of F_h1].

Filtering then sampling a channel keeps the rows of its filter operator;
zero-filling then filtering keeps the columns, so synthesis is the
transpose of analysis, which is also its inverse: keeping all n sampled
coefficients reconstructs any signal.  Signals with a non-finite entry are
rejected with InputError before any filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .fourier import FourierBasis, SignedPermutation, _orthonormality, compute_basis
from .graphs import Graph, _real, as_signal, laplacian
from .qecqp import _check_tol
from .sampling import SamplingPattern, greedy_max_cut

__all__ = [
    "FilterQuartet",
    "FilterLevel",
    "ideal_half_band",
    "design_from_hstar",
    "design_minimax",
    "quartet",
    "build_level",
    "analyze",
    "synthesize",
    "verify_pr",
]


class FilterQuartet(NamedTuple):
    """Analysis gains h0, h1; the synthesis gains equal them and are not stored."""

    h0: np.ndarray
    h1: np.ndarray


def ideal_half_band(n: int) -> np.ndarray:
    """Gain 2 on the lower-energy half of the spectrum indices, 0 above."""
    h = np.zeros(n)
    h[: (n + 1) // 2] = 2.0
    return h


def _hstar(value) -> float:
    """``value`` as a float in [0, 2]; InputError otherwise."""
    val = _real(value, "h*")
    if not (0.0 <= val <= 2.0):
        raise InputError(f"h* value {val} is outside [0, 2]")
    return val


def design_from_hstar(phi: SignedPermutation, hstar: float) -> np.ndarray:
    """Lowpass gain h with h(i) = h* and h(j) = 2 - h* on each pair (i, j), i < j.

    ``hstar`` is a real number in [0, 2]; for a different response on each
    pair use ``design_minimax``.  Entries fixed by Phi get gain 1.
    """
    val = _hstar(hstar)
    head = np.arange(phi.n) < phi.perm  # i of each pair (i, perm[i]), i < perm[i]
    h = np.ones(phi.n)
    h[head] = val
    h[phi.perm[head]] = 2.0 - val
    return h


def design_minimax(phi: SignedPermutation, h_des: np.ndarray) -> tuple[np.ndarray, float]:
    """Closest reconstruction-feasible gain to a desired response h_des.

    On each pair (i, j) the best feasible value minimizing the larger of the
    two deviations is the midpoint h(i) = (h_des(i) + 2 - h_des(j)) / 2 with
    h(j) = 2 - h(i); fixed entries must be 1.  Values are clamped to [0, 2]
    (the pair constraint is re-imposed after clamping) and the largest clamp
    is reported in the second return value (0.0 when nothing clamped).
    """
    h_des = as_signal(h_des, phi.n)
    head = np.arange(phi.n) < phi.perm
    tail = phi.perm[head]
    t = 0.5 * (h_des[head] + 2.0 - h_des[tail])
    tc = np.clip(t, 0.0, 2.0)
    h = np.ones(phi.n)
    h[head] = tc
    h[tail] = 2.0 - tc
    return h, float(np.abs(t - tc).max(initial=0.0))


def quartet(h: np.ndarray, phi: SignedPermutation) -> FilterQuartet:
    """Orthogonal quartet (sqrt(h), |Phi| sqrt(h)) from a lowpass gain with h + |Phi| h = 2."""
    h = as_signal(h, phi.n)
    if (h < 0).any():
        raise InputError("lowpass gain must be non-negative to take its square root")
    h0 = np.sqrt(h)
    return FilterQuartet(h0=h0, h1=h0[phi.perm])


@dataclass(frozen=True, eq=False)
class FilterLevel:
    """One analysis/synthesis stage: graph, partition, basis, and quartet.

    ``analysis`` is the level's orthogonal sampled operator, formed on first
    access and kept read-only for the life of the level; ``synthesis`` is
    its transpose, a view of the same memory.
    """

    graph: Graph
    pattern: SamplingPattern
    basis: FourierBasis
    quartet: FilterQuartet

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def analysis(self) -> np.ndarray:
        """n x n: the keep_low rows of F_h0 above the keep_high rows of F_h1."""
        u = self.basis.u
        low, high = list(self.pattern.keep_low), list(self.pattern.keep_high)
        a = np.vstack([(u[low] * self.quartet.h0) @ u.T, (u[high] * self.quartet.h1) @ u.T])
        a.flags.writeable = False
        return a

    @cached_property
    def synthesis(self) -> np.ndarray:
        """n x n: the transpose of ``analysis``, a read-only view with no copy."""
        return self.analysis.T


_DESIGNS = ("hstar", "minimax")


def _check_design(design) -> None:
    """InputError unless ``design`` is one of ``_DESIGNS``."""
    if design not in _DESIGNS:
        raise InputError(f"design must be one of {_DESIGNS}, got {design!r}")


def build_level(
    graph: Graph,
    *,
    design: str = "hstar",
    hstar: float = 2.0,
    tol: float = 1e-10,
) -> FilterLevel:
    """Partition a graph, build its basis, and attach a filter quartet.

    ``design`` is ``"hstar"`` (uses ``hstar``) or ``"minimax"`` (the
    closest feasible response to the ideal half-band one; call
    ``design_minimax`` directly for another desired response).  ``design``
    and ``hstar`` (in [0, 2] with either design), and ``tol`` (in
    (0, 1e-4)), are checked before the basis is built.
    """
    _check_design(design)
    _hstar(hstar)
    _check_tol(tol)
    lap = laplacian(graph)
    pattern = greedy_max_cut(lap)
    basis = compute_basis(lap, pattern, tol=tol)
    if design == "hstar":
        h = design_from_hstar(basis.phi, hstar)
    else:
        h, _ = design_minimax(basis.phi, ideal_half_band(graph.n))
    return FilterLevel(graph=graph, pattern=pattern, basis=basis, quartet=quartet(h, basis.phi))


def analyze(level: FilterLevel, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a signal into sampled low and high channel coefficients.

    One product with ``level.analysis``, split after the low channel.
    Raises InputError on a wrong length or a non-finite entry.
    """
    c = np.matmul(level.analysis, as_signal(f, level.n))
    m = len(level.pattern.keep_low)
    return c[:m], c[m:]


def synthesize(level: FilterLevel, f_low: np.ndarray, f_high: np.ndarray) -> np.ndarray:
    """Reassemble a signal from its two sampled channels.

    One product of ``level.synthesis`` with the low channel followed by the
    high one.  Raises InputError when a channel has the wrong length or a
    non-finite entry.
    """
    f_low = as_signal(f_low, len(level.pattern.keep_low))
    f_high = as_signal(f_high, len(level.pattern.keep_high))
    return np.matmul(level.synthesis, np.concatenate([f_low, f_high]))


def verify_pr(level: FilterLevel) -> dict[str, float]:
    """Residuals of the two gain equations and of the operator's orthogonality.

    Returns max-norm residuals, with the synthesis gains equal to the
    analysis gains: ``gain_sum`` for h0.h0 + h1.h1 = 2, ``gain_fold`` for
    (|Phi| h0).h0 - (|Phi| h1).h1 = 0, and ``operator`` for max |A^T A - I|
    with A = ``level.analysis``, so the check covers the very operator that
    ``analyze`` applies and whose transpose ``synthesize`` applies.
    """
    h0, h1 = level.quartet
    phi = level.basis.phi
    gain_sum = float(np.abs(h0 * h0 + h1 * h1 - 2.0).max())
    gain_fold = float(np.abs(h0[phi.perm] * h0 - h1[phi.perm] * h1).max())
    return {"gain_sum": gain_sum, "gain_fold": gain_fold, "operator": _orthonormality(level.analysis)}
