"""Two-channel spectral filter quartets with perfect reconstruction.

A filter is a vector h of spectral gains; its operator is F_h = U diag(h) U^T
for a folding-adapted basis U.  For a symmetric signed involution Phi the
identity Phi diag(h) Phi = diag(|Phi| h) reduces the reconstruction condition
of the sampled two-channel bank to two pointwise equations on the gains:

    g0.h0 + g1.h1 = 2,        (|Phi| g0).h0 - (|Phi| g1).h1 = 0.

Both designs here produce h with h + |Phi| h = 2 on every entry, take
h0 = g0 = sqrt(h) and h1 = g1 = |Phi| h0, and therefore satisfy both
equations exactly up to rounding.  The resulting analysis operator is
orthogonal: keeping all n sampled coefficients reconstructs any signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import InputError
from .fourier import FourierBasis, SignedPermutation, compute_basis
from .graphs import Graph, as_signal, laplacian
from .sampling import SamplingPattern, downsample, greedy_max_cut, upsample

__all__ = [
    "FilterQuartet",
    "FilterLevel",
    "ideal_half_band",
    "design_from_hstar",
    "design_minimax",
    "quartet",
    "apply_filter",
    "build_level",
    "analyze",
    "synthesize",
    "verify_pr",
]


class FilterQuartet(NamedTuple):
    h0: np.ndarray
    h1: np.ndarray
    g0: np.ndarray
    g1: np.ndarray


def _pairs(phi: SignedPermutation):
    for i in range(phi.n):
        j = int(phi.perm[i])
        if i < j:
            yield i, j


def ideal_half_band(n: int) -> np.ndarray:
    """Gain 2 on the lower-energy half of the spectrum indices, 0 above."""
    h = np.zeros(n)
    h[: (n + 1) // 2] = 2.0
    return h


def design_from_hstar(phi: SignedPermutation, hstar: float | Callable[[int, int], float]) -> np.ndarray:
    """Lowpass gain h with h(i) = h*(i, j) and h(j) = 2 - h(i) on each pair.

    ``hstar`` is a constant or a function of the pair (i, j), i < j, with
    values in [0, 2].  Entries fixed by Phi get gain 1.
    """
    fn = hstar if callable(hstar) else (lambda i, j: float(hstar))
    h = np.ones(phi.n)
    for i, j in _pairs(phi):
        val = float(fn(i, j))
        if not (0.0 <= val <= 2.0):
            raise InputError(f"h* value {val} for pair ({i}, {j}) is outside [0, 2]")
        h[i] = val
        h[j] = 2.0 - val
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
    h = np.ones(phi.n)
    clamped = 0.0
    for i, j in _pairs(phi):
        t = 0.5 * (h_des[i] + 2.0 - h_des[j])
        tc = min(2.0, max(0.0, t))
        clamped = max(clamped, abs(t - tc))
        h[i] = tc
        h[j] = 2.0 - tc
    return h, clamped


def quartet(h: np.ndarray, phi: SignedPermutation) -> FilterQuartet:
    """Orthogonal quartet from a lowpass gain with h + |Phi| h = 2."""
    h = as_signal(h, phi.n)
    if (h < 0).any():
        raise InputError("lowpass gain must be non-negative to take its square root")
    h0 = np.sqrt(h)
    h1 = phi.apply_abs(h0)
    return FilterQuartet(h0=h0, h1=h1, g0=h0.copy(), g1=h1.copy())


def apply_filter(basis: FourierBasis, h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Spectral filtering U diag(h) U^T f."""
    h = as_signal(h, basis.n)
    f = as_signal(f, basis.n)
    return basis.u @ (h * (basis.u.T @ f))


@dataclass(frozen=True, eq=False)
class FilterLevel:
    """One analysis/synthesis stage: graph, partition, basis, and quartet."""

    graph: Graph
    pattern: SamplingPattern
    basis: FourierBasis
    quartet: FilterQuartet

    @property
    def n(self) -> int:
        return self.graph.n


_DESIGNS = ("hstar", "minimax")


def build_level(
    graph: Graph,
    *,
    design: str = "hstar",
    hstar: float | Callable[[int, int], float] = 2.0,
    h_des: np.ndarray | None = None,
    tol: float = 1e-10,
) -> FilterLevel:
    """Partition a graph, build its basis, and attach a filter quartet.

    ``design`` is ``"hstar"`` (uses ``hstar``) or ``"minimax"`` (uses
    ``h_des``, defaulting to the ideal half-band response).
    """
    lap = laplacian(graph)
    pattern = greedy_max_cut(lap)
    basis = compute_basis(lap, pattern, tol=tol)
    if design == "hstar":
        h = design_from_hstar(basis.phi, hstar)
    elif design == "minimax":
        des = ideal_half_band(graph.n) if h_des is None else h_des
        h, _ = design_minimax(basis.phi, des)
    else:
        raise InputError(f"design must be 'hstar' or 'minimax', got {design!r}")
    return FilterLevel(graph=graph, pattern=pattern, basis=basis, quartet=quartet(h, basis.phi))


def analyze(level: FilterLevel, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a signal into sampled low and high channel coefficients."""
    f = as_signal(f, level.n)
    f_low = downsample(apply_filter(level.basis, level.quartet.h0, f), level.pattern, "low")
    f_high = downsample(apply_filter(level.basis, level.quartet.h1, f), level.pattern, "high")
    return f_low, f_high


def synthesize(level: FilterLevel, f_low: np.ndarray, f_high: np.ndarray) -> np.ndarray:
    """Reassemble a signal from its two sampled channels."""
    y0 = apply_filter(level.basis, level.quartet.g0, upsample(f_low, level.pattern, "low"))
    y1 = apply_filter(level.basis, level.quartet.g1, upsample(f_high, level.pattern, "high"))
    return y0 + y1


def verify_pr(level: FilterLevel) -> dict[str, float]:
    """Residuals of the two gain equations and of the full operator identity.

    Returns max-norm residuals: ``gain_sum`` for g0.h0 + g1.h1 = 2,
    ``gain_fold`` for (|Phi| g0).h0 - (|Phi| g1).h1 = 0, and ``operator`` for
    the end-to-end analysis/synthesis operator against the identity.
    """
    h0, h1, g0, g1 = level.quartet
    phi = level.basis.phi
    gain_sum = float(np.abs(g0 * h0 + g1 * h1 - 2.0).max())
    gain_fold = float(np.abs(phi.apply_abs(g0) * h0 - phi.apply_abs(g1) * h1).max())
    u = level.basis.u
    s = level.pattern.sign
    f0 = (u * h0) @ u.T
    f1 = (u * h1) @ u.T
    fg0 = (u * g0) @ u.T
    fg1 = (u * g1) @ u.T
    d_low = 0.5 * (1.0 + s)
    d_high = 0.5 * (1.0 - s)
    t = fg0 @ (d_low[:, None] * f0) + fg1 @ (d_high[:, None] * f1)
    operator = float(np.abs(t - np.eye(level.n)).max())
    return {"gain_sum": gain_sum, "gain_fold": gain_fold, "operator": operator}
