"""Multilevel pyramids: Kron reduction, sparsification, and coefficient trees.

Each pyramid level filters and splits a signal on its graph, then coarsens
the graph to the low channel's vertices by Kron reduction (the Schur
complement of the Laplacian onto the kept set), optionally sparsified by
effective-resistance sampling so deeper levels stay tractable.  The
resistances come from one inverse M^-1 with M = L + (d_max/n) 11^T, with no
SVD: on a connected graph M^-1 = L^+ + 11^T/(n d_max), and the shift cancels
exactly in R_ij = M^-1_ii + M^-1_jj - 2 M^-1_ij.  Both dense steps factor
by Cholesky and invert the factor with ``_lower_inverse``, whose work is
GEMMs.  Analysis
cascades the low channel through the levels; synthesis inverts the cascade
exactly when no coefficient is modified.

Both cascades check their input once per call and then work on one flat
buffer laid out [lows | high_{L-1} | ... | high_0]: level k maps the
buffer's first n_k entries, its input, to its own two channels in place,
so no level re-checks, re-concatenates or re-slices.  Analysis writes
forward from the signal; synthesis starts from a checked copy of the tree
and runs the levels deepest first.  Every level makes the same product as
``analyze`` and ``synthesize``, so a cascade equals the chain of per-level
calls bit for bit.

Coefficient trees hold the final low channel plus one high channel per
level.  Thresholding and top-k selection act on all the highs at once, in
one copied buffer.  Thresholding follows the zero-the-large rule by default: highpass
entries with magnitude strictly greater than the threshold are set to zero,
which removes the channel that carries the unwanted component under the
designs used here.  A flag selects the conventional zero-the-small rule.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalError
from .filterbank import FilterLevel, FilterQuartet, _check_design, _hstar, build_level, verify_pr
from .fourier import _ORTHONORMALITY_TOL, FourierBasis, SignedPermutation, _orthonormality
from .graphs import (
    _BOOLS,
    Graph,
    _all_finite,
    _components,
    _finite_square,
    _integer,
    _real,
    _real_array,
    _rng,
    _vector,
    _vertex_indices,
    as_signal,
    format_graph,
    laplacian,
    parse_graph,
)
from .qecqp import _check_tol
from .sampling import SamplingPattern

__all__ = [
    "kron_reduce",
    "graph_from_laplacian",
    "sparsify",
    "PyramidConfig",
    "Pyramid",
    "CoefficientTree",
    "build_pyramid",
    "pyramid_analyze",
    "pyramid_synthesize",
    "threshold_highpass",
    "keep_top_k",
    "save_pyramid",
    "load_pyramid",
    "verify_pyramid",
]


_LEAF = 64


def _lower_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of the non-singular lower-triangular matrix g, by halves.

    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: two GEMMs per
    split, with ``np.linalg.inv`` on diagonal blocks of at most 64 rows.
    numpy has no triangular solve; this puts the triangular work in BLAS.
    Only the lower triangle of the result is non-zero.
    """
    n = g.shape[0]
    if n <= _LEAF:
        return np.tril(np.linalg.inv(g))
    h = n // 2
    out = np.zeros_like(g)
    out[:h, :h] = _lower_inverse(g[:h, :h])
    out[h:, h:] = _lower_inverse(g[h:, h:])
    np.matmul(out[h:, h:], g[h:, :h] @ out[:h, :h], out=out[h:, :h])
    np.negative(out[h:, :h], out=out[h:, :h])
    return out


def kron_reduce(l_matrix: np.ndarray, keep: tuple[int, ...] | list[int]) -> np.ndarray:
    """Schur complement of the Laplacian onto the kept vertex set.

    With G the Cholesky factor of the eliminated block L_ee and
    Y = G^-1 L_ke^T, the result is L_kk - Y^T Y, made exactly symmetric.  L
    is taken as symmetric: L_ek and the upper triangle of L_ee are not read,
    so for an asymmetric L this is not its Schur complement.  L_ee must be
    positive definite, which holds whenever L is the Laplacian of a
    connected graph and ``keep`` is a non-empty proper subset; a failed
    factorization raises NumericalError.  The result is again a Laplacian,
    of the Kron-reduced graph.  A matrix that is not square or holds a nan
    or inf raises InputError.
    """
    l_matrix = _finite_square(l_matrix)
    n = l_matrix.shape[0]
    keep_idx = np.sort(_vertex_indices(keep, "kept vertex indices"))
    if (keep_idx[1:] == keep_idx[:-1]).any():
        raise InputError("kept vertex set has duplicates")
    if keep_idx.size and (keep_idx[0] < 0 or keep_idx[-1] >= n):
        raise InputError("kept vertex index out of range")
    if not 0 < keep_idx.size < n:
        raise InputError("kept set must be a non-empty proper subset of the vertices")
    eliminated = np.ones(n, dtype=bool)
    eliminated[keep_idx] = False
    elim = np.flatnonzero(eliminated)
    lkk = l_matrix[np.ix_(keep_idx, keep_idx)]
    lke = l_matrix[np.ix_(keep_idx, elim)]
    try:
        factor = np.linalg.cholesky(l_matrix[np.ix_(elim, elim)])
    except np.linalg.LinAlgError:
        raise NumericalError("eliminated block is not positive definite") from None
    y = _lower_inverse(factor) @ lke.T
    reduced = lkk - y.T @ y
    return 0.5 * (reduced + reduced.T)


def graph_from_laplacian(l_matrix: np.ndarray) -> Graph:
    """Recover the weighted graph of a Laplacian, dropping negligible edges.

    Scans the strict upper triangle as arrays.  Each off-diagonal entry is
    measured against its own endpoints: one of magnitude at most
    1e-12 * sqrt(|L_ii| |L_jj|) is treated as zero, so a weak edge between
    vertices of small degree survives next to much heavier ones elsewhere.
    The rest become edges (i, j, -L[i, j]) in row-major order, which go to
    ``Graph.from_arrays`` without a tuple round trip.  A positive
    off-diagonal entry beyond its bound raises NumericalError naming the
    first one in row-major order; a matrix that is not square or holds a
    nan or inf raises InputError.
    """
    l_matrix = _finite_square(l_matrix)
    n = l_matrix.shape[0]
    d = np.sqrt(np.abs(l_matrix.diagonal()))
    bound = np.outer(1e-12 * d, d)
    positive = np.argwhere(np.triu(l_matrix > bound, 1))
    if len(positive):
        i, j = positive[0]
        raise NumericalError(f"positive off-diagonal entry {l_matrix[i, j]:.3e} at ({i}, {j})")
    bound *= -1.0
    lo, hi = np.nonzero(np.triu(l_matrix < bound, 1))
    return Graph.from_arrays(n, lo, hi, -l_matrix[lo, hi])


def _effective_resistances(g: Graph) -> np.ndarray:
    """Effective resistance of every edge of g, as ``sparsify`` describes."""
    shifted = laplacian(g)
    shifted += float(np.diag(shifted).max()) / g.n
    try:
        x = _lower_inverse(np.linalg.cholesky(shifted))
    except np.linalg.LinAlgError:
        raise NumericalError("shifted Laplacian is not positive definite") from None
    m = x.T @ x
    d = np.diag(m)
    return d[g.lo] + d[g.hi] - 2.0 * m[g.lo, g.hi]


def _eps(value) -> float:
    """``value`` as a float in (0, 1); InputError otherwise."""
    eps = _real(value, "eps")
    if not (0.0 < eps < 1.0):
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    return eps


def sparsify(g: Graph, eps: float, seed=0) -> Graph:
    """Spectral sparsifier by effective-resistance sampling.

    Draws q = ceil(9 n ln n / eps^2) edges with replacement, each edge with
    probability p_e proportional to weight times effective resistance, and
    gives each drawn edge the weight counts_e * w_e / (q p_e).  Graphs
    already at or below 2 n ln n / eps^2 edges are returned unchanged, so
    trees and other sparse graphs pass through exactly.  If sampling
    disconnects the graph, the highest-probability crossing edges are added
    back at original weight.  The result lists its edges sorted by (i, j)
    and is built from the selected edge indices as arrays.  Deterministic
    for a fixed ``seed``.  A bool, string, bytes or float seed raises
    InputError on entry, whether or not the graph is sampled; a seed of
    another type that ``np.random.default_rng`` refuses (such as -1) raises
    it when the graph is sampled.

    The effective resistance of edge (i, j) is R_ij = N_ii + N_jj - 2 N_ij
    with N the inverse of M = L + (d_max/n) 11^T, d_max the largest degree.
    The graph is connected, so M is positive definite and
    N = L^+ + 11^T/(n d_max); the 11^T terms cancel in R_ij, which is thus
    the pseudo-inverse formula computed without an SVD.  The shift scales
    with L, so weights times c give resistances divided by c, to rounding,
    at any c.  N = X^T X with X the inverse of M's Cholesky factor.  A
    failed factorization raises NumericalError; an ``eps`` that is not a
    real number in (0, 1) raises InputError.
    """
    eps = _eps(eps)
    if isinstance(seed, (*_BOOLS, str, bytes, float, np.floating)):
        raise InputError(f"invalid sparsify seed {seed!r}: a {type(seed).__name__} is not a seed")
    n = g.n
    m = len(g.w)
    if n < 2 or m <= 2.0 * n * math.log(n) / eps**2:
        return g
    q = math.ceil(9.0 * n * math.log(n) / eps**2)
    p = g.w * _effective_resistances(g)
    p = p / p.sum()
    counts = _rng(seed, "sparsify").multinomial(q, p)
    drawn = np.flatnonzero(counts)
    idx, w = _reconnect(g, drawn, counts[drawn] * g.w[drawn] / (q * p[drawn]), p)
    order = np.argsort(g.lo[idx] * n + g.hi[idx])
    idx, w = idx[order], w[order]
    return Graph.from_arrays(n, g.lo[idx], g.hi[idx], w, g.coords)


def _reconnect(g: Graph, idx: np.ndarray, w: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add edges of g back until the edges ``idx`` (weights ``w``) span g.

    While the chosen edges leave more than one component, the edge of g
    with the highest probability ``p`` (the first of equals) that crosses
    between two components is appended at its original weight.  Returns
    the grown (idx, w).  Edge sampling with effective-resistance weights
    almost never drops a cut, so this is a rarely taken safety net.
    """
    label = _components(g.n, g.lo[idx], g.hi[idx])
    added = []
    while label.any():
        a, b = label[g.lo], label[g.hi]
        crossing = a != b
        if not crossing.any():
            raise NumericalError("cannot reconnect sparsified graph")
        best = int(np.argmax(np.where(crossing, p, -np.inf)))
        label[label == max(a[best], b[best])] = min(a[best], b[best])
        added.append(best)
    added = np.array(added, dtype=np.int64)
    return np.concatenate([idx, added]), np.concatenate([w, g.w[added]])


@dataclass(frozen=True)
class PyramidConfig:
    """Construction parameters shared by every level of a pyramid."""

    eps: float = 0.3
    seed: int = 0
    design: str = "hstar"
    hstar: float = 2.0
    tol: float = 1e-10

    def __post_init__(self) -> None:
        _eps(self.eps)
        _hstar(self.hstar)
        _check_tol(self.tol)
        _check_design(self.design)
        if _integer(self.seed, "seed") < 0:
            raise InputError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class Pyramid:
    """Filter levels, shallowest first: at least one, at most ``requested_depth``,
    each on as many vertices as the level before it keeps in its low channel."""

    levels: tuple[FilterLevel, ...]
    config: PyramidConfig
    requested_depth: int

    def __post_init__(self) -> None:
        depth = _integer(self.requested_depth, "requested_depth")
        if not 1 <= len(self.levels) <= depth:
            raise InputError(f"a pyramid needs 1 to requested_depth={depth} levels, got {len(self.levels)}")
        for k, (level, deeper) in enumerate(zip(self.levels, self.levels[1:])):
            if deeper.n != len(level.pattern.keep_low):
                raise InputError(
                    f"level {k + 1} has {deeper.n} vertices, but level {k} keeps {len(level.pattern.keep_low)}"
                )

    @property
    def depth(self) -> int:
        return len(self.levels)


@dataclass(frozen=True, eq=False)
class CoefficientTree:
    """Final low channel plus one high channel per level, shallowest first."""

    lows: np.ndarray
    highs: tuple[np.ndarray, ...]

    @property
    def total(self) -> int:
        return len(self.lows) + sum(len(h) for h in self.highs)


def build_pyramid(g: Graph, depth: int, config: PyramidConfig = PyramidConfig()) -> Pyramid:
    """Cascade of filter levels on successively Kron-reduced graphs.

    Stops early (with fewer levels than requested) when a coarsened graph
    has fewer than two vertices; the achieved depth is ``pyramid.depth``.
    """
    depth = _integer(depth, "depth")
    if depth < 1:
        raise InputError(f"depth must be at least 1, got {depth}")
    if g.n < 2:
        raise InputError("pyramid needs a graph with at least two vertices")
    levels: list[FilterLevel] = []
    current = g
    while len(levels) < depth and current.n >= 2:
        level = build_level(current, design=config.design, hstar=config.hstar, tol=config.tol)
        levels.append(level)
        if len(levels) == depth:
            break
        reduced = graph_from_laplacian(kron_reduce(laplacian(current), level.pattern.keep_low))
        current = sparsify(reduced, config.eps, seed=[config.seed, len(levels)])
    return Pyramid(levels=tuple(levels), config=config, requested_depth=depth)


def pyramid_analyze(p: Pyramid, f: np.ndarray) -> CoefficientTree:
    """Cascade the analysis: total coefficient count equals the signal length.

    ``f`` is checked once.  Each level then writes its product over the
    front of one buffer, which ends as [lows | high_{L-1} | ... | high_0];
    the tree's channels are slices of that buffer.
    """
    x = as_signal(f, p.levels[0].n)
    buf = np.empty(len(x))
    highs = []
    for level in p.levels:
        m = len(level.pattern.keep_low)
        np.matmul(level.analysis, x, out=buf[: level.n])
        x = buf[:m]
        highs.append(buf[m : level.n])
    return CoefficientTree(lows=x, highs=tuple(highs))


def pyramid_synthesize(p: Pyramid, tree: CoefficientTree) -> np.ndarray:
    """Invert the analysis cascade from a (possibly modified) tree.

    The tree's depth, the length of each channel and, once over all of
    them, their finiteness are checked while they are copied into one
    working buffer laid out as [lows | high_{L-1} | ... | high_0].  Each
    level, deepest first, replaces the front of the buffer holding its two
    channels by their synthesis.  The tree is not modified.
    """
    if len(tree.highs) != p.depth:
        raise InputError(f"tree has {len(tree.highs)} high channels, pyramid has depth {p.depth}")
    channels = [_vector(tree.lows, len(p.levels[-1].pattern.keep_low))]
    for level, f_high in zip(reversed(p.levels), reversed(tree.highs)):
        channels.append(_vector(f_high, len(level.pattern.keep_high)))
    buf = np.concatenate(channels)
    if not _all_finite(buf):
        raise InputError("signal has a non-finite entry (nan or inf)")
    for level in reversed(p.levels):
        head = buf[: level.n]
        np.matmul(level.synthesis, head, out=head)  # numpy reads head from a copy
    return buf


def _flat(tree: CoefficientTree) -> np.ndarray:
    """A float copy of the tree's channels end to end, [lows | high_0 | ... | high_{L-1}].

    The copy is checked once: a float64 one as it stands, any other by
    ``_real_array``, and channels that do not join (text among numbers, or
    of different dimensions) raise its InputError.  Skipping the helper's
    call on the float64 path keeps ``threshold_highpass`` as fast as a
    plain concatenation."""
    try:
        flat = np.concatenate([tree.lows, *tree.highs])
    except (TypeError, ValueError):
        raise InputError("coefficient tree must hold real numbers") from None
    return flat if flat.dtype == float else _real_array(flat, "coefficient tree")


def _tree_like(tree: CoefficientTree, flat: np.ndarray) -> CoefficientTree:
    """A tree shaped like ``tree`` whose channels are slices of ``flat`` (``_flat``'s layout)."""
    bounds = list(itertools.accumulate((len(h) for h in tree.highs), initial=len(tree.lows)))
    return CoefficientTree(lows=flat[: bounds[0]], highs=tuple(flat[a:b] for a, b in zip(bounds, bounds[1:])))


def threshold_highpass(tree: CoefficientTree, r: float, *, zero_large: bool = True) -> CoefficientTree:
    """Zero highpass entries by magnitude against the threshold r.

    With ``zero_large`` (default) entries with |value| strictly greater than
    r are zeroed; otherwise entries with |value| <= r are zeroed.  One
    comparison covers the highs of every level.  An ``r`` that is not a
    non-negative real number raises InputError.
    """
    r = _real(r, "threshold")
    if not (r >= 0.0):
        raise InputError(f"threshold must be non-negative, got {r}")
    flat = _flat(tree)
    highs = flat[len(tree.lows) :]
    mag = np.abs(highs)
    np.copyto(highs, 0.0, where=mag > r if zero_large else mag <= r)
    return _tree_like(tree, flat)


def keep_top_k(tree: CoefficientTree, k: int) -> CoefficientTree:
    """Keep the lows plus the k - len(lows) largest-magnitude highpass entries.

    ``k`` counts total kept coefficients and must be an integer with
    len(lows) <= k <= tree.total.  Ties break deterministically by position,
    the highs read shallowest level first.
    """
    k = _integer(k, "k")
    n_low = len(tree.lows)
    if not (n_low <= k <= tree.total):
        raise InputError(f"k must lie in [{n_low}, {tree.total}], got {k}")
    flat = _flat(tree)
    highs = flat[n_low:]
    highs[np.argsort(-np.abs(highs), kind="stable")[k - n_low :]] = 0.0
    return _tree_like(tree, flat)


_MANIFEST_NAME = "manifest.json"
_FORMAT = "graphfb-pyramid-v1"


def save_pyramid(p: Pyramid, path: str | Path) -> None:
    """Write a pyramid as per-level CSV matrices plus a JSON manifest.

    Floats are stored with full round-trip precision, so loading reproduces
    the pyramid exactly.  ``filters.csv`` keeps its four columns
    (h0, h1, g0, g1), with g0 = h0 and g1 = h1.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": _FORMAT,
        "requested_depth": p.requested_depth,
        "config": asdict(p.config),
        "levels": [
            {"n": level.n, "keep_low": list(level.pattern.keep_low)} for level in p.levels
        ],
    }
    with open(root / _MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for idx, level in enumerate(p.levels):
        d = root / f"level{idx}"
        d.mkdir(exist_ok=True)
        (d / "graph.txt").write_text(format_graph(level.graph), encoding="utf-8")
        np.savetxt(d / "basis_u.csv", level.basis.u, fmt="%.17g", delimiter=",")
        np.savetxt(d / "energies.csv", level.basis.energies, fmt="%.17g", delimiter=",")
        np.savetxt(
            d / "pair_tags.csv", level.basis.pair_tags[None, :], fmt="%d", delimiter=","
        )
        phi = level.basis.phi
        np.savetxt(
            d / "phi.csv",
            np.column_stack([np.arange(phi.n), phi.perm, phi.signs]),
            fmt="%d",
            delimiter=",",
        )
        np.savetxt(d / "filters.csv", np.column_stack([*level.quartet, *level.quartet]), fmt="%.17g", delimiter=",")


def load_pyramid(path: str | Path) -> Pyramid:
    """Rebuild a saved pyramid.  Invariants are not re-verified on load.

    A missing or malformed file, an array whose shape does not fit its
    level's vertex count or that holds a nan or inf, a ``filters.csv``
    whose synthesis columns differ from its analysis columns, a manifest
    whose ``config`` does not name exactly the PyramidConfig fields, a
    level size ``n`` or ``requested_depth`` that is not an integer (a
    float, integral or not, a bool or a string), or a level whose size is
    not the low channel count of the level before it, raises InputError.
    """
    try:
        return _read_pyramid(Path(path))
    except InputError:
        raise
    except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise InputError(f"cannot load pyramid from {path}: {type(exc).__name__}: {exc}") from exc


def _read_pyramid(root: Path) -> Pyramid:
    manifest = json.loads((root / _MANIFEST_NAME).read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise InputError("pyramid manifest is not a JSON object")
    if manifest.get("format") != _FORMAT:
        raise InputError(f"unrecognized pyramid format {manifest.get('format')!r}")
    stored = manifest.get("config")
    names = {f.name for f in fields(PyramidConfig)}
    if not isinstance(stored, dict) or set(stored) != names:
        raise InputError(f"manifest config must have exactly the keys {sorted(names)}, got {stored!r}")
    config = PyramidConfig(**stored)
    levels = []
    for idx, meta in enumerate(manifest["levels"]):
        d = root / f"level{idx}"
        graph, _ = parse_graph((d / "graph.txt").read_text(encoding="utf-8"))
        if graph.n != _integer(meta["n"], f"level {idx}: manifest n"):
            raise InputError(f"level {idx}: graph size disagrees with manifest")
        pattern = SamplingPattern.from_dict({"n": graph.n, "keep_low": meta["keep_low"]})
        u = np.loadtxt(d / "basis_u.csv", delimiter=",", ndmin=2)
        energies = np.loadtxt(d / "energies.csv", delimiter=",", ndmin=1)
        pair_tags = np.loadtxt(d / "pair_tags.csv", delimiter=",", dtype=int, ndmin=1)
        phi_rows = np.loadtxt(d / "phi.csv", delimiter=",", dtype=int, ndmin=2)
        filt = np.loadtxt(d / "filters.csv", delimiter=",", ndmin=2)
        n = graph.n
        for name, arr, want in (
            ("basis_u.csv", u, (n, n)),
            ("energies.csv", energies, (n,)),
            ("pair_tags.csv", pair_tags, (n,)),
            ("phi.csv", phi_rows, (n, 3)),
            ("filters.csv", filt, (n, 4)),
        ):
            if arr.shape != want:
                raise InputError(f"level {idx}: {name} holds shape {arr.shape}, expected {want}")
            if not np.isfinite(arr).all():
                raise InputError(f"level {idx}: {name} has a non-finite entry (nan or inf)")
        if not np.array_equal(filt[:, 2:], filt[:, :2]):
            raise InputError(f"level {idx}: filters.csv synthesis gains differ from its analysis gains")
        phi = SignedPermutation(phi_rows[:, 1], phi_rows[:, 2])
        basis = FourierBasis(u=u, energies=energies, phi=phi, pair_tags=pair_tags)
        level = FilterLevel(
            graph=graph,
            pattern=pattern,
            basis=basis,
            quartet=FilterQuartet(filt[:, 0], filt[:, 1]),
        )
        levels.append(level)
    return Pyramid(levels=tuple(levels), config=config, requested_depth=manifest["requested_depth"])


def verify_pyramid(p: Pyramid) -> dict:
    """Re-check every level's invariants; returns a report document.

    Per level: basis orthonormality max |U^T U - I| (the gate and threshold
    of the build), folding max |J U - U Phi|, the stored energies against
    diag(U^T L U) (relative to max |energy|, with no floor, so that small
    weights cannot hide wrong energies), the pair tags against Phi (each
    tag >= 0 on exactly two columns that Phi swaps, every -1 column fixed
    by Phi), and the three reconstruction residuals.  U Phi is the column
    gather U[:, perm] * signs.  The types guarantee the rest: a
    ``Graph`` has a valid Laplacian, a ``SignedPermutation`` is a symmetric
    signed involution.  ``ok`` is True when every check passes its threshold.
    """
    report = {"levels": [], "ok": True}
    for idx, level in enumerate(p.levels):
        entry: dict = {"level": idx, "n": level.n}
        u = level.basis.u
        s = level.pattern.sign
        entry["orthonormality"] = _orthonormality(u)
        perm, signs = level.basis.phi.perm, level.basis.phi.signs
        entry["folding"] = float(np.abs(s[:, None] * u - u[:, perm] * signs).max())
        energies = np.einsum("ij,ij->j", u, laplacian(level.graph) @ u)
        gap, scale = (float(np.abs(v).max()) for v in (level.basis.energies - energies, energies))
        # Energies of an orthonormal U sum to trace(L) > 0; a zero scale means
        # U is not one, which the orthonormality check reports.
        entry["energies"] = gap / scale if scale else gap
        entry["pair_tags_ok"] = _pair_tags_match(level.basis.pair_tags, perm)
        entry.update(verify_pr(level))
        entry["checks_ok"] = bool(
            entry["orthonormality"] <= _ORTHONORMALITY_TOL
            and entry["folding"] <= 1e-6
            and entry["energies"] <= 1e-10
            and entry["pair_tags_ok"]
            and entry["gain_sum"] <= 1e-8
            and entry["gain_fold"] <= 1e-8
            and entry["operator"] <= 1e-8
        )
        report["ok"] = report["ok"] and entry["checks_ok"]
        report["levels"].append(entry)
    return report


def _pair_tags_match(tags: np.ndarray, perm: np.ndarray) -> bool:
    """Each tag >= 0 marks exactly two columns, which perm swaps; every
    column tagged -1 is fixed by perm; no other tag occurs."""
    idx = np.arange(len(tags))
    paired = tags >= 0
    if not ((tags == -1) | paired).all() or (perm[~paired] != idx[~paired]).any():
        return False
    cols = idx[paired]
    _, counts = np.unique(tags[cols], return_counts=True)
    partner = perm[cols]
    return bool((counts == 2).all() and (partner != cols).all() and (tags[partner] == tags[cols]).all())
