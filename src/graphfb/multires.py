"""Multilevel pyramids: Kron reduction, sparsification, and coefficient trees.

Each pyramid level filters and splits a signal on its graph, then coarsens
the graph to the low channel's vertices by Kron reduction (the Schur
complement of the Laplacian onto the kept set), optionally sparsified by
effective-resistance sampling so deeper levels stay tractable.  Analysis
cascades the low channel through the levels; synthesis inverts the cascade
exactly when no coefficient is modified.

Coefficient trees hold the final low channel plus one high channel per
level.  Thresholding follows the zero-the-large rule by default: highpass
entries with magnitude strictly greater than the threshold are set to zero,
which removes the channel that carries the unwanted component under the
designs used here.  A flag selects the conventional zero-the-small rule.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalError
from .filterbank import _DESIGNS, FilterLevel, FilterQuartet, analyze, build_level, synthesize, verify_pr
from .fourier import FourierBasis, SignedPermutation
from .graphs import Graph, _components, as_signal, check_laplacian, format_graph, laplacian, parse_graph
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


def kron_reduce(l_matrix: np.ndarray, keep: tuple[int, ...] | list[int]) -> np.ndarray:
    """Schur complement of the Laplacian onto the kept vertex set.

    The eliminated block must be invertible, which holds whenever the graph
    is connected and ``keep`` is a non-empty proper subset.  The result is
    again a Laplacian, of the Kron-reduced graph.  A matrix that is not
    square or holds a nan or inf raises InputError.
    """
    l_matrix = _finite_square(l_matrix)
    n = l_matrix.shape[0]
    keep_idx = sorted(int(i) for i in keep)
    kept = set(keep_idx)
    if len(kept) != len(keep_idx):
        raise InputError("kept vertex set has duplicates")
    if any(i < 0 or i >= n for i in keep_idx):
        raise InputError("kept vertex index out of range")
    if not keep_idx or len(keep_idx) >= n:
        raise InputError("kept set must be a non-empty proper subset of the vertices")
    elim = [i for i in range(n) if i not in kept]
    lkk = l_matrix[np.ix_(keep_idx, keep_idx)]
    lke = l_matrix[np.ix_(keep_idx, elim)]
    lee = l_matrix[np.ix_(elim, elim)]
    try:
        reduced = lkk - lke @ np.linalg.solve(lee, lke.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eliminated block is singular: {exc}") from exc
    return 0.5 * (reduced + reduced.T)


def _finite_square(l_matrix: np.ndarray) -> np.ndarray:
    l_matrix = np.asarray(l_matrix, dtype=float)
    if l_matrix.ndim != 2 or l_matrix.shape[0] != l_matrix.shape[1]:
        raise InputError(f"Laplacian must be square, got shape {l_matrix.shape}")
    if not np.isfinite(l_matrix).all():
        raise InputError("Laplacian has a non-finite entry (nan or inf)")
    return l_matrix


def graph_from_laplacian(l_matrix: np.ndarray) -> Graph:
    """Recover the weighted graph of a Laplacian, dropping negligible edges.

    Scans the strict upper triangle as arrays: off-diagonal entries of
    magnitude below 1e-12 * max|L| are treated as zero, the rest become
    edges (i, j, -L[i, j]) in row-major order, which go to
    ``Graph.from_arrays`` without a tuple round trip.  A positive
    off-diagonal entry beyond the tolerance raises NumericalError naming
    the first one in row-major order; a matrix that is not square or holds
    a nan or inf raises InputError.
    """
    l_matrix = _finite_square(l_matrix)
    n = l_matrix.shape[0]
    tol = 1e-12 * max(1e-300, float(np.abs(l_matrix).max(initial=0.0)))
    positive = np.argwhere(np.triu(l_matrix > tol, 1))
    if len(positive):
        i, j = positive[0]
        raise NumericalError(f"positive off-diagonal entry {l_matrix[i, j]:.3e} at ({i}, {j})")
    lo, hi = np.nonzero(np.triu(l_matrix < -tol, 1))
    return Graph.from_arrays(n, lo, hi, -l_matrix[lo, hi])


def _effective_resistances(g: Graph) -> np.ndarray:
    lp = np.linalg.pinv(laplacian(g))
    d = np.diag(lp)
    return d[g.lo] + d[g.hi] - 2.0 * lp[g.lo, g.hi]


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
    for a fixed ``seed``.
    """
    if not (0.0 < eps < 1.0):
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    n = g.n
    m = len(g.w)
    if n < 2 or m <= 2.0 * n * math.log(n) / eps**2:
        return g
    q = math.ceil(9.0 * n * math.log(n) / eps**2)
    p = g.w * _effective_resistances(g)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(q, p)
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
        if not (0.0 < self.eps < 1.0):
            raise InputError(f"eps must lie in (0, 1), got {self.eps}")
        if not (self.tol > 0.0):
            raise InputError(f"tol must be positive, got {self.tol}")
        if self.design not in _DESIGNS:
            raise InputError(f"design must be one of {_DESIGNS}, got {self.design!r}")


@dataclass(frozen=True, eq=False)
class Pyramid:
    levels: tuple[FilterLevel, ...]
    config: PyramidConfig
    requested_depth: int

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def graphs(self) -> tuple[Graph, ...]:
        return tuple(level.graph for level in self.levels)


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
    """Cascade the analysis: total coefficient count equals the signal length."""
    f = as_signal(f, p.levels[0].n)
    highs = []
    for level in p.levels:
        f, f_high = analyze(level, f)
        highs.append(f_high)
    return CoefficientTree(lows=f, highs=tuple(highs))


def pyramid_synthesize(p: Pyramid, tree: CoefficientTree) -> np.ndarray:
    """Invert the analysis cascade from a (possibly modified) tree."""
    if len(tree.highs) != p.depth:
        raise InputError(f"tree has {len(tree.highs)} high channels, pyramid has depth {p.depth}")
    f = as_signal(tree.lows, len(p.levels[-1].pattern.keep_low))
    for level, f_high in zip(reversed(p.levels), reversed(tree.highs)):
        f = synthesize(level, f, f_high)
    return f


def threshold_highpass(tree: CoefficientTree, r: float, *, zero_large: bool = True) -> CoefficientTree:
    """Zero highpass entries by magnitude against the threshold r.

    With ``zero_large`` (default) entries with |value| strictly greater than
    r are zeroed; otherwise entries with |value| <= r are zeroed.
    """
    if not (r >= 0.0):
        raise InputError(f"threshold must be non-negative, got {r}")
    if zero_large:
        highs = tuple(np.where(np.abs(h) > r, 0.0, h) for h in tree.highs)
    else:
        highs = tuple(np.where(np.abs(h) <= r, 0.0, h) for h in tree.highs)
    return CoefficientTree(lows=tree.lows.copy(), highs=highs)


def keep_top_k(tree: CoefficientTree, k: int) -> CoefficientTree:
    """Keep the lows plus the k - len(lows) largest-magnitude highpass entries.

    ``k`` counts total kept coefficients and must satisfy
    len(lows) <= k <= tree.total.  Ties break deterministically by position.
    """
    n_low = len(tree.lows)
    if not (n_low <= k <= tree.total):
        raise InputError(f"k must lie in [{n_low}, {tree.total}], got {k}")
    budget = k - n_low
    flat = np.concatenate(tree.highs) if tree.highs else np.zeros(0)
    keep = np.zeros(len(flat), dtype=bool)
    if budget > 0:
        order = np.argsort(-np.abs(flat), kind="stable")
        keep[order[:budget]] = True
    highs = []
    pos = 0
    for h in tree.highs:
        mask = keep[pos : pos + len(h)]
        highs.append(np.where(mask, h, 0.0))
        pos += len(h)
    return CoefficientTree(lows=tree.lows.copy(), highs=tuple(highs))


_MANIFEST_NAME = "manifest.json"
_FORMAT = "graphfb-pyramid-v1"


def save_pyramid(p: Pyramid, path: str | Path) -> None:
    """Write a pyramid as per-level CSV matrices plus a JSON manifest.

    Floats are stored with full round-trip precision, so loading reproduces
    the pyramid exactly.
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
        np.savetxt(d / "filters.csv", np.column_stack(level.quartet), fmt="%.17g", delimiter=",")


def load_pyramid(path: str | Path) -> Pyramid:
    """Rebuild a saved pyramid.  Invariants are not re-verified on load.

    A missing or malformed file, or a manifest whose ``config`` does not
    name exactly the PyramidConfig fields, raises InputError.
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
        if graph.n != int(meta["n"]):
            raise InputError(f"level {idx}: graph size disagrees with manifest")
        pattern = SamplingPattern.from_dict({"n": graph.n, "keep_low": meta["keep_low"]})
        u = np.loadtxt(d / "basis_u.csv", delimiter=",", ndmin=2)
        energies = np.loadtxt(d / "energies.csv", delimiter=",", ndmin=1)
        pair_tags = np.loadtxt(d / "pair_tags.csv", delimiter=",", dtype=int, ndmin=1)
        phi_rows = np.loadtxt(d / "phi.csv", delimiter=",", dtype=int, ndmin=2)
        phi = SignedPermutation(phi_rows[:, 1], phi_rows[:, 2])
        filt = np.loadtxt(d / "filters.csv", delimiter=",", ndmin=2)
        basis = FourierBasis(u=u, energies=energies, phi=phi, pattern=pattern, pair_tags=pair_tags)
        level = FilterLevel(
            graph=graph,
            pattern=pattern,
            basis=basis,
            quartet=FilterQuartet(filt[:, 0], filt[:, 1], filt[:, 2], filt[:, 3]),
        )
        levels.append(level)
    return Pyramid(levels=tuple(levels), config=config, requested_depth=int(manifest["requested_depth"]))


def verify_pyramid(p: Pyramid) -> dict:
    """Re-check every level's invariants; returns a report document.

    Per level: Laplacian validity of the graph, basis orthonormality,
    folding J U = U Phi, the involution property of Phi, and the three
    reconstruction residuals.  The report's ``ok`` field is True when every
    check passes its threshold.
    """
    report = {"levels": [], "ok": True}
    for idx, level in enumerate(p.levels):
        entry: dict = {"level": idx, "n": level.n}
        lap = laplacian(level.graph)
        try:
            check_laplacian(lap, tol=1e-10)
            entry["laplacian_ok"] = True
        except NumericalError as exc:
            entry["laplacian_ok"] = False
            entry["laplacian_error"] = str(exc)
        u = level.basis.u
        s = level.pattern.sign
        entry["orthonormality"] = float(np.abs(u.T @ u - np.eye(level.n)).max())
        entry["folding"] = float(np.abs(s[:, None] * u - u @ level.basis.phi.as_matrix()).max())
        phi_m = level.basis.phi.as_matrix()
        entry["involution"] = float(np.abs(phi_m @ phi_m - np.eye(level.n)).max())
        entry.update(verify_pr(level))
        entry["checks_ok"] = bool(
            entry["laplacian_ok"]
            and entry["orthonormality"] <= 1e-8
            and entry["folding"] <= 1e-6
            and entry["involution"] == 0.0
            and entry["gain_sum"] <= 1e-8
            and entry["gain_fold"] <= 1e-8
            and entry["operator"] <= 1e-8
        )
        report["ok"] = report["ok"] and entry["checks_ok"]
        report["levels"].append(entry)
    return report
