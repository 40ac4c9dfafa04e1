"""Weighted undirected graphs, Laplacians, and smoothness measures.

A graph is a vertex count together with a set of weighted edges (i, j, w),
i < j, w > 0.  ``Graph`` stores the edges as three numpy arrays (endpoints
``lo`` < ``hi`` and weights ``w``), so producers hand over arrays and the
tuple view ``edges`` is built only when read.  Every graph passes one
vectorized validation, whichever constructor made it: integer indices in
range, no self-loops, positive finite weights, no duplicate edges, and a
single connected component.  The combinatorial Laplacian is L = D - W with
D the diagonal degree matrix, and the smoothness of a signal f is the
quadratic form f^T L f, which equals the weighted sum of squared
differences across edges.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "Graph",
    "laplacian",
    "dirichlet_energy",
    "check_laplacian",
    "generate",
    "parse_graph",
    "format_graph",
    "read_graph_file",
    "write_graph_file",
]

Edge = tuple[int, int, float]


def _check_vertex_count(n: object) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InputError(f"vertex count must be a positive integer, got {n!r}")


def _components(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Component label per vertex: the smallest vertex index in its component.

    Label propagation with pointer jumping: each round hooks every tree root
    onto the smallest root across its edges, then replaces each label by its
    label's label until every vertex points at a root.  Labels only ever
    decrease, so the roots end as the component minima.
    """
    label = np.arange(n)
    while True:
        a, b = label[lo], label[hi]
        crossing = a != b
        if not crossing.any():
            return label
        a, b = a[crossing], b[crossing]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up


def _checked_edges(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, ...]:
    """Validate an edge list given as columns; return it as (lo, hi, w).

    Every edge is checked for integer vertex indices, a self-loop, an index
    out of range, a non-positive or non-finite weight and, last, a repeat of
    an earlier edge.  The error names the first offending edge in input
    order and the first check it fails.  Connectivity is left to the caller.
    """
    w = np.array(w, dtype=np.float64)
    checks = (
        (~(_integral(i) & _integral(j)), "integer"),
        (i == j, "loop"),
        ((i < 0) | (i >= n) | (j < 0) | (j >= n), "range"),
        (~(np.isfinite(w) & (w > 0)), "weight"),
    )
    # Each check only looks before the first failure found so far, so the
    # error kept is the earliest edge's first failing check.
    stop, failed = len(w), None
    for bad, name in checks:
        hit = np.flatnonzero(bad[:stop])
        if hit.size:
            stop, failed = int(hit[0]), name
    lo = np.minimum(i[:stop], j[:stop]).astype(np.int64)
    hi = np.maximum(i[:stop], j[:stop]).astype(np.int64)
    key = lo * n + hi
    if np.any(key[1:] <= key[:-1]):
        order = np.argsort(key, kind="stable")
        repeats = order[1:][key[order[1:]] == key[order[:-1]]]
        if repeats.size:
            stop, failed = int(repeats.min()), "duplicate"
    if failed is None:
        return lo, hi, w
    k = stop
    if failed == "integer":
        raise InputError(f"edge ({float(i[k])}, {float(j[k])}) has a non-integer vertex index")
    ik, jk = int(i[k]), int(j[k])
    if failed == "loop":
        raise InputError(f"self-loop at vertex {ik}")
    if failed == "range":
        raise InputError(f"edge ({ik}, {jk}) has a vertex index out of range for n={n}")
    if failed == "weight":
        raise InputError(f"edge ({ik}, {jk}) has non-positive or non-finite weight {float(w[k])}")
    raise InputError(f"duplicate edge ({min(ik, jk)}, {max(ik, jk)})")


def _integral(col: np.ndarray) -> np.ndarray:
    if col.dtype.kind in "biu":
        return np.ones(len(col), dtype=bool)
    return np.isfinite(col) & (np.floor(col) == col)


def _edge_columns(n: int, edges: Sequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns i, j, w of a sequence of (i, j, w) triples.

    A row that is not a triple of numbers is reported after the rows before
    it have passed ``_checked_edges``, so the first offending edge still wins.
    """
    rows = np.empty((0, 3))
    if len(edges):
        try:
            rows = np.array(edges, dtype=np.float64)
        except (TypeError, ValueError):
            rows = None
    if rows is None or rows.shape != (len(edges), 3):
        k = next((k for k, e in enumerate(edges) if not _is_triple(e)), None)
        if k is None:
            raise InputError("edges must be (i, j, w) triples of numbers")
        _checked_edges(n, *_edge_columns(n, edges[:k]))
        raise InputError(f"edge must be (i, j, w), got {edges[k]!r}")
    return rows[:, 0], rows[:, 1], rows[:, 2]


def _is_triple(e: object) -> bool:
    try:
        return np.shape(np.asarray(e, dtype=np.float64)) == (3,)
    except (TypeError, ValueError):
        return False


class Graph:
    """Connected weighted undirected graph.

    The edges are held as three read-only arrays in input order: ``lo`` and
    ``hi`` (int64, lo < hi) and ``w`` (float64, w > 0).  Both constructors,
    ``Graph(n, edges, coords)`` from (i, j, w) triples and
    ``Graph.from_arrays(n, i, j, w, coords)`` from columns, run the same
    vectorized validation (``_checked_edges``, then one connectivity pass),
    which raises InputError for the first offending edge.  Instances are
    immutable.

    Attributes
    ----------
    n : int
        Number of vertices, labeled 0..n-1.
    lo, hi, w : ndarray
        Edge endpoints and weights, one entry per edge.
    edges : tuple of (int, int, float)
        The same edges as Python tuples, built on first access.
    coords : ndarray or None
        Optional (n, 2) vertex coordinates used by coordinate-derived signals.
    """

    def __init__(self, n: int, edges: Iterable[Edge], coords: np.ndarray | None = None) -> None:
        _check_vertex_count(n)
        if not isinstance(edges, (tuple, list)):
            edges = tuple(edges)
        self._validate(n, *_edge_columns(n, edges), coords)

    @classmethod
    def from_arrays(
        cls, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray, coords: np.ndarray | None = None
    ) -> Graph:
        """Graph with the edges (i[k], j[k], w[k]); the same checks as the constructor."""
        _check_vertex_count(n)
        i, j, w = np.asarray(i), np.asarray(j), np.asarray(w)
        if not (i.ndim == j.ndim == w.ndim == 1 and len(i) == len(j) == len(w)):
            shapes = f"{i.shape}, {j.shape}, {w.shape}"
            raise InputError(f"edge columns must be 1-d and of equal length, got shapes {shapes}")
        g = cls.__new__(cls)
        g._validate(n, i, j, w, coords)
        return g

    def _validate(self, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray, coords: np.ndarray | None) -> None:
        lo, hi, w = _checked_edges(n, i, j, w)
        if _components(n, lo, hi).any():
            raise InputError("graph is disconnected")
        if coords is not None:
            coords = np.asarray(coords, dtype=float)
            if coords.shape != (n, 2):
                raise InputError(f"coords must have shape ({n}, 2), got {coords.shape}")
        for a in (lo, hi, w):
            a.flags.writeable = False
        for name, value in (("n", n), ("lo", lo), ("hi", hi), ("w", w), ("coords", coords)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(zip(self.lo.tolist(), self.hi.tolist(), self.w.tolist()))

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        w = np.zeros((self.n, self.n))
        w[self.lo, self.hi] = self.w
        w[self.hi, self.lo] = self.w
        return w

    @cached_property
    def degrees(self) -> np.ndarray:
        return self.weight_matrix.sum(axis=1)


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - W as a dense symmetric matrix."""
    w = g.weight_matrix
    return np.diag(w.sum(axis=1)) - w


def as_signal(f: object, n: int) -> np.ndarray:
    """Validate and return f as a finite float vector of length n."""
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise InputError(f"signal must be a length-{n} vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError("signal has a non-finite entry (nan or inf)")
    return arr


def dirichlet_energy(l_matrix: np.ndarray, f: np.ndarray) -> float:
    """Quadratic form f^T L f.

    Equals sum_{i<j} w_ij (f_i - f_j)^2, i.e. half the double sum over all
    ordered vertex pairs.  Non-negative up to rounding for any valid Laplacian.
    """
    l_matrix = np.asarray(l_matrix, dtype=float)
    f = as_signal(f, l_matrix.shape[0])
    return float(f @ l_matrix @ f)


def check_laplacian(l_matrix: np.ndarray, *, tol: float = 1e-10) -> dict[str, float]:
    """Validate Laplacian structure; returns the residuals it checked.

    Checks symmetry, zero row sums, non-positive off-diagonal entries, and
    positive semidefiniteness, each against ``tol`` scaled by max|L|.
    Raises NumericalError on the first violation.
    """
    l_matrix = np.asarray(l_matrix, dtype=float)
    if l_matrix.ndim != 2 or l_matrix.shape[0] != l_matrix.shape[1]:
        raise InputError(f"Laplacian must be square, got shape {l_matrix.shape}")
    scale = max(1.0, float(np.abs(l_matrix).max(initial=0.0)))
    sym = float(np.abs(l_matrix - l_matrix.T).max(initial=0.0))
    if sym > tol * scale:
        raise NumericalError(f"Laplacian asymmetry {sym:.3e} exceeds tolerance")
    rowsum = float(np.abs(l_matrix.sum(axis=1)).max(initial=0.0))
    if rowsum > tol * scale:
        raise NumericalError(f"Laplacian row sums deviate from zero by {rowsum:.3e}")
    off = l_matrix - np.diag(np.diag(l_matrix))
    offpos = float(off.max(initial=0.0))
    if offpos > tol * scale:
        raise NumericalError(f"positive off-diagonal entry {offpos:.3e} in Laplacian")
    lam_min = float(np.linalg.eigvalsh(l_matrix)[0])
    if lam_min < -tol * scale:
        raise NumericalError(f"Laplacian has negative eigenvalue {lam_min:.3e}")
    return {"asymmetry": sym, "row_sum": rowsum, "positive_offdiag": offpos, "lambda_min": lam_min}


def _ring(n: int) -> Graph:
    if n < 3:
        raise InputError(f"ring graph needs n >= 3, got {n}")
    v = np.arange(n)
    t = 2.0 * np.pi * v / n
    coords = np.column_stack([np.cos(t), np.sin(t)])
    return Graph.from_arrays(n, v, (v + 1) % n, np.ones(n), coords)


def _path(n: int) -> Graph:
    if n < 2:
        raise InputError(f"path graph needs n >= 2, got {n}")
    v = np.arange(n - 1)
    coords = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return Graph.from_arrays(n, v, v + 1, np.ones(n - 1), coords)


def _complete(n: int) -> Graph:
    if n < 2:
        raise InputError(f"complete graph needs n >= 2, got {n}")
    i, j = np.triu_indices(n, 1)
    t = 2.0 * np.pi * np.arange(n) / n
    coords = np.column_stack([np.cos(t), np.sin(t)])
    return Graph.from_arrays(n, i, j, np.ones(len(i)), coords)


def _grid(n: int) -> Graph:
    # Row-major lattice trimmed to exactly n vertices; trimming the tail of
    # the last row keeps it connected.  Each vertex lists its right edge,
    # then its down edge.
    if n < 2:
        raise InputError(f"grid graph needs n >= 2, got {n}")
    rows = max(1, int(math.isqrt(n)))
    cols = math.ceil(n / rows)
    v = np.arange(n)
    r, c = np.divmod(v, cols)
    coords = np.column_stack([c, r]).astype(float)
    src = np.repeat(v, 2)
    dst = np.column_stack([v + 1, v + cols]).ravel()
    ok = np.column_stack([(c + 1 < cols) & (v + 1 < n), v + cols < n]).ravel()
    return Graph.from_arrays(n, src[ok], dst[ok], np.ones(int(ok.sum())), coords)


def _random_geometric(n: int, seed: int, radius: float) -> Graph:
    if n < 2:
        raise InputError(f"random geometric graph needs n >= 2, got {n}")
    if not (0 < radius <= math.sqrt(2.0)):
        raise InputError(f"radius must lie in (0, sqrt(2)], got {radius}")
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    r = radius
    for _ in range(64):
        ii, jj = np.nonzero(np.triu(d <= r, k=1))
        if len(ii) and not _components(n, ii, jj).any():
            sigma = r / 2.0
            w = np.exp(-(d[ii, jj] ** 2) / (2.0 * sigma**2))
            return Graph.from_arrays(n, ii, jj, w, pts)
        r *= 1.25
    raise InputError("could not connect random geometric graph within radius growth budget")


def generate(kind: str, n: int, *, seed: int = 0, radius: float = 0.3) -> Graph:
    """Build a named test graph.

    Kinds: ``ring``, ``path``, ``complete``, ``grid``, ``random_geometric``.
    Random geometric graphs place n points uniformly in the unit square
    (fixed by ``seed``), connect pairs within ``radius`` (grown by 1.25x until
    connected), and weight edges with a Gaussian kernel of the distance.
    The same arguments always produce the same graph.
    """
    builders = {
        "ring": lambda: _ring(n),
        "path": lambda: _path(n),
        "complete": lambda: _complete(n),
        "grid": lambda: _grid(n),
        "random_geometric": lambda: _random_geometric(n, seed, radius),
    }
    if kind not in builders:
        raise InputError(f"unknown graph kind {kind!r}; expected one of {sorted(builders)}")
    return builders[kind]()


def parse_graph(text: str) -> tuple[Graph, np.ndarray | None]:
    """Parse the edge-list format.

    One edge per line as ``i j w`` (``w`` optional, default 1).  ``#`` starts
    a comment, blank lines are skipped.  Symmetric duplicates with equal
    weights merge; conflicting weights are an error.  An optional block after
    a ``%signal`` line holds ``i value`` rows and becomes a signal vector
    (unlisted vertices default to 0); its values must be finite.  The vertex
    count is one plus the largest index mentioned.
    """
    edge_rows: list[tuple[int, int, float]] = []
    signal_rows: list[tuple[int, int, float]] = []
    in_signal = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "%signal":
            if in_signal:
                raise InputError(f"line {lineno}: repeated %signal block")
            in_signal = True
            continue
        parts = line.split()
        try:
            if in_signal:
                if len(parts) != 2:
                    raise ValueError
                signal_rows.append((lineno, int(parts[0]), float(parts[1])))
            else:
                if len(parts) == 2:
                    edge_rows.append((int(parts[0]), int(parts[1]), 1.0))
                elif len(parts) == 3:
                    edge_rows.append((int(parts[0]), int(parts[1]), float(parts[2])))
                else:
                    raise ValueError
        except ValueError:
            raise InputError(f"line {lineno}: cannot parse {raw!r}") from None
    if not edge_rows:
        raise InputError("no edges found")
    merged: dict[tuple[int, int], float] = {}
    for i, j, w in edge_rows:
        if i == j:
            raise InputError(f"self-loop at vertex {i}")
        if i < 0 or j < 0:
            raise InputError(f"negative vertex index in edge ({i}, {j})")
        key = (min(i, j), max(i, j))
        if key in merged:
            if merged[key] != w:
                raise InputError(f"conflicting weights for edge {key}: {merged[key]} vs {w}")
        else:
            merged[key] = w
    n = max(max(i, j) for i, j in merged) + 1
    signal = None
    if in_signal:
        signal = np.zeros(n)
        for lineno, i, val in signal_rows:
            if not (0 <= i < n):
                raise InputError(f"signal index {i} out of range for n={n}")
            if not math.isfinite(val):
                raise InputError(f"line {lineno}: signal value {val} is not finite")
            signal[i] = val
    g = Graph(n, tuple((i, j, w) for (i, j), w in sorted(merged.items())))
    return g, signal


def format_graph(g: Graph, signal: np.ndarray | None = None) -> str:
    """Inverse of parse_graph; weights keep full float precision."""
    lines = [f"{i} {j} {w:.17g}" for i, j, w in g.edges]
    if signal is not None:
        signal = as_signal(signal, g.n)
        lines.append("%signal")
        lines.extend(f"{i} {v:.17g}" for i, v in enumerate(signal))
    return "\n".join(lines) + "\n"


def read_graph_file(path: str) -> tuple[Graph, np.ndarray | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph_file(path: str, g: Graph, signal: np.ndarray | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g, signal))
