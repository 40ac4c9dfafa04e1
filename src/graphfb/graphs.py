"""Weighted undirected graphs, Laplacians, and smoothness measures.

A graph is a vertex count together with a set of weighted edges (i, j, w),
i < j, w > 0.  Graphs are validated on construction: no self-loops, no
duplicate edges, indices in range, and a single connected component.  The
combinatorial Laplacian is L = D - W with D the diagonal degree matrix, and
the smoothness of a signal f is the quadratic form f^T L f, which equals the
weighted sum of squared differences across edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


class _UnionFind:
    """Disjoint-set forest with path compression, used for connectivity."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.parent[ri] = rj
        return True


def connected_components(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Component label per vertex; labels are the smallest member index."""
    uf = _UnionFind(n)
    for i, j in pairs:
        uf.union(i, j)
    roots = [uf.find(i) for i in range(n)]
    label = {}
    for i, r in enumerate(roots):
        label.setdefault(r, i)
    return [label[r] for r in roots]


@dataclass(frozen=True, eq=False)
class Graph:
    """Connected weighted undirected graph.

    Attributes
    ----------
    n : int
        Number of vertices, labeled 0..n-1.
    edges : tuple of (int, int, float)
        Weighted edges with i < j and w > 0.  Normalized on construction.
    coords : ndarray or None
        Optional (n, 2) vertex coordinates used by coordinate-derived signals.
    """

    n: int
    edges: tuple[Edge, ...]
    coords: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise InputError(f"vertex count must be a positive integer, got {self.n!r}")
        norm: list[Edge] = []
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if len(e) != 3:
                raise InputError(f"edge must be (i, j, w), got {e!r}")
            i, j, w = int(e[0]), int(e[1]), float(e[2])
            if i == j:
                raise InputError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InputError(f"edge ({i}, {j}) has a vertex index out of range for n={self.n}")
            if not (math.isfinite(w) and w > 0):
                raise InputError(f"edge ({i}, {j}) has non-positive or non-finite weight {w}")
            if i > j:
                i, j = j, i
            if (i, j) in seen:
                raise InputError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            norm.append((i, j, w))
        object.__setattr__(self, "edges", tuple(norm))
        labels = connected_components(self.n, [(i, j) for i, j, _ in norm])
        if any(lab != 0 for lab in labels):
            raise InputError("graph is disconnected")
        if self.coords is not None:
            c = np.asarray(self.coords, dtype=float)
            if c.shape != (self.n, 2):
                raise InputError(f"coords must have shape ({self.n}, 2), got {c.shape}")
            object.__setattr__(self, "coords", c)

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        w = np.zeros((self.n, self.n))
        for i, j, wt in self.edges:
            w[i, j] = wt
            w[j, i] = wt
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
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    t = 2.0 * np.pi * np.arange(n) / n
    coords = np.column_stack([np.cos(t), np.sin(t)])
    return Graph(n, tuple(edges), coords)


def _path(n: int) -> Graph:
    if n < 2:
        raise InputError(f"path graph needs n >= 2, got {n}")
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    coords = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return Graph(n, tuple(edges), coords)


def _complete(n: int) -> Graph:
    if n < 2:
        raise InputError(f"complete graph needs n >= 2, got {n}")
    edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    t = 2.0 * np.pi * np.arange(n) / n
    coords = np.column_stack([np.cos(t), np.sin(t)])
    return Graph(n, tuple(edges), coords)


def _grid(n: int) -> Graph:
    # Row-major lattice trimmed to exactly n vertices; trimming the tail of
    # the last row keeps it connected.
    if n < 2:
        raise InputError(f"grid graph needs n >= 2, got {n}")
    rows = max(1, int(math.isqrt(n)))
    cols = math.ceil(n / rows)
    edges = []
    coords = np.zeros((n, 2))
    for v in range(n):
        r, c = divmod(v, cols)
        coords[v] = (c, r)
        if c + 1 < cols and v + 1 < n:
            edges.append((v, v + 1, 1.0))
        if v + cols < n:
            edges.append((v, v + cols, 1.0))
    return Graph(n, tuple(edges), coords)


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
        if len(ii) and all(lab == 0 for lab in connected_components(n, zip(ii.tolist(), jj.tolist()))):
            sigma = r / 2.0
            w = np.exp(-(d[ii, jj] ** 2) / (2.0 * sigma**2))
            edges = tuple((int(i), int(j), float(wt)) for i, j, wt in zip(ii, jj, w))
            return Graph(n, edges, pts)
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
