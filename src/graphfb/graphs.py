"""Weighted undirected graphs, Laplacians, and smoothness measures.

A graph is a vertex count together with a set of weighted edges (i, j, w),
i < j, w > 0.  ``Graph`` stores the edges as three numpy arrays (endpoints
``lo`` < ``hi`` and weights ``w``), so producers hand over arrays and the
tuple view ``edges`` is built only when read.  Every graph passes one
vectorized validation, whichever constructor made it: integer indices in
range, no self-loops, positive finite weights, no duplicate edges, a
single connected component, and a finite degree at every vertex.  The
combinatorial Laplacian is L = D - W with D the diagonal degree matrix; it
is written straight from the edge arrays, and no graph holds an n x n
array.  The smoothness of a signal f is the quadratic form f^T L f, which
equals the weighted sum of squared differences across edges.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError, NumericalError

__all__ = [
    "Graph",
    "laplacian",
    "check_laplacian",
    "generate",
    "parse_graph",
    "format_graph",
    "read_graph_file",
    "write_graph_file",
]

Edge = tuple[int, int, float]


def _check_vertex_count(n: object) -> None:
    if _integer(n, "vertex count") < 1:
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


def _checked_edges(
    n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray, given_bool: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Validate an edge list given as columns; return it as (lo, hi, w).

    Every edge is checked for integer vertex indices (``given_bool`` marks
    the edges whose i or j was a bool, which is not taken as an index), a
    self-loop, an index out of range, a non-positive or non-finite weight
    and, last, a repeat of an earlier edge.  The error names the first
    offending edge in input order and the first check it fails.
    Connectivity is left to the caller.
    """
    w = w.copy()
    checks = (
        (~(_integral(i) & _integral(j)) | given_bool, "integer"),
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
    if failed == "integer" and given_bool[k]:
        raise InputError(f"edge {k} has a bool as a vertex index; indices must be integers")
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


_BOOLS = (bool, np.bool_)


def _bool_entries(raw: object, col: np.ndarray) -> np.ndarray:
    """Mask of the entries of an index column that were given as bools.

    ``col`` is ``raw`` as an array.  Besides a bool array this finds the
    bools that numpy folded into an int or float column, as in ``[True, 2]``;
    a column without any pays one pass over the entries' types.
    """
    if col.dtype.kind == "b":
        return np.ones(len(col), dtype=bool)
    if isinstance(raw, np.ndarray) or set(map(type, raw)).isdisjoint(_BOOLS):
        return np.zeros(len(col), dtype=bool)
    return np.fromiter((type(v) in _BOOLS for v in raw), dtype=bool, count=len(col))


def _vertex_indices(keep: object, name: str) -> np.ndarray:
    """``keep`` as a 1-d integer array; InputError naming it ``name`` for
    any other entry.

    A bool is not taken as an index (``[True, 2]`` would silently mean
    vertices 1 and 2) and neither is a float, integral or not.
    """
    idx = np.asarray(keep)
    if idx.size == 0:
        return np.zeros(0, dtype=np.int64)
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or _bool_entries(keep, idx).any():
        raise InputError(f"{name} must be a 1-d sequence of integers, got {keep!r}")
    return idx.astype(np.int64, copy=False)


def _integer(value, what: str) -> int:
    """``value`` as an int; InputError for anything else.

    As with ``_vertex_indices``, a bool or a float, integral or not, is not
    taken as an integer, and neither is a string.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a float; InputError for a bool, a string or any other
    non-real, and for a real too large for a float, such as 10**400."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError(f"{what} is too large for a float") from exc


def _real_array(x: object, name: str) -> np.ndarray:
    """``x`` as a float64 array: float64 input comes back as is, and bool,
    integer, float and object input is converted.  InputError for complex
    input, whose imaginary part a float conversion silently drops, and for
    text or ragged input."""
    try:
        arr = np.asarray(x)
        if arr.dtype == float:
            return arr
        if arr.dtype.kind in "biufO":
            return arr.astype(np.float64)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InputError(f"{name} must hold real numbers")


def _edge_columns(n: int, edges: Sequence) -> tuple[np.ndarray, ...]:
    """Columns i, j, w of a sequence of (i, j, w) triples, and the mask of
    the triples whose i or j is a bool.

    A row that is not a triple of numbers is reported after the rows before
    it have passed ``_checked_edges``, so the first offending edge still wins.
    """
    try:
        rows = _real_array(edges, "edges") if len(edges) else np.empty((0, 3))
    except InputError:
        rows = None
    if rows is None or rows.shape != (len(edges), 3):
        k = next((k for k, e in enumerate(edges) if not _is_triple(e)), None)
        if k is None:
            raise InputError("edges must be (i, j, w) triples of numbers")
        _checked_edges(n, *_edge_columns(n, edges[:k]))
        raise InputError(f"edge must be (i, j, w), got {edges[k]!r}")
    i, j = list(map(itemgetter(0), edges)), list(map(itemgetter(1), edges))
    return rows[:, 0], rows[:, 1], rows[:, 2], _bool_entries(i, rows[:, 0]) | _bool_entries(j, rows[:, 1])


def _is_triple(e: object) -> bool:
    try:
        return _real_array(e, "edge").shape == (3,)
    except InputError:
        return False


class Graph:
    """Connected weighted undirected graph.

    The edges are held as three read-only arrays in input order: ``lo`` and
    ``hi`` (int64, lo < hi) and ``w`` (float64, w > 0).  Both constructors,
    ``Graph(n, edges, coords)`` from (i, j, w) triples and
    ``Graph.from_arrays(n, i, j, w, coords)`` from columns, run the same
    vectorized validation (``_checked_edges``, then one pass each for
    connectivity and finite degrees), which raises InputError for the first
    offending edge or vertex.  Instances are immutable, and hold no n x n
    array: ``laplacian(g)`` is written from the edge arrays.

    Attributes
    ----------
    n : int
        Number of vertices, labeled 0..n-1.
    lo, hi, w : ndarray
        Edge endpoints and weights, one entry per edge.
    edges : tuple of (int, int, float)
        The same edges as Python tuples, built on first access.
    coords : ndarray or None
        Optional (n, 2) finite vertex coordinates used by coordinate-derived
        signals, held as a read-only copy of the array given.
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
        icol, jcol, w = np.asarray(i), np.asarray(j), _real_array(w, "weights")
        if icol.dtype.kind not in "biuf" or jcol.dtype.kind not in "biuf":  # text, complex: no entry is an index
            raise InputError(f"edge columns of dtypes {icol.dtype} and {jcol.dtype} have a non-integer vertex index")
        if not (icol.ndim == jcol.ndim == w.ndim == 1 and len(icol) == len(jcol) == len(w)):
            shapes = f"{icol.shape}, {jcol.shape}, {w.shape}"
            raise InputError(f"edge columns must be 1-d and of equal length, got shapes {shapes}")
        given_bool = _bool_entries(i, icol) | _bool_entries(j, jcol)
        g = cls.__new__(cls)
        g._validate(n, icol, jcol, w, given_bool, coords)
        return g

    def _validate(
        self, n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray, given_bool: np.ndarray, coords: np.ndarray | None
    ) -> None:
        lo, hi, w = _checked_edges(n, i, j, w, given_bool)
        if _components(n, lo, hi).any():
            raise InputError("graph is disconnected")
        with np.errstate(over="ignore"):  # finite weights may sum past the float range
            degree = np.bincount(lo, w, n) + np.bincount(hi, w, n)
        if not _all_finite(degree):
            raise InputError(f"vertex {np.argmin(np.isfinite(degree))} has a non-finite degree (sum of weights)")
        if coords is not None:
            coords = _real_array(coords, "coords").copy()
            if coords.shape != (n, 2):
                raise InputError(f"coords must have shape ({n}, 2), got {coords.shape}")
            if not _all_finite(coords):
                raise InputError("coords have a non-finite entry (nan or inf)")
            coords.flags.writeable = False
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


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - W as a dense symmetric matrix.

    Written into one zeroed array: -w at (lo, hi) and (hi, lo), then the
    diagonal as 0 minus the row sums.  That equals ``np.diag(W.sum(1)) - W``
    bit for bit, signed zeros included: negation is exact, and each row sum
    adds the same entries in the same order as ``W.sum(1)``.
    """
    n = g.n
    lap = np.zeros((n, n))
    flat = lap.reshape(-1)  # a view; 1-d indices take numpy's fast scatter path
    neg = -g.w
    flat[g.lo * n + g.hi] = neg
    flat[g.hi * n + g.lo] = neg
    np.fill_diagonal(lap, 0.0 - lap.sum(axis=1))
    return lap


def _finite_square(l_matrix: object, name: str = "Laplacian") -> np.ndarray:
    """``l_matrix`` as a float array (``_real_array``); InputError naming it
    ``name`` unless square and finite."""
    l_matrix = _real_array(l_matrix, name)
    if l_matrix.ndim != 2 or l_matrix.shape[0] != l_matrix.shape[1]:
        raise InputError(f"{name} must be square, got shape {l_matrix.shape}")
    if not np.isfinite(l_matrix).all():
        raise InputError(f"{name} has a non-finite entry (nan or inf)")
    return l_matrix


def _vector(f: object, n: int) -> np.ndarray:
    """f as a float vector of length n (``_real_array``); InputError for any
    other shape."""
    arr = _real_array(f, "signal")
    if arr.shape != (n,):
        raise InputError(f"signal must be a length-{n} vector, got shape {arr.shape}")
    return arr


def _all_finite(a: np.ndarray) -> bool:
    # count_nonzero is one C loop; .all() goes through the ufunc reduction
    # machinery, which on a short signal costs more than the check itself.
    return np.count_nonzero(np.isfinite(a)) == a.size


def as_signal(f: object, n: int) -> np.ndarray:
    """Validate and return f as a finite float vector of length n."""
    arr = _vector(f, n)
    if not _all_finite(arr):
        raise InputError("signal has a non-finite entry (nan or inf)")
    return arr


def check_laplacian(l_matrix: np.ndarray) -> dict[str, float]:
    """Validate Laplacian structure; returns the residuals it checked.

    Checks symmetry, zero row sums, non-positive off-diagonal entries, and
    positive semidefiniteness, each against 1e-10 max|L|, with no floor, so
    a Laplacian of small weights is held to the same relative bound as one
    of unit weights.  Raises NumericalError on the first violation, and
    InputError for a matrix that is empty, not square or holds a nan or inf.
    """
    l_matrix = _finite_square(l_matrix)
    if l_matrix.size == 0:
        raise InputError("Laplacian must not be empty")
    bound = 1e-10 * float(np.abs(l_matrix).max())
    sym = float(np.abs(l_matrix - l_matrix.T).max(initial=0.0))
    if sym > bound:
        raise NumericalError(f"Laplacian asymmetry {sym:.3e} exceeds tolerance")
    rowsum = float(np.abs(l_matrix.sum(axis=1)).max(initial=0.0))
    if rowsum > bound:
        raise NumericalError(f"Laplacian row sums deviate from zero by {rowsum:.3e}")
    off = l_matrix - np.diag(np.diag(l_matrix))
    offpos = float(off.max(initial=0.0))
    if offpos > bound:
        raise NumericalError(f"positive off-diagonal entry {offpos:.3e} in Laplacian")
    lam_min = float(np.linalg.eigvalsh(l_matrix)[0])
    if lam_min < -bound:
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


def _rng(seed: object, what: str) -> np.random.Generator:
    """``np.random.default_rng(seed)``; InputError for any seed numpy
    refuses.  Numpy reads a bool as 0 or 1, so both callers, ``generate``
    and ``sparsify``, refuse a bool seed before they get here."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid {what} seed {seed!r}: {exc}") from exc


_ROW_BLOCK = 128  # rows of the upper triangle that one scan step of _pairs_within covers


def _pairs_within(pts: np.ndarray, r: float) -> tuple[np.ndarray, ...]:
    """Pairs i < j of points at distance d <= r, in row-major order, with d.

    Scans the upper triangle in blocks of ``_ROW_BLOCK`` rows, so memory is
    O(block * n + pairs).  d = sqrt(dx*dx + dy*dy) is the value
    ``np.linalg.norm`` computes along an axis of two coordinates.
    """
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    found = []
    for a in range(0, n - 1, _ROW_BLOCK):
        b = min(a + _ROW_BLOCK, n)
        dx = x[a:b, None] - x[None, a:]
        dy = y[a:b, None] - y[None, a:]
        d = np.sqrt(dx * dx + dy * dy)
        # Block entry (p, q) is the pair (a + p, a + q): j > i above its diagonal.
        p, q = np.nonzero(np.triu(d <= r, k=1))
        found.append((p + a, q + a, d[p, q]))
    return tuple(np.concatenate(col) for col in zip(*found))


def _random_geometric(n: int, seed: int, radius: float) -> Graph:
    if n < 2:
        raise InputError(f"random geometric graph needs n >= 2, got {n}")
    radius = _real(radius, "radius")
    if not (0 < radius <= math.sqrt(2.0)):
        raise InputError(f"radius must lie in (0, sqrt(2)], got {radius}")
    pts = _rng(seed, "random geometric").random((n, 2))
    r = radius
    for _ in range(64):
        ii, jj, d = _pairs_within(pts, r)
        if len(ii) and not _components(n, ii, jj).any():
            sigma = r / 2.0
            w = np.exp(-(d**2) / (2.0 * sigma**2))
            return Graph.from_arrays(n, ii, jj, w, pts)
        r *= 1.25
    raise InputError("could not connect random geometric graph within radius growth budget")


# The largest n whose n x n float64 array (a Laplacian) an intp can address.
_MAX_VERTICES = math.isqrt(np.iinfo(np.intp).max // np.dtype(np.float64).itemsize)


def generate(kind: str, n: int, *, seed: int = 0, radius: float = 0.3) -> Graph:
    """Build a named test graph.

    Kinds: ``ring``, ``path``, ``complete``, ``grid``, ``random_geometric``.
    Random geometric graphs place n points uniformly in the unit square
    (fixed by ``seed``), connect pairs within ``radius`` (grown by 1.25x until
    connected), and weight edges with a Gaussian kernel of the distance.
    Their pairs are scanned in blocks of rows, so memory is
    O(block * n + edges) rather than O(n^2); each growth of the radius scans
    again.
    The same arguments always produce the same graph.  A ``kind`` that is
    not one of these names, an ``n`` that is not an integer, or so large
    that an n x n float64 array (a Laplacian) could not be addressed, and a
    bool seed raise InputError for every kind; for a random geometric graph
    so do a seed ``np.random.default_rng`` refuses and a ``radius`` that is
    not a real number in (0, sqrt(2)].
    """
    if isinstance(seed, _BOOLS):
        raise InputError(f"invalid seed {seed!r}: a bool is not a seed")
    builders = {
        "ring": _ring,
        "path": _path,
        "complete": _complete,
        "grid": _grid,
        "random_geometric": lambda n: _random_geometric(n, seed, radius),
    }
    if not isinstance(kind, str) or kind not in builders:
        raise InputError(f"unknown graph kind {kind!r}; expected one of {sorted(builders)}")
    n = _integer(n, "vertex count")
    if n > _MAX_VERTICES:
        raise InputError(f"vertex count {n} is too large: an n x n Laplacian could not be addressed")
    return builders[kind](n)


def parse_graph(text: str) -> tuple[Graph, np.ndarray | None]:
    """Parse the edge-list format.

    One edge per line as ``i j w`` (``w`` optional, default 1).  ``#`` starts
    a comment, blank lines are skipped.  Symmetric duplicates with equal
    weights merge; conflicting weights are an error.  An optional block after
    a ``%signal`` line holds ``i value`` rows and becomes a signal vector
    (unlisted vertices default to 0); its values must be finite.  The vertex
    count is one plus the largest index mentioned.  ``Graph`` checks the
    edges, so a self-loop or a negative index raises its InputError.
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
        key = (min(i, j), max(i, j))
        if key in merged:
            if merged[key] != w:
                raise InputError(f"conflicting weights for edge {key}: {merged[key]} vs {w}")
        else:
            merged[key] = w
    # Graph refuses a self-loop, and a negative index as out of range.
    n = 1 + max(0, *(j for _, j in merged))
    g = Graph(n, tuple((i, j, w) for (i, j), w in sorted(merged.items())))
    signal = None
    if in_signal:
        signal = np.zeros(n)
        for lineno, i, val in signal_rows:
            if not (0 <= i < n):
                raise InputError(f"signal index {i} out of range for n={n}")
            if not math.isfinite(val):
                raise InputError(f"line {lineno}: signal value {val} is not finite")
            signal[i] = val
    return g, signal


def format_graph(g: Graph, signal: np.ndarray | None = None) -> str:
    """Inverse of parse_graph; weights keep full float precision."""
    lines = [f"{i} {j} {w:.17g}" for i, j, w in zip(g.lo.tolist(), g.hi.tolist(), g.w.tolist())]
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
