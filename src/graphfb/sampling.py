"""Vertex partitioning into the two sampled channels.

A sampling pattern splits the vertices into a low-channel set and a
high-channel set, encoded by a sign vector s with s_i = +1 on the low set.
Downsampling a channel keeps the entries ``keep_low`` (or ``keep_high``)
indexes; upsampling zero-fills the others.  With J = diag(s), the two
zero-filling projectors are (I + J)/2 and (I - J)/2, which sum to I.  The
filter levels apply both steps as rows and columns of their operators.

The partition is chosen greedily to maximize the weight of edges crossing
between the two sets: starting from a maximum-degree vertex, it repeatedly
moves the vertex giving the largest submatrix sum S = sum_{x,y in V_L} L(x,y)
into the low set, and stops as soon as no move keeps S from decreasing.
That submatrix sum equals the cut weight of the current partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .graphs import Graph, _finite_square, _integer, _vertex_indices

__all__ = [
    "SamplingPattern",
    "greedy_max_cut",
    "cut_value",
]


@dataclass(frozen=True, eq=False)
class SamplingPattern:
    """Bipartition of 0..n-1 into a low set and a high set, both non-empty.

    Both index tuples are strictly increasing and hold integers: a bool, a
    string or a float, integral or not, raises InputError rather than being
    truncated.  ``sign``, derived from them, is the length-n vector with +1
    on ``keep_low`` and -1 on ``keep_high``.
    """

    keep_low: tuple[int, ...]
    keep_high: tuple[int, ...]
    sign: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        low = tuple(_vertex_indices(self.keep_low, "keep_low").tolist())
        high = tuple(_vertex_indices(self.keep_high, "keep_high").tolist())
        n = len(low) + len(high)
        if not low or not high:
            raise InputError("both channels of a sampling pattern must be non-empty")
        if sorted(low + high) != list(range(n)):
            raise InputError("keep_low and keep_high must partition 0..n-1")
        if low != tuple(sorted(low)) or high != tuple(sorted(high)):
            raise InputError("channel index lists must be strictly increasing")
        sign = np.full(n, -1.0)
        sign[list(low)] = 1.0
        object.__setattr__(self, "keep_low", low)
        object.__setattr__(self, "keep_high", high)
        object.__setattr__(self, "sign", sign)

    @property
    def n(self) -> int:
        return len(self.sign)

    def to_dict(self) -> dict:
        return {"n": self.n, "keep_low": list(self.keep_low)}

    @classmethod
    def from_dict(cls, doc: dict) -> "SamplingPattern":
        """Pattern from ``{"n": n, "keep_low": [...]}``.

        ``n`` must be an integer and ``keep_low`` must hold integers: a
        bool, a string or a float, integral or not, raises InputError
        rather than being truncated.
        """
        try:
            n = _integer(doc["n"], "pattern size n")
            low = tuple(sorted(_vertex_indices(doc["keep_low"], "keep_low").tolist()))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed sampling pattern document: {exc}") from None
        if any(i < 0 or i >= n for i in low):
            raise InputError("keep_low index out of range")
        low_set = set(low)
        high = tuple(i for i in range(n) if i not in low_set)
        return cls(low, high)


def greedy_max_cut(l_matrix: np.ndarray) -> SamplingPattern:
    """Greedy large-cut bipartition of the graph behind a Laplacian.

    Seeds the low set with the lowest-index maximum-degree vertex and grows
    it while the best candidate keeps the cut from shrinking (ties continue).
    The high set is guaranteed non-empty.  A matrix that is not square,
    holds a nan or inf, or has fewer than two rows raises InputError.
    """
    l_matrix = _finite_square(l_matrix)
    n = l_matrix.shape[0]
    if n < 2:
        raise InputError(f"need a Laplacian with n >= 2, got shape {l_matrix.shape}")
    deg = np.diag(l_matrix).copy()
    v0 = int(np.argmax(deg))
    in_low = np.zeros(n, dtype=bool)
    in_low[v0] = True
    score = float(deg[v0])
    # cross[v] = sum_{x in V_L} L(v, x); adding v changes the submatrix sum
    # by L(v, v) + 2 * cross[v].
    cross = l_matrix[:, v0].copy()
    gain = np.empty(n)
    taken = 1
    while taken < n - 1:
        np.multiply(cross, 2.0, out=gain)
        gain += deg
        np.copyto(gain, -np.inf, where=in_low)
        v = int(np.argmax(gain))
        candidate = score + float(gain[v])
        if candidate < score:
            break
        in_low[v] = True
        taken += 1
        score = candidate
        cross += l_matrix[:, v]
    low = tuple(int(i) for i in np.nonzero(in_low)[0])
    high = tuple(int(i) for i in np.nonzero(~in_low)[0])
    return SamplingPattern(low, high)


def cut_value(g: Graph, pattern: SamplingPattern) -> float:
    """Total weight of edges with endpoints in different channels."""
    if pattern.n != g.n:
        raise InputError(f"pattern size {pattern.n} does not match graph size {g.n}")
    s = pattern.sign
    return float(g.w[s[g.lo] != s[g.hi]].sum())
