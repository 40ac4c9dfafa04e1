"""Vertex partitioning and channel sampling operators.

A sampling pattern splits the vertices into a low-channel set and a
high-channel set, encoded by a sign vector s with s_i = +1 on the low set.
Downsampling keeps one channel's entries; upsampling zero-fills the other.
With J = diag(s), the two zero-filling projectors are (I + J)/2 and
(I - J)/2, so upsample(downsample(f)) summed over both channels returns f.

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
from .graphs import Graph, as_signal

__all__ = [
    "SamplingPattern",
    "greedy_max_cut",
    "cut_value",
    "downsample",
    "upsample",
]


@dataclass(frozen=True, eq=False)
class SamplingPattern:
    """Bipartition of 0..n-1 into a low set and a high set, both non-empty.

    ``sign`` is the length-n vector with +1 on ``keep_low`` and -1 on
    ``keep_high``; both index tuples are strictly increasing.
    """

    keep_low: tuple[int, ...]
    keep_high: tuple[int, ...]
    sign: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        low = tuple(int(i) for i in self.keep_low)
        high = tuple(int(i) for i in self.keep_high)
        n = len(low) + len(high)
        if not low or not high:
            raise InputError("both channels of a sampling pattern must be non-empty")
        if sorted(low + high) != list(range(n)):
            raise InputError("keep_low and keep_high must partition 0..n-1")
        if low != tuple(sorted(low)) or high != tuple(sorted(high)):
            raise InputError("channel index lists must be strictly increasing")
        s = np.asarray(self.sign, dtype=float)
        expect = np.full(n, -1.0)
        expect[list(low)] = 1.0
        if s.shape != (n,) or not np.array_equal(s, expect):
            raise InputError("sign vector inconsistent with the channel sets")
        object.__setattr__(self, "keep_low", low)
        object.__setattr__(self, "keep_high", high)
        object.__setattr__(self, "sign", expect)

    @property
    def n(self) -> int:
        return len(self.sign)

    def to_dict(self) -> dict:
        return {"n": self.n, "keep_low": list(self.keep_low)}

    @classmethod
    def from_dict(cls, doc: dict) -> "SamplingPattern":
        try:
            n = int(doc["n"])
            low = tuple(sorted(int(i) for i in doc["keep_low"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed sampling pattern document: {exc}") from None
        if any(i < 0 or i >= n for i in low):
            raise InputError("keep_low index out of range")
        low_set = set(low)
        high = tuple(i for i in range(n) if i not in low_set)
        sign = np.full(n, -1.0)
        sign[list(low)] = 1.0
        return cls(low, high, sign)

    @classmethod
    def from_low_set(cls, n: int, low: tuple[int, ...] | list[int]) -> "SamplingPattern":
        return cls.from_dict({"n": n, "keep_low": list(low)})


def greedy_max_cut(l_matrix: np.ndarray) -> SamplingPattern:
    """Greedy large-cut bipartition of the graph behind a Laplacian.

    Seeds the low set with the lowest-index maximum-degree vertex and grows
    it while the best candidate keeps the cut from shrinking (ties continue).
    The high set is guaranteed non-empty.
    """
    l_matrix = np.asarray(l_matrix, dtype=float)
    n = l_matrix.shape[0]
    if l_matrix.ndim != 2 or l_matrix.shape != (n, n) or n < 2:
        raise InputError(f"need a square Laplacian with n >= 2, got shape {l_matrix.shape}")
    deg = np.diag(l_matrix)
    v0 = int(np.argmax(deg))
    in_low = np.zeros(n, dtype=bool)
    in_low[v0] = True
    score = float(deg[v0])
    # cross[v] = sum_{x in V_L} L(v, x); adding v changes the submatrix sum
    # by L(v, v) + 2 * cross[v].
    cross = l_matrix[:, v0].copy()
    while in_low.sum() < n - 1:
        gain = np.where(in_low, -np.inf, deg + 2.0 * cross)
        v = int(np.argmax(gain))
        candidate = score + float(gain[v])
        if candidate < score:
            break
        in_low[v] = True
        score = candidate
        cross += l_matrix[:, v]
    low = tuple(int(i) for i in np.nonzero(in_low)[0])
    high = tuple(int(i) for i in np.nonzero(~in_low)[0])
    sign = np.where(in_low, 1.0, -1.0)
    return SamplingPattern(low, high, sign)


def cut_value(g: Graph, pattern: SamplingPattern) -> float:
    """Total weight of edges with endpoints in different channels."""
    if pattern.n != g.n:
        raise InputError(f"pattern size {pattern.n} does not match graph size {g.n}")
    s = pattern.sign
    return float(g.w[s[g.lo] != s[g.hi]].sum())


def _channel_indices(pattern: SamplingPattern, channel: str) -> tuple[int, ...]:
    if channel == "low":
        return pattern.keep_low
    if channel == "high":
        return pattern.keep_high
    raise InputError(f"channel must be 'low' or 'high', got {channel!r}")


def downsample(f: np.ndarray, pattern: SamplingPattern, channel: str) -> np.ndarray:
    """Keep the entries of f indexed by the chosen channel."""
    f = as_signal(f, pattern.n)
    return f[list(_channel_indices(pattern, channel))]


def upsample(f_ch: np.ndarray, pattern: SamplingPattern, channel: str) -> np.ndarray:
    """Zero-fill a channel signal back to full length."""
    idx = _channel_indices(pattern, channel)
    f_ch = as_signal(f_ch, len(idx))
    out = np.zeros(pattern.n)
    out[list(idx)] = f_ch
    return out
