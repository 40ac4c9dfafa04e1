"""In-memory spans around the benchmark's own calls into graphfb.

Nothing inside ``src/graphfb`` is instrumented: the traced run calls each
layer's public functions one at a time, and wraps every call in a span.  A
span has a name ``<layer>.<function>``, an optional pyramid level, start and
end times, the span that encloses it, and the operation it belongs to.  An
operation is one unit of benchmark work of a named kind ("build", "chain",
"roundtrip", ...).  When an operation ends its spans are folded into
per-operation totals:

* the inclusive duration of each span name, per level and over all levels;
* the self time of each layer, a span's duration minus its children's;
* the counts attached to spans, summed (numbers) or concatenated (lists).

The first few operations of each kind keep their raw spans, which are
written out with the result when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

ALL_LEVELS = "*"
KEEP_OPS = 4  # operations of each kind whose raw spans are kept


@dataclass
class Span:
    id: int
    name: str
    level: int | None
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_row(self) -> list:
        return [self.id, self.name, self.level, self.op, self.parent, self.start, self.end, self.counts]


class Tracer:
    """Records spans and folds them into per-operation totals by kind."""

    def __init__(self) -> None:
        self.times: dict[tuple, list[float]] = defaultdict(list)
        self.self_times: dict[tuple, list[float]] = defaultdict(list)
        self.counts: dict[tuple, list] = defaultdict(list)
        self.kept: list[Span] = []
        self.op_kinds: list[str] = []
        self._kept_per_kind: Counter = Counter()
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    @contextmanager
    def op(self, kind: str):
        if self._stack:
            raise RuntimeError("operations cannot nest inside a span")
        self.op_kinds.append(kind)
        self._spans = []
        try:
            yield
        finally:
            self._fold(kind)

    @contextmanager
    def span(self, name: str, level: int | None = None):
        if not self.op_kinds:
            raise RuntimeError("spans must belong to an operation")
        sp = Span(
            id=self._next_id,
            name=name,
            level=level,
            op=len(self.op_kinds) - 1,
            parent=self._stack[-1].id if self._stack else None,
            start=time.perf_counter(),
        )
        self._next_id += 1
        self._spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def _fold(self, kind: str) -> None:
        spans = self._spans
        child_time: Counter = Counter()
        for sp in spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.duration
        totals: Counter = Counter()
        layer_self: Counter = Counter()
        counts: dict[tuple, object] = {}
        for sp in spans:
            levels = (ALL_LEVELS,) if sp.level is None else (ALL_LEVELS, sp.level)
            for lv in levels:
                totals[(sp.name, lv)] += sp.duration
                for key, value in sp.counts.items():
                    ck = (sp.name, lv, key)
                    if isinstance(value, list):
                        counts[ck] = counts.get(ck, []) + value
                    else:
                        counts[ck] = counts.get(ck, 0) + value
            layer_self[sp.name.split(".", 1)[0]] += sp.duration - child_time[sp.id]
        for key, value in totals.items():
            self.times[(kind, *key)].append(value)
        for layer, value in layer_self.items():
            self.self_times[(kind, layer)].append(value)
        for key, value in counts.items():
            self.counts[(kind, *key)].append(value)
        if self._kept_per_kind[kind] < KEEP_OPS:
            self._kept_per_kind[kind] += 1
            self.kept.extend(spans)
        self._spans = []


class NullTracer:
    """Stand-in for untraced runs: every span is a no-op."""

    def op(self, kind: str) -> nullcontext:
        return nullcontext()

    def span(self, name: str, level: int | None = None) -> nullcontext:
        return nullcontext(Span(-1, name, level, -1, None, 0.0))
