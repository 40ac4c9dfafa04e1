"""The four workloads of the graphfb benchmark.

Every workload has a set-up, a timed operation that the untraced run
repeats in a closed loop (one caller, each call waited for before the next
is made), and output checks that run outside the timed region.  A failed
check or a library error counts as a failed operation; it does not abort
the run.

* ``build_rgg``: ``build_pyramid`` depth 3 on random geometric graphs,
  n=192.  QECQP dual evaluations dominate.  The run cycles through
  RGG_GRAPHS graphs drawn from the seed, so the median build covers more
  than one graph.
* ``build_lattice``: ``build_pyramid`` depth 3 on the 16x16 grid.  Dual
  solves stop after a few evaluations, so basis upkeep in ``fourier``
  dominates.  The grid has no random parameter; relabelling or reweighting
  it changes its character, so the seed only drives the signals of the
  traced read-side checks.
* ``transform``: one depth-3 random geometric pyramid, n=192, is built in
  set-up.  The timed loop runs cycles of single-signal round trips and a
  64-signal denoise/top-k batch, with a save/load round trip every few
  cycles.  No basis work.
* ``coarsen``: a three-step coarsening chain on a random geometric graph,
  n=1024, the only workload on which ``sparsify`` fires.

The traced run calls the layers one public function at a time inside
spans (see ``tracing.py``).  Its outputs must equal the untraced ones
exactly; a mismatch is an error of the benchmark.  After its timed loop the
traced run also exercises the layers its own operation does not reach, on
the workload's own pyramid (``coarsen``: a pyramid built on the coarsest
graph of the chain), so every per-layer metric has a value on every
workload.
"""

from __future__ import annotations

import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import graphfb as gf
from graphfb import qecqp
from graphfb.errors import InputError, NumericalError

from tracing import ALL_LEVELS, NullTracer, Tracer

DEPTH = 3
LEVELS = tuple(range(DEPTH))
CONFIG = gf.PyramidConfig()
CHAIN_STEPS = 3
# Set-up is repeated at least SETUP_MIN times and until SETUP_SECONDS have
# passed, once before the timed loop and once after it; setup_s is the median
# of both.  The machine's speed shifts for seconds at a time, and sampling two
# moments of the run keeps one such shift from setting setup_s.
SETUP_MIN, SETUP_SECONDS = 2, 1.5
# Graphs build_rgg cycles through: the builds that fit in one 20 s run.
RGG_GRAPHS = 4
BATCH = 64
SIGNAL_POOL = 64
ROUNDTRIPS_PER_CYCLE = 32
RELOAD_EVERY = 32  # transform cycles between two save/load round trips
RT_TOL = 1e-8  # round-trip error bound, relative to max |f|
# Traced read side on workloads whose own operation is not the read side.
COVER_ROUNDTRIPS, COVER_BATCHES, COVER_RELOADS = 32, 2, 3
LIBRARY_ERRORS = (InputError, NumericalError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class Sizes:
    rgg_n: int = 192
    grid_n: int = 256
    coarsen_n: int = 1024


FULL = Sizes()
TINY = Sizes(rgg_n=24, grid_n=36, coarsen_n=96)


class BenchmarkError(RuntimeError):
    """The benchmark itself is wrong, e.g. the traced cascade drifted."""


class Tally:
    """Operations attempted and failed, and which output checks ran."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.checks: dict[str, int] = {}

    def attempt(self, what: str, fn: Callable):
        """Count one operation; a library error fails it and returns None."""
        self.attempted += 1
        try:
            return fn()
        except LIBRARY_ERRORS as exc:
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, 0) + 1
        if not ok:
            self._fail(f"check {name} failed")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


@dataclass
class Record:
    """Timings of one run, in seconds, by operation kind."""

    times: dict[str, list[float]] = field(default_factory=dict)
    traced: dict[str, list[float]] = field(default_factory=dict)
    counts: dict = field(default_factory=dict)

    def add_traced(self, kind: str, seconds: float) -> None:
        self.traced.setdefault(kind, []).append(seconds)


def _seeds(seed: int, stream: int, k: int) -> list[int]:
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def _timed(fn: Callable, sink: list[float]):
    t0 = time.perf_counter()
    out = fn()
    sink.append(time.perf_counter() - t0)
    return out


# ---------------------------------------------------------------- checks


def _pyramid_ok(p: gf.Pyramid) -> bool:
    return p.depth == DEPTH and bool(gf.verify_pyramid(p)["ok"])


def _pyramids_equal(a: gf.Pyramid, b: gf.Pyramid) -> bool:
    if a.config != b.config or a.requested_depth != b.requested_depth or a.depth != b.depth:
        return False
    for la, lb in zip(a.levels, b.levels):
        ba, bb = la.basis, lb.basis
        same = (
            la.graph.edges == lb.graph.edges
            and la.pattern.keep_low == lb.pattern.keep_low
            and np.array_equal(ba.u, bb.u)
            and np.array_equal(ba.energies, bb.energies)
            and np.array_equal(ba.pair_tags, bb.pair_tags)
            and np.array_equal(ba.phi.perm, bb.phi.perm)
            and np.array_equal(ba.phi.signs, bb.phi.signs)
            and all(np.array_equal(x, y) for x, y in zip(la.quartet, lb.quartet))
        )
        if not same:
            return False
    return True


def _same_cascade(ref: gf.Pyramid, traced: gf.Pyramid) -> None:
    """Traced fidelity: equal keep_low sets and basis matrices on every level."""
    if ref.depth != traced.depth:
        raise BenchmarkError(f"traced cascade has {traced.depth} levels, build_pyramid {ref.depth}")
    for k, (a, b) in enumerate(zip(ref.levels, traced.levels)):
        if a.pattern.keep_low != b.pattern.keep_low or not np.array_equal(a.basis.u, b.basis.u):
            raise BenchmarkError(f"traced cascade differs from build_pyramid at level {k}")


def _roundtrip_ok(f: np.ndarray, y: np.ndarray) -> bool:
    return bool(np.abs(y - f).max() <= RT_TOL * max(1.0, float(np.abs(f).max())))


def _parseval_ok(f: np.ndarray, y: np.ndarray, tree: gf.CoefficientTree, kept: gf.CoefficientTree) -> bool:
    # The cascade is orthogonal, so the error equals the norm of what was dropped.
    dropped = np.concatenate([h - k for h, k in zip(tree.highs, kept.highs)])
    err = abs(float(np.linalg.norm(f - y)) - float(np.linalg.norm(dropped)))
    return err <= RT_TOL * max(1.0, float(np.linalg.norm(f)))


def _laplacian_ok(lap: np.ndarray) -> bool:
    try:
        gf.check_laplacian(lap)
    except NumericalError:
        return False
    return True


# ---------------------------------------------------------------- inputs


@dataclass
class Signals:
    """Round-trip signals and a noisy batch for one pyramid."""

    pool: np.ndarray
    noisy: np.ndarray
    radius: np.ndarray  # per-signal threshold: median |noise|
    k: int  # coefficients kept by keep_top_k


def _signals(seed: int, p: gf.Pyramid) -> Signals:
    g = p.levels[0].graph
    n = g.n
    rng = np.random.default_rng([seed, 5])
    pool = rng.standard_normal((SIGNAL_POOL, n))
    x = g.coords[:, 0] if g.coords is not None else np.arange(n, dtype=float)
    clean = 5.0 * (x - x.min()) / max(1e-12, float(x.max() - x.min()))
    noise = 0.5 * rng.standard_normal((BATCH, n))
    n_low = len(p.levels[-1].pattern.keep_low)
    return Signals(pool, clean + noise, np.median(np.abs(noise), axis=1), max(n_low, n // 4))


# ---------------------------------------------------- traced layer calls
#
# Each function below repeats a graphfb entry point one public layer call
# at a time, in the order the library makes them, inside spans.


def traced_build(tr: Tracer, g: gf.Graph) -> gf.Pyramid:
    """build_pyramid(g, DEPTH, CONFIG), layer by layer."""
    with tr.span("multires.build_pyramid"):
        levels: list[gf.FilterLevel] = []
        current = g
        while len(levels) < DEPTH and current.n >= 2:
            k = len(levels)
            with tr.span("filterbank.build_level", k):
                with tr.span("graphs.laplacian", k):
                    lap = gf.laplacian(current)
                with tr.span("sampling.max_cut", k) as sp:
                    pattern = gf.greedy_max_cut(lap)
                sp.counts.update(n=current.n, edges=len(current.edges))
                evals: list[int] = []
                with tr.span("fourier.basis", k) as sp:
                    basis = gf.compute_basis(
                        lap, pattern, tol=CONFIG.tol, trace_hook=lambda step, t: evals.append(len(t))
                    )
                sp.counts.update(
                    dual_evals=sum(evals),
                    evals_per_pair=evals,
                    pairs=int(len(set(basis.pair_tags[basis.pair_tags >= 0].tolist()))),
                    completion_cols=int((basis.pair_tags < 0).sum()),
                )
                with tr.span("filterbank.quartet", k):
                    h = gf.design_from_hstar(basis.phi, CONFIG.hstar)
                    q = gf.quartet(h, basis.phi)
                level = gf.FilterLevel(graph=current, pattern=pattern, basis=basis, quartet=q)
            levels.append(level)
            if len(levels) == DEPTH:
                break
            with tr.span("graphs.laplacian", k):
                lap = gf.laplacian(current)
            current = _traced_reduce(tr, lap, level.pattern, k, seed=[CONFIG.seed, len(levels)])
        return gf.Pyramid(levels=tuple(levels), config=CONFIG, requested_depth=DEPTH)


def _traced_reduce(tr: Tracer, lap: np.ndarray, pattern, k: int, seed) -> gf.Graph:
    """kron_reduce, graph_from_laplacian and sparsify of one coarsening step."""
    with tr.span("multires.kron_reduce", k):
        red = gf.kron_reduce(lap, pattern.keep_low)
    with tr.span("multires.graph_from_laplacian", k):
        reduced = gf.graph_from_laplacian(red)
    with tr.span("multires.sparsify", k) as sp:
        out = gf.sparsify(reduced, CONFIG.eps, seed=seed)
    sp.counts.update(fired=int(out is not reduced), edges_in=len(reduced.edges), edges_out=len(out.edges))
    return out


def traced_chain(tr: Tracer, g: gf.Graph) -> list[gf.Graph]:
    """The untraced chain() below, layer by layer."""
    out = []
    for k in range(CHAIN_STEPS):
        with tr.span("graphs.laplacian", k):
            lap = gf.laplacian(g)
        with tr.span("sampling.max_cut", k) as sp:
            pattern = gf.greedy_max_cut(lap)
        sp.counts.update(n=g.n, edges=len(g.edges))
        g = _traced_reduce(tr, lap, pattern, k, seed=[CONFIG.seed, k + 1])
        out.append(g)
    return out


def traced_analyze(tr: Tracer, p: gf.Pyramid, f: np.ndarray) -> gf.CoefficientTree:
    with tr.span("multires.pyramid_analyze"):
        highs = []
        for k, level in enumerate(p.levels):
            with tr.span("filterbank.analyze", k):
                f, high = gf.analyze(level, f)
            highs.append(high)
        return gf.CoefficientTree(lows=f, highs=tuple(highs))


def traced_synthesize(tr: Tracer, p: gf.Pyramid, tree: gf.CoefficientTree) -> np.ndarray:
    with tr.span("multires.pyramid_synthesize"):
        f = tree.lows
        for k in reversed(range(p.depth)):
            with tr.span("filterbank.synthesize", k):
                f = gf.synthesize(p.levels[k], f, tree.highs[k])
        return f


# ------------------------------------------------------ read-side ops
#
# With a NullTracer these call the library entry points; with a Tracer
# they call the traced cascades above.


def _analyze(tr, p, f):
    return traced_analyze(tr, p, f) if isinstance(tr, Tracer) else gf.pyramid_analyze(p, f)


def _synthesize(tr, p, tree):
    return traced_synthesize(tr, p, tree) if isinstance(tr, Tracer) else gf.pyramid_synthesize(p, tree)


def roundtrip(tr, p, f, tally: Tally, sink: list[float]):
    """One analyze + synthesize round trip on a single signal; checked."""
    out = tally.attempt("roundtrip", lambda: _timed(lambda: _trip(tr, p, f), sink))
    if out is not None:
        tally.check("roundtrip_error", _roundtrip_ok(f, out[1]))
    return out


def _trip(tr, p, f):
    tree = _analyze(tr, p, f)
    return tree, _synthesize(tr, p, tree)


def batch(tr, p, sig: Signals, tally: Tally, sink: list[float]) -> None:
    """Analyze, threshold and top-k, synthesize both, for BATCH signals."""

    def run():
        out = []
        for f, r in zip(sig.noisy, sig.radius):
            tree = _analyze(tr, p, f)
            with tr.span("multires.threshold"):
                thr = gf.threshold_highpass(tree, float(r))
            with tr.span("multires.top_k"):
                top = gf.keep_top_k(tree, sig.k)
            out.append((f, r, tree, thr, _synthesize(tr, p, thr), top, _synthesize(tr, p, top)))
        return out

    out = tally.attempt("batch", lambda: _timed(run, sink))
    if out is not None:
        ok = True
        for f, r, tree, thr, y_thr, top, y_top in out:
            nnz = np.count_nonzero(top.lows) + sum(np.count_nonzero(h) for h in top.highs)
            ok = ok and all(float(np.abs(h).max(initial=0.0)) <= r for h in thr.highs)
            ok = ok and nnz <= sig.k
            ok = ok and _parseval_ok(f, y_thr, tree, thr) and _parseval_ok(f, y_top, tree, top)
        tally.check("batch_parseval", ok)


def reload(tr, p, directory: Path, tally: Tally, sink: list[float]) -> int | None:
    """save_pyramid + load_pyramid; the loaded pyramid must equal p exactly."""
    saves = []

    def run():
        with tr.span("multires.save") as sp:
            gf.save_pyramid(p, directory)
        saves.append(sp)
        with tr.span("multires.load"):
            return gf.load_pyramid(directory)

    q = tally.attempt("reload", lambda: _timed(run, sink))
    if q is None:
        return None
    tally.check("reload_equal", _pyramids_equal(p, q))
    size = sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())
    saves[0].counts["bytes"] = size
    return size


def probe(tr: Tracer, p: gf.Pyramid, tally: Tally) -> None:
    """Standalone calls per level: the top QECQP subproblem and a complement."""
    for k, level in enumerate(p.levels):
        lap = gf.laplacian(level.graph)
        s = level.pattern.sign
        u, tags = level.basis.u, level.basis.pair_tags

        def solve_top():
            # Step 0 of compute_basis: Q = L, R = J + I on the full space.
            problem = qecqp.QecqpProblem(lap, np.diag(s) + np.eye(level.n))
            with tr.span("qecqp.solve", k):
                return qecqp.solve(problem, tol=CONFIG.tol)

        sol = tally.attempt("qecqp.solve", solve_top)
        if sol is not None:
            first = u[:, tags == 0]
            match = float(np.abs(first.T @ sol.x).max(initial=0.0))
            tally.check("solve_top_matches_basis", match >= 1.0 - 1e-9)

        # The first half of the pairs, so the complement still holds a pair.
        half = (int(tags.max(initial=-1)) + 1) // 2
        built = u[:, (tags >= 0) & (tags < half)]

        def complement():
            with tr.span("fourier.complement", k):
                a = gf.complement_basis(built, level.n)
                return a, gf.classify_subspace(a, s)

        out = tally.attempt("complement", complement)
        if out is not None:
            a, cls = out
            ok = float(np.abs(built.T @ a).max(initial=0.0)) <= 1e-10
            tally.check("complement", ok and cls is gf.SubspaceClass.MIXED)


def chain(g: gf.Graph) -> list[tuple[np.ndarray, gf.Graph, gf.Graph]]:
    """CHAIN_STEPS coarsening steps: laplacian, greedy_max_cut, kron_reduce,
    graph_from_laplacian, sparsify.  Returns (reduced L, reduced graph,
    sparsified graph) per step."""
    out = []
    for k in range(CHAIN_STEPS):
        lap = gf.laplacian(g)
        pattern = gf.greedy_max_cut(lap)
        red = gf.kron_reduce(lap, pattern.keep_low)
        reduced = gf.graph_from_laplacian(red)
        g = gf.sparsify(reduced, CONFIG.eps, seed=[CONFIG.seed, k + 1])
        out.append((red, reduced, g))
    return out


def _pyramid_counts(p: gf.Pyramid) -> dict:
    tags = [lv.basis.pair_tags for lv in p.levels]
    return {
        "level_n": [lv.n for lv in p.levels],
        "level_edges": [len(lv.graph.edges) for lv in p.levels],
        "pairs": [int(len(set(t[t >= 0].tolist()))) for t in tags],
        "completion_cols": [int((t < 0).sum()) for t in tags],
    }


# ------------------------------------------------------------ workloads


class Workload:
    """Set-up, timed step, traced step and coverage of one workload."""

    name = ""
    primary = ""  # operation kind timed by op_p5_ms
    paired = ""  # operation kind the traced run times both untraced and traced
    priority: tuple[str, ...] = ()  # operation kinds searched for per-layer metrics

    def __init__(self, seed: int, sizes: Sizes, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir

    def setup(self, tr) -> None:
        raise NotImplementedError

    def step(self, i: int, tally: Tally, rec: Record) -> None:
        raise NotImplementedError

    def traced_step(self, i: int, tr: Tracer, tally: Tally, rec: Record) -> None:
        raise NotImplementedError

    def cover(self, tr: Tracer, tally: Tally) -> None:
        """Traced calls into the layers that traced_step does not reach."""

    def report(self, rec: Record) -> list[tuple[str, float, str, str]]:
        """The workload's own numbers: (name, value, unit, note)."""
        return []

    def _cover_read_side(self, tr: Tracer, p: gf.Pyramid, tally: Tally) -> None:
        with tr.op("probe"):
            probe(tr, p, tally)
        sig = _signals(self.seed, p)
        for j in range(COVER_ROUNDTRIPS):
            with tr.op("roundtrip"):
                roundtrip(tr, p, sig.pool[j % SIGNAL_POOL], tally, [])
        for _ in range(COVER_BATCHES):
            with tr.op("batch"):
                batch(tr, p, sig, tally, [])
        for _ in range(COVER_RELOADS):
            with tr.op("reload"):
                reload(tr, p, self.workdir, tally, [])


class _Build(Workload):
    primary = paired = "build"
    priority = ("build", "probe", "roundtrip", "batch", "reload", "setup")

    def _graph_makers(self) -> list[Callable[[], gf.Graph]]:
        raise NotImplementedError

    def setup(self, tr) -> None:
        self.graphs = []
        with tr.op("setup"):
            for make in self._graph_makers():
                with tr.span("graphs.generate"):
                    self.graphs.append(make())

    def _build(self, g: gf.Graph, tally: Tally, rec: Record) -> gf.Pyramid | None:
        sink = rec.times.setdefault("build", [])
        p = tally.attempt("build_pyramid", lambda: _timed(lambda: gf.build_pyramid(g, DEPTH, CONFIG), sink))
        if p is not None:
            tally.check("verify_pyramid", _pyramid_ok(p))
            rec.counts.setdefault("pyramids", []).append(_pyramid_counts(p))
        return p

    def step(self, i: int, tally: Tally, rec: Record) -> None:
        self._build(self.graphs[i % len(self.graphs)], tally, rec)

    def traced_step(self, i: int, tr: Tracer, tally: Tally, rec: Record) -> None:
        g = self.graphs[0]
        ref = self._build(g, tally, rec)

        def run():
            t0 = time.perf_counter()
            with tr.op("build"):
                p = traced_build(tr, g)
            rec.add_traced("build", time.perf_counter() - t0)
            return p

        p = tally.attempt("traced build", run)
        if ref is not None and p is not None:
            _same_cascade(ref, p)
            self.pyramid = p

    def cover(self, tr: Tracer, tally: Tally) -> None:
        if getattr(self, "pyramid", None) is None:
            raise BenchmarkError("no pyramid was built; nothing to cover")
        self._cover_read_side(tr, self.pyramid, tally)

    def report(self, rec: Record):
        builds = rec.times.get("build", [])
        return [("build_s", statistics.median(builds), "s", f"median of {len(builds)} builds")]


class BuildRgg(_Build):
    name = "build_rgg"

    def _graph_makers(self):
        n = self.sizes.rgg_n
        seeds = _seeds(self.seed, 1, RGG_GRAPHS)
        return [lambda s=s: gf.generate("random_geometric", n, seed=s) for s in seeds]


class BuildLattice(_Build):
    name = "build_lattice"

    def _graph_makers(self):
        return [lambda: gf.generate("grid", self.sizes.grid_n)]


class Transform(Workload):
    name = "transform"
    primary = "cycle"
    paired = "roundtrip"
    priority = ("roundtrip", "batch", "reload", "build", "probe", "setup")

    def setup(self, tr) -> None:
        seed = _seeds(self.seed, 3, 1)[0]
        with tr.op("setup"):
            with tr.span("graphs.generate"):
                g = gf.generate("random_geometric", self.sizes.rgg_n, seed=seed)
        if isinstance(tr, Tracer):
            ref = gf.build_pyramid(g, DEPTH, CONFIG)
            with tr.op("build"):
                self.pyramid = traced_build(tr, g)
            _same_cascade(ref, self.pyramid)
        else:
            self.pyramid = gf.build_pyramid(g, DEPTH, CONFIG)
        self.signals = _signals(self.seed, self.pyramid)

    def _cycle(self, i: int, tally: Tally, rec: Record, tr) -> None:
        """ROUNDTRIPS_PER_CYCLE round trips and one batch.  The cycle's time
        is the sum of their timed regions; the checks between them are not
        counted."""
        p, sig = self.pyramid, self.signals
        trips, batches = rec.times.setdefault("roundtrip", []), rec.times.setdefault("batch", [])
        first_trip, first_batch = len(trips), len(batches)
        for j in range(ROUNDTRIPS_PER_CYCLE):
            f = sig.pool[(i * ROUNDTRIPS_PER_CYCLE + j) % SIGNAL_POOL]
            ref = roundtrip(NullTracer(), p, f, tally, trips)
            if isinstance(tr, Tracer):
                t0 = time.perf_counter()
                with tr.op("roundtrip"):
                    out = roundtrip(tr, p, f, tally, [])
                rec.add_traced("roundtrip", time.perf_counter() - t0)
                if ref is not None and out is not None:
                    _same_trip(ref, out)
        with tr.op("batch"):
            batch(tr, p, sig, tally, batches)
        rec.times.setdefault("cycle", []).append(sum(trips[first_trip:]) + sum(batches[first_batch:]))
        if i % RELOAD_EVERY == 0:
            with tr.op("reload"):
                rec.counts["saved_bytes"] = reload(tr, p, self.workdir, tally, rec.times.setdefault("reload", []))

    def step(self, i: int, tally: Tally, rec: Record) -> None:
        self._cycle(i, tally, rec, NullTracer())

    def traced_step(self, i: int, tr: Tracer, tally: Tally, rec: Record) -> None:
        self._cycle(i, tally, rec, tr)

    def cover(self, tr: Tracer, tally: Tally) -> None:
        with tr.op("probe"):
            probe(tr, self.pyramid, tally)

    def report(self, rec: Record):
        rt, batches, reloads = rec.times["roundtrip"], rec.times["batch"], rec.times["reload"]
        return [
            ("roundtrip_ms", 1e3 * statistics.median(rt), "ms", f"median of {len(rt)} round trips"),
            ("signals_per_s", BATCH * len(batches) / sum(batches), "1/s", f"{len(batches)} batches of {BATCH}"),
            ("reload_s", statistics.median(reloads), "s", f"median of {len(reloads)} save+load"),
        ]


def _same_trip(ref, out) -> None:
    (t_ref, y_ref), (t_out, y_out) = ref, out
    same = np.array_equal(y_ref, y_out) and np.array_equal(t_ref.lows, t_out.lows)
    if not (same and all(np.array_equal(a, b) for a, b in zip(t_ref.highs, t_out.highs))):
        raise BenchmarkError("traced round trip differs from pyramid_analyze/pyramid_synthesize")


class Coarsen(Workload):
    name = "coarsen"
    primary = paired = "chain"
    priority = ("chain", "build", "probe", "roundtrip", "batch", "reload", "setup")

    def setup(self, tr) -> None:
        seed = _seeds(self.seed, 4, 1)[0]
        with tr.op("setup"):
            with tr.span("graphs.generate"):
                self.graph = gf.generate("random_geometric", self.sizes.coarsen_n, seed=seed)

    def _chain(self, tally: Tally, rec: Record):
        sink = rec.times.setdefault("chain", [])
        out = tally.attempt("chain", lambda: _timed(lambda: chain(self.graph), sink))
        if out is not None:
            tally.check("check_laplacian", all(_laplacian_ok(red) for red, _, _ in out))
            rec.counts["steps"] = [
                {"n": red.shape[0], "edges_in": len(h.edges), "edges_out": len(s.edges), "fired": s is not h}
                for red, h, s in out
            ]
        return out

    def step(self, i: int, tally: Tally, rec: Record) -> None:
        self._chain(tally, rec)

    def traced_step(self, i: int, tr: Tracer, tally: Tally, rec: Record) -> None:
        ref = self._chain(tally, rec)

        def run():
            t0 = time.perf_counter()
            with tr.op("chain"):
                out = traced_chain(tr, self.graph)
            rec.add_traced("chain", time.perf_counter() - t0)
            return out

        out = tally.attempt("traced chain", run)
        if ref is not None and out is not None:
            if any(a.edges != s.edges for a, (_, _, s) in zip(out, ref)):
                raise BenchmarkError("traced chain differs from the untraced chain")
            self.coarsest = out[-1]

    def cover(self, tr: Tracer, tally: Tally) -> None:
        if getattr(self, "coarsest", None) is None:
            raise BenchmarkError("no chain completed; nothing to cover")
        ref = tally.attempt("build_pyramid", lambda: gf.build_pyramid(self.coarsest, DEPTH, CONFIG))
        with tr.op("build"):
            p = tally.attempt("traced build", lambda: traced_build(tr, self.coarsest))
        if ref is None or p is None:
            return
        _same_cascade(ref, p)
        tally.check("verify_pyramid", _pyramid_ok(p))
        self._cover_read_side(tr, p, tally)

    def report(self, rec: Record):
        chains = rec.times["chain"]
        return [("coarsen_s", statistics.median(chains), "s", f"median of {len(chains)} chains")]


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (BuildRgg, BuildLattice, Transform, Coarsen)}


# ------------------------------------------------------------- metrics

# name, unit, span, level, count key (None: a duration), reduction
LAYER_METRICS = [
    ("graphs.generate_s", "s", "graphs.generate", ALL_LEVELS, None, "time"),
    ("graphs.laplacian_s", "s", "graphs.laplacian", ALL_LEVELS, None, "time"),
    ("sampling.max_cut_s", "s", "sampling.max_cut", ALL_LEVELS, None, "time"),
    *[(f"qecqp.dual_evals.l{k}", "count", "fourier.basis", k, "dual_evals", "value") for k in LEVELS],
    ("qecqp.dual_evals_per_pair_median", "count", "fourier.basis", ALL_LEVELS, "evals_per_pair", "median"),
    ("qecqp.dual_evals_per_pair_max", "count", "fourier.basis", ALL_LEVELS, "evals_per_pair", "max"),
    ("qecqp.solve_top_s", "s", "qecqp.solve", ALL_LEVELS, None, "time"),
    *[(f"fourier.basis_s.l{k}", "s", "fourier.basis", k, None, "time") for k in LEVELS],
    ("fourier.complement_s", "s", "fourier.complement", ALL_LEVELS, None, "time"),
    ("fourier.pairs", "count", "fourier.basis", ALL_LEVELS, "pairs", "value"),
    ("fourier.completion_cols", "count", "fourier.basis", ALL_LEVELS, "completion_cols", "value"),
    ("filterbank.build_level_s", "s", "filterbank.build_level", ALL_LEVELS, None, "time"),
    ("filterbank.quartet_s", "s", "filterbank.quartet", ALL_LEVELS, None, "time"),
    *[(f"filterbank.analyze_s.l{k}", "s", "filterbank.analyze", k, None, "time") for k in LEVELS],
    *[(f"filterbank.synthesize_s.l{k}", "s", "filterbank.synthesize", k, None, "time") for k in LEVELS],
    ("multires.kron_reduce_s", "s", "multires.kron_reduce", ALL_LEVELS, None, "time"),
    ("multires.graph_from_laplacian_s", "s", "multires.graph_from_laplacian", ALL_LEVELS, None, "time"),
    ("multires.sparsify_s", "s", "multires.sparsify", ALL_LEVELS, None, "time"),
    ("multires.sparsify_fired", "count", "multires.sparsify", ALL_LEVELS, "fired", "value"),
    ("multires.edges_in", "count", "multires.sparsify", ALL_LEVELS, "edges_in", "value"),
    ("multires.edges_out", "count", "multires.sparsify", ALL_LEVELS, "edges_out", "value"),
    *[(f"multires.level_n.l{k}", "count", "sampling.max_cut", k, "n", "value") for k in LEVELS],
    *[(f"multires.level_edges.l{k}", "count", "sampling.max_cut", k, "edges", "value") for k in LEVELS],
    ("multires.pyramid_analyze_s", "s", "multires.pyramid_analyze", ALL_LEVELS, None, "time"),
    ("multires.pyramid_synthesize_s", "s", "multires.pyramid_synthesize", ALL_LEVELS, None, "time"),
    ("multires.threshold_s", "s", "multires.threshold", ALL_LEVELS, None, "time"),
    ("multires.top_k_s", "s", "multires.top_k", ALL_LEVELS, None, "time"),
    ("multires.save_s", "s", "multires.save", ALL_LEVELS, None, "time"),
    ("multires.load_s", "s", "multires.load", ALL_LEVELS, None, "time"),
    ("multires.saved_bytes", "B", "multires.save", ALL_LEVELS, "bytes", "value"),
]
OVERHEAD_METRIC = ("bench.trace_overhead_ms", "ms")


def layer_metrics(wl: Workload, tr: Tracer, rec: Record) -> dict[str, tuple[float, str]]:
    """Per-layer values, each from the first operation kind that has it."""
    out = {}
    for name, unit, span, level, key, how in LAYER_METRICS:
        for kind in wl.priority:
            if key is None:
                vals = tr.times.get((kind, span, level))
                if vals:
                    out[name] = (statistics.median(vals), unit)
                    break
            else:
                vals = tr.counts.get((kind, span, level, key))
                if vals:
                    # Counts repeat exactly from one operation to the next.
                    if how == "value":
                        out[name] = (vals[0], unit)
                    else:
                        out[name] = ((statistics.median if how == "median" else max)(vals[0]), unit)
                    break
        else:
            raise BenchmarkError(f"{wl.name}: no traced operation produced {name}")
    untraced, traced = rec.times[wl.paired], rec.traced[wl.paired]
    name, unit = OVERHEAD_METRIC
    out[name] = (1e3 * (statistics.median(traced) - statistics.median(untraced)), unit)
    return out


def self_times(tr: Tracer) -> dict[str, dict[str, float]]:
    """Median self time per layer for each operation kind that ran."""
    table: dict[str, dict[str, float]] = {}
    for (kind, layer), vals in sorted(tr.self_times.items()):
        table.setdefault(kind, {})[layer] = statistics.median(vals)
    return table


def run_workload(name: str, seed: int, seconds: float, traced: bool, sizes: Sizes, workdir: Path) -> dict:
    """Run one workload; returns metrics, the tally and the report."""
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(WORKLOADS[name](seed, sizes, workdir), seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _closed_loop(seconds: float, step: Callable[[int], None]) -> int:
    """Call step(0), step(1), ... until `seconds` have passed; at least once."""
    start = time.perf_counter()
    i = 0
    while True:
        step(i)
        i += 1
        if time.perf_counter() - start >= seconds:
            return i


def _time_setup(wl: Workload, sink: list[float]) -> None:
    times: list[float] = []
    while len(times) < SETUP_MIN or sum(times) < SETUP_SECONDS:
        _timed(lambda: wl.setup(NullTracer()), times)
    sink.extend(times)


def _run(wl: Workload, seconds: float, traced: bool) -> dict:
    tally, rec = Tally(), Record()
    if traced:
        tr = Tracer()
        wl.setup(tr)
        _closed_loop(seconds, lambda i: wl.traced_step(i, tr, tally, rec))
        wl.cover(tr, tally)
        return {
            "metrics": layer_metrics(wl, tr, rec),
            "self_s": self_times(tr),
            "spans": [sp.as_row() for sp in tr.kept],
            "tally": tally,
            "counts": rec.counts,
            "times": {"untraced": rec.times, "traced": rec.traced},
        }
    setup_times = rec.times.setdefault("setup", [])
    _time_setup(wl, setup_times)
    _closed_loop(seconds, lambda i: wl.step(i, tally, rec))
    _time_setup(wl, setup_times)
    ops = rec.times[wl.primary]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # The fastest twentieth, not the median: the machine's speed shifts by
        # up to half for seconds at a time, and on transform's short
        # operations the median follows the share of the run spent slow.
        "op_p5_ms": (1e3 * float(np.percentile(ops, 5)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    report = [("op_median_ms", 1e3 * statistics.median(ops), "ms", f"median of {len(ops)} {wl.primary} operations")]
    return {"metrics": metrics, "report": report + wl.report(rec), "tally": tally, "counts": rec.counts, "times": rec.times}
