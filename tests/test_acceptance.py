"""Acceptance gate: one test per headline guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines and the measured numbers next to their thresholds.
"""

from __future__ import annotations

import math
import time

import numpy as np

import graphfb as gf
from graphfb import multires, qecqp
from graphfb.filterbank import build_level, verify_pr
from graphfb.fourier import compute_basis
from graphfb.sampling import SamplingPattern, cut_value, greedy_max_cut
from conftest import oracle_min, random_problem


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _relative_error(f: np.ndarray, back: np.ndarray) -> float:
    return float(np.linalg.norm(f - back) / np.linalg.norm(f))


def test_criterion_1_perfect_reconstruction():
    t0 = time.time()
    worst1 = worst3 = 0.0
    for n in (8, 16, 32, 64):
        for rep in range(5):
            g = gf.generate("random_geometric", n, seed=100 * n + rep)
            p1 = multires.build_pyramid(g, 1)
            p3 = multires.build_pyramid(g, 3)
            rng = np.random.default_rng([n, rep])
            for _ in range(20):
                f = rng.standard_normal(n)
                re1 = _relative_error(f, multires.pyramid_synthesize(p1, multires.pyramid_analyze(p1, f)))
                re3 = _relative_error(f, multires.pyramid_synthesize(p3, multires.pyramid_analyze(p3, f)))
                worst1 = max(worst1, re1)
                worst3 = max(worst3, re3)
    elapsed = time.time() - t0
    ok = worst1 <= 1e-8 and worst3 <= 1e-7 and elapsed <= 120.0
    _report(
        1, "perfect reconstruction", ok,
        f"one-level RE {worst1:.2e} (<= 1e-8), depth-3 RE {worst3:.2e} (<= 1e-7), "
        f"{elapsed:.1f} s (<= 120 s); 20 graphs x 20 signals",
    )


def test_criterion_2_bipartite_folding_matches_spectrum():
    t0 = time.time()
    g = gf.generate("ring", 300)
    lap = gf.laplacian(g)
    pattern = SamplingPattern.from_dict({"n": 300, "keep_low": list(range(0, 300, 2))})
    basis = compute_basis(lap, pattern)
    eigs = np.linalg.eigvalsh(lap)
    diff = float(np.abs(np.sort(basis.energies) - eigs).max())
    elapsed = time.time() - t0
    ok = diff <= 1e-8 and elapsed <= 300.0
    _report(
        2, "alternating-ring energies equal spectrum", ok,
        f"max |sorted energy - eigenvalue| = {diff:.2e} (<= 1e-8) on C_300, "
        f"{elapsed:.1f} s (<= 300 s)",
    )


def test_criterion_3_global_optimality_with_certificates():
    rng = np.random.default_rng(20240817)
    worst_excess = -np.inf
    worst_cert = 0.0
    for i in range(50):
        dim = int(rng.integers(2, 9))
        problem = random_problem(dim, seed=int(rng.integers(0, 2**31)))
        sol = qecqp.solve(problem)
        oracle = oracle_min(problem, samples=100_000, seed=i)
        worst_excess = max(worst_excess, sol.objective - oracle)
        h = problem.q + sol.mu1 * np.eye(dim) + sol.mu2 * problem.r
        h_scale = 1.0 + float(np.linalg.norm(h, 2))
        checks = [
            float(np.linalg.eigvalsh(h)[0]) >= -1e-7 * h_scale,
            sol.stationarity <= 1e-6 * h_scale,
            sol.unit_error <= 1e-8,
            sol.feas_error <= 1e-6,
            sol.gap <= 1e-6 * (1.0 + abs(sol.objective)),
        ]
        worst_cert = max(worst_cert, sol.stationarity / h_scale, sol.feas_error, sol.unit_error)
        if not all(checks):
            _report(3, "certified global optimality", False,
                    f"instance {i} (dim {dim}) failed a certificate check")
    ok = worst_excess <= 1e-5
    _report(
        3, "certified global optimality", ok,
        f"50 instances: max (objective - sampling oracle) = {worst_excess:.2e} (<= 1e-5), "
        f"worst certificate residual {worst_cert:.2e}",
    )


def test_criterion_4_hand_solved_fixtures():
    failures = []

    # 2-path: basis {(1,1)/sqrt2, (1,-1)/sqrt2}, energies (0, 2)
    g2 = gf.Graph(2, ((0, 1, 1.0),))
    lap2 = gf.laplacian(g2)
    b2 = compute_basis(lap2, greedy_max_cut(lap2))
    s = 1.0 / math.sqrt(2.0)
    if not np.allclose(b2.u, [[s, s], [s, -s]], atol=1e-10):
        failures.append("2-path basis")
    if not np.allclose(b2.energies, [0.0, 2.0], atol=1e-10):
        failures.append("2-path energies")

    # 4-cycle: energies (0, 2, 2, 4)
    g4 = gf.generate("ring", 4)
    lap4 = gf.laplacian(g4)
    b4 = compute_basis(lap4, greedy_max_cut(lap4))
    if not np.allclose(b4.energies, [0.0, 2.0, 2.0, 4.0], atol=1e-10):
        failures.append("C4 energies")

    # 3-path keeping the endpoints: series resistors -> weight 1/2
    lap3 = gf.laplacian(gf.generate("path", 3))
    reduced = multires.kron_reduce(lap3, keep=[0, 2])
    if not np.allclose(reduced, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-10):
        failures.append("path-3 Kron weight")

    # triangle: greedy cut value 2
    k3 = gf.generate("complete", 3)
    cut = cut_value(k3, greedy_max_cut(gf.laplacian(k3)))
    if cut != 2.0:
        failures.append(f"K3 greedy cut {cut}")

    _report(
        4, "hand-solved fixtures", not failures,
        "2-path basis/energies, C4 energies, path-3 Kron, K3 cut all exact to 1e-10"
        if not failures else "failed: " + ", ".join(failures),
    )


def test_criterion_5_gain_identities_all_designs_all_graphs():
    graphs = {
        "path2": gf.generate("path", 2),
        "path3": gf.generate("path", 3),
        "path4": gf.generate("path", 4),
        "C4": gf.generate("ring", 4),
        "K3": gf.generate("complete", 3),
        "ring8": gf.generate("ring", 8),
        "grid9": gf.generate("grid", 9),
        "K6": gf.generate("complete", 6),
        "rgg16": gf.generate("random_geometric", 16, seed=2),
        "rgg25": gf.generate("random_geometric", 25, seed=3),
    }
    designs = [("hstar", 0.0), ("hstar", 1.0), ("hstar", 2.0), ("minimax", None)]
    worst = 0.0
    worst_at = ""
    for gname, g in graphs.items():
        for design, hstar in designs:
            if design == "hstar":
                level = build_level(g, design="hstar", hstar=hstar)
                dname = f"h*={hstar:g}"
            else:
                level = build_level(g, design="minimax")
                dname = "minimax"
            residuals = verify_pr(level)
            m = max(residuals.values())
            if m > worst:
                worst, worst_at = m, f"{gname}/{dname}"
    ok = worst <= 1e-8
    _report(
        5, "gain identities and operator PR", ok,
        f"{len(graphs)} graphs x {len(designs)} designs: worst residual "
        f"{worst:.2e} (<= 1e-8) at {worst_at}",
    )


def test_criterion_6_denoising_beats_noise():
    wins = 0
    pairs = []
    for seed in range(10):
        g = gf.generate("random_geometric", 120, seed=seed)
        x = g.coords[:, 0]
        clean = 5.0 * (x - x.min()) / (x.max() - x.min())
        rng = np.random.default_rng([12345, seed])
        noise = 0.5 * rng.standard_normal(g.n)
        noisy = clean + noise
        pyramid = multires.build_pyramid(g, 3)
        tree = multires.pyramid_analyze(pyramid, noisy)
        r = float(np.median(np.abs(noise)))
        denoised = multires.pyramid_synthesize(pyramid, multires.threshold_highpass(tree, r))
        rmse_noisy = float(np.sqrt(np.mean((noisy - clean) ** 2)))
        rmse_denoised = float(np.sqrt(np.mean((denoised - clean) ** 2)))
        wins += rmse_denoised < rmse_noisy
        pairs.append(f"{rmse_noisy:.3f}->{rmse_denoised:.3f}")
    ok = wins >= 8
    _report(
        6, "median-threshold denoising", ok,
        f"{wins}/10 seeds improved (need >= 8); RMSE noisy->denoised: {', '.join(pairs)}",
    )


def test_criterion_7_nonlinear_approximation_monotone():
    g = gf.generate("random_geometric", 80, seed=11)
    pyramid = multires.build_pyramid(g, 3)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.n)
    tree = multires.pyramid_analyze(pyramid, f)
    lo, hi = len(tree.lows), tree.total
    ks = sorted(set(np.linspace(lo, hi, 10).astype(int)))
    res = []
    for k in ks:
        back = multires.pyramid_synthesize(pyramid, multires.keep_top_k(tree, int(k)))
        res.append(_relative_error(f, back))
    monotone = all(b <= a + 1e-12 for a, b in zip(res, res[1:]))
    ok = monotone and len(ks) == 10 and res[-1] <= 1e-8
    _report(
        7, "top-k reconstruction error is monotone", ok,
        f"lowpass-only RE {res[0]:.3f}; RE over k={ks[0]}..{ks[-1]} non-increasing "
        f"({res[0]:.3f} -> {res[-1]:.1e}), 10 k-values, slack 1e-12",
    )


def test_criterion_8_sparsifier_spectral_check():
    g = gf.generate("complete", 30)
    s = multires.sparsify(g, eps=0.3, seed=0)
    l0, l1 = gf.laplacian(g), gf.laplacian(s)
    rng = np.random.default_rng(30)
    hits = 0
    for _ in range(200):
        x = rng.standard_normal(30)
        q0 = float(x @ l0 @ x)
        q1 = float(x @ l1 @ x)
        hits += abs(q1 - q0) <= 0.9 * q0
    trees_ok = True
    for kind, n in (("path", 25), ("ring", 2),):
        tg = gf.generate(kind, n) if kind == "path" else gf.Graph(2, ((0, 1, 1.0),))
        ts = multires.sparsify(tg, eps=0.3)
        same = np.array_equal(gf.laplacian(tg), gf.laplacian(ts))
        trees_ok = trees_ok and same and len(ts.edges) == len(tg.edges)
    star = gf.Graph(5, tuple((0, i, 1.0) for i in range(1, 5)))
    ssp = multires.sparsify(star, eps=0.3)
    trees_ok = trees_ok and np.array_equal(gf.laplacian(star), gf.laplacian(ssp))
    # K30 at eps=0.3 lies under sparsify's pass-through gate, so the probes
    # above compare the graph with itself.  K40 at eps=0.9 is over the gate
    # and really samples; its probes must lie within the factor 1 +- eps.
    eps = 0.9
    k40 = gf.generate("complete", 40)
    s40 = multires.sparsify(k40, eps=eps, seed=0)
    sampled = len(s40.edges) < len(k40.edges)
    l0, l1 = gf.laplacian(k40), gf.laplacian(s40)
    rng = np.random.default_rng(30)
    hits40 = 0
    worst40 = 0.0
    for _ in range(200):
        x = rng.standard_normal(40)
        q0 = float(x @ l0 @ x)
        dev = abs(float(x @ l1 @ x) - q0) / q0
        worst40 = max(worst40, dev)
        hits40 += dev <= eps
    ok = hits >= 190 and trees_ok and sampled and hits40 >= 190
    _report(
        8, "sparsifier spectral approximation", ok,
        f"K30 eps=0.3: {hits}/200 probes within factor 1+-0.9 (need >= 190); "
        f"K40 eps={eps}: {len(k40.edges)} -> {len(s40.edges)} edges (need fewer), "
        f"{hits40}/200 probes within factor 1+-{eps} (need >= 190, worst {worst40:.3f}); "
        f"tree inputs returned spectrally exact: {trees_ok}",
    )
