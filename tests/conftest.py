"""Shared fixtures and oracles for the graphfb test suite."""

from __future__ import annotations

import itertools
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import graphfb as gf
from graphfb import qecqp


def random_connected_graph(n: int, seed: int) -> gf.Graph:
    """Random geometric graph; the generator guarantees connectivity."""
    return gf.generate("random_geometric", n, seed=seed)


def random_problem(dim: int, seed: int) -> qecqp.QecqpProblem:
    """Random instance with R eigenvalues in {0, 2}, straddling 1.

    Mirrors the structure the basis construction produces: R = A^T J A + I
    has eigenvalues 0 and 2 exactly. Q is a random symmetric matrix.
    """
    rng = np.random.default_rng(seed)
    while True:
        z = rng.standard_normal((dim, dim))
        q = 0.5 * (z + z.T)
        zz = rng.standard_normal((dim, dim))
        basis, _ = np.linalg.qr(zz)
        k = int(rng.integers(1, dim))
        r = 2.0 * basis[:, :k] @ basis[:, :k].T
        r = 0.5 * (r + r.T)
        w = np.linalg.eigvalsh(r)
        if w[0] < 1.0 - 1e-6 and w[-1] > 1.0 + 1e-6:
            return qecqp.QecqpProblem(q, r)


def phi_matrix(phi: gf.SignedPermutation) -> np.ndarray:
    """Dense n x n matrix of a signed permutation: signs[i] at (i, perm[i])."""
    m = np.zeros((phi.n, phi.n))
    m[np.arange(phi.n), phi.perm] = phi.signs
    return m


def oracle_min(problem: qecqp.QecqpProblem, samples: int = 100_000, seed: int = 0) -> float:
    """Monte Carlo upper bound on the optimum, independent of the solver.

    Requires R to have eigenvalues exactly in {0, 2}.  Each standard normal
    draw is split into its components in the two eigenspaces and each
    component is rescaled to squared norm 1/2; the result satisfies both
    constraints exactly, so the sample minimum of x^T Q x bounds the true
    minimum from above.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    ev, vec = np.linalg.eigh(problem.r)
    scale = max(1.0, float(np.abs(ev).max()))
    at0 = np.abs(ev) <= 1e-8 * scale
    at2 = np.abs(ev - 2.0) <= 1e-8 * scale
    if not (at0.any() and at2.any() and (at0 | at2).all()):
        raise ValueError("oracle requires R eigenvalues to be exactly {0, 2}")
    p0 = vec[:, at0]
    p2 = vec[:, at2]
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, problem.dim))
    c0 = z @ p0
    c2 = z @ p2
    n0 = np.linalg.norm(c0, axis=1)
    n2 = np.linalg.norm(c2, axis=1)
    bad = (n0 < 1e-12) | (n2 < 1e-12)
    while bad.any():
        z = rng.standard_normal((int(bad.sum()), problem.dim))
        c0[bad] = z @ p0
        c2[bad] = z @ p2
        n0[bad] = np.linalg.norm(c0[bad], axis=1)
        n2[bad] = np.linalg.norm(c2[bad], axis=1)
        bad = (n0 < 1e-12) | (n2 < 1e-12)
    x = (c0 / (np.sqrt(2.0) * n0[:, None])) @ p0.T + (c2 / (np.sqrt(2.0) * n2[:, None])) @ p2.T
    vals = np.einsum("ij,jk,ik->i", x, problem.q, x)
    return float(vals.min())


def dense_weights(g: gf.Graph) -> np.ndarray:
    """The dense symmetric weight matrix W, written from the edge arrays
    independently of ``laplacian``."""
    w = np.zeros((g.n, g.n))
    w[g.lo, g.hi] = g.w
    w[g.hi, g.lo] = g.w
    return w


def brute_force_max_cut(g: gf.Graph) -> float:
    """Exhaustive best cut over all bipartitions with both sides non-empty."""
    best = -np.inf
    w = dense_weights(g)
    for bits in itertools.product((0, 1), repeat=g.n - 1):
        side = np.array((1,) + bits, dtype=bool)
        if side.all():
            continue
        best = max(best, float(w[np.ix_(side, ~side)].sum()))
    return best


def all_cut_values(g: gf.Graph) -> np.ndarray:
    """Cut values of every bipartition (both sides non-empty)."""
    w = dense_weights(g)
    vals = []
    for bits in itertools.product((0, 1), repeat=g.n - 1):
        side = np.array((1,) + bits, dtype=bool)
        if side.all():
            continue
        vals.append(float(w[np.ix_(side, ~side)].sum()))
    return np.asarray(vals)


def splice_level1(saved: Path, donor: Path) -> None:
    """Replace level 1 of the saved pyramid ``saved``, its directory and its
    manifest entry, by those of the saved pyramid ``donor``."""
    shutil.rmtree(saved / "level1")
    shutil.copytree(donor / "level1", saved / "level1")
    manifest = json.loads((saved / "manifest.json").read_text(encoding="utf-8"))
    manifest["levels"][1] = json.loads((donor / "manifest.json").read_text(encoding="utf-8"))["levels"][1]
    (saved / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def dirichlet_double_sum(g: gf.Graph, f: np.ndarray) -> float:
    # Independent oracle: 1/2 sum_ij w_ij (f_i - f_j)^2 over ordered pairs.
    w = dense_weights(g)
    total = 0.0
    for i in range(g.n):
        for j in range(g.n):
            total += w[i, j] * (f[i] - f[j]) ** 2
    return 0.5 * total


@pytest.fixture
def path2() -> gf.Graph:
    return gf.generate("path", 2)


@pytest.fixture
def path3() -> gf.Graph:
    return gf.generate("path", 3)


@pytest.fixture
def path4() -> gf.Graph:
    return gf.generate("path", 4)


@pytest.fixture
def ring4() -> gf.Graph:
    return gf.generate("ring", 4)


@pytest.fixture
def k3() -> gf.Graph:
    return gf.generate("complete", 3)
