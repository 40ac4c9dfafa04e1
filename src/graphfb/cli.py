"""Command line interface.

Subcommands: ``generate`` (write a test graph), ``basis`` (build and export
a folding-adapted basis), ``roundtrip`` (analysis/synthesis reconstruction
errors), ``denoise`` (coordinate-signal denoising by highpass thresholding),
``locality`` (step-signal reconstructions from each pyramid layer), and
``verify`` (re-check the invariants of a fresh or saved pyramid).

Every run writes ``runconfig.json`` with the fully resolved parameters next
to its outputs; passing that file back via ``--config`` reproduces the run
(explicit flags still win).  Outputs are deterministic for fixed seeds.
Exit codes: 0 on success, 2 for invalid inputs (one too large to fit in
memory, or an output path that cannot be written, among them), 3 for
numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import InputError, NumericalError
from .filterbank import _DESIGNS
from .fourier import compute_basis
from .graphs import Graph, generate, laplacian, read_graph_file, write_graph_file
from .multires import (
    CoefficientTree,
    PyramidConfig,
    build_pyramid,
    keep_top_k,
    load_pyramid,
    pyramid_analyze,
    pyramid_synthesize,
    save_pyramid,
    threshold_highpass,
    verify_pyramid,
)
from .sampling import greedy_max_cut

_GRAPH_KINDS = ("ring", "path", "complete", "grid", "random_geometric")

_DEFAULTS: dict[str, dict] = {
    "generate": {"graph": None, "n": None, "seed": 0, "radius": 0.3},
    "basis": {
        "graph": None, "n": None, "seed": 0, "radius": 0.3,
        "graph_file": None, "tol": 1e-10, "trace": False,
    },
    "roundtrip": {
        "graph": None, "n": None, "seed": 0, "radius": 0.3, "graph_file": None,
        "depth": 1, "design": "hstar", "hstar": 2.0, "eps": 0.3,
        "trials": 20, "keep": "all", "tol": 1e-10,
    },
    "denoise": {
        "graph": "random_geometric", "n": None, "seed": 0, "radius": 0.3,
        "depth": 3, "design": "hstar", "hstar": 2.0, "eps": 0.3,
        "sigma": 0.5, "threshold": "median", "rule": "large", "tol": 1e-10,
    },
    "locality": {
        "graph": "ring", "n": 400, "seed": 0, "radius": 0.3,
        "depth": 3, "design": "hstar", "hstar": 2.0, "eps": 0.3, "tol": 1e-10,
    },
    "verify": {
        "graph": None, "n": None, "seed": 0, "radius": 0.3, "load": None, "save": False,
        "depth": 1, "design": "hstar", "hstar": 2.0, "eps": 0.3, "tol": 1e-10,
    },
}


def _fanout(seed: int, stage: int) -> int:
    """Independent per-stage seed derived from one user-facing seed."""
    return int(np.random.SeedSequence([int(seed), int(stage)]).generate_state(1)[0])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphfb", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, graph_file: bool = False) -> None:
        p.add_argument("--config", help="runconfig.json from an earlier run; flags override it")
        p.add_argument("--out", help="output directory (created if missing)")
        p.add_argument("--graph", choices=_GRAPH_KINDS, help="generated graph kind")
        p.add_argument("--n", type=int, help="vertex count for generated graphs")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
        p.add_argument("--radius", type=float, help="radius for random_geometric (default 0.3)")
        if graph_file:
            p.add_argument("--graph-file", dest="graph_file", help="edge-list file instead of --graph")

    def add_pyramid(p: argparse.ArgumentParser) -> None:
        p.add_argument("--depth", type=int, help="number of pyramid levels")
        p.add_argument("--design", choices=_DESIGNS, help="filter design (default hstar)")
        p.add_argument("--hstar", type=float, help="constant h* in [0, 2] for the hstar design")
        p.add_argument("--eps", type=float, help="sparsifier accuracy in (0, 1) (default 0.3)")
        p.add_argument("--tol", type=float, help="solver tolerance (default 1e-10)")

    p = sub.add_parser("generate", help="write a test graph as an edge list")
    add_common(p)

    p = sub.add_parser("basis", help="build a basis and export it with its energies")
    add_common(p, graph_file=True)
    p.add_argument("--tol", type=float, help="solver tolerance (default 1e-10)")
    p.add_argument(
        "--trace",
        action="store_true",
        default=None,
        help="write one CSV per subproblem with a (mu2, f) row per full-size dual evaluation",
    )

    p = sub.add_parser("roundtrip", help="measure analysis/synthesis reconstruction error")
    add_common(p, graph_file=True)
    add_pyramid(p)
    p.add_argument("--trials", type=int, help="number of random test signals (default 20)")
    p.add_argument("--keep", help="coefficients to keep: all, lows, or an integer")

    p = sub.add_parser("denoise", help="denoise a coordinate signal by thresholding")
    add_common(p)
    add_pyramid(p)
    p.add_argument("--sigma", type=float, help="noise standard deviation (default 0.5)")
    p.add_argument("--threshold", help="median, inf, or a number (default median)")
    p.add_argument("--rule", choices=("large", "small"), help="zero entries larger/smaller than r")

    p = sub.add_parser("locality", help="step-signal reconstructions per pyramid layer")
    add_common(p)
    add_pyramid(p)

    p = sub.add_parser("verify", help="re-check pyramid invariants")
    add_common(p)
    add_pyramid(p)
    p.add_argument("--load", help="saved pyramid directory to verify instead of building")
    p.add_argument(
        "--save", action="store_true", default=None,
        help="save the built pyramid under OUT/pyramid for later --load runs",
    )

    return parser


def _resolve(args: argparse.Namespace) -> dict:
    cmd = args.command
    cfg = dict(_DEFAULTS[cmd])
    cfg["out"] = None
    if args.config is not None:
        try:
            stored = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config file: {exc}") from exc
        if not isinstance(stored, dict):
            raise InputError("config file must hold a JSON object")
        if stored.get("command") != cmd:
            raise InputError(
                f"config file is for command {stored.get('command')!r}, not {cmd!r}"
            )
        for key, val in stored.items():
            if key in cfg:
                cfg[key] = val
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is not None:
            cfg[key] = val
    if cmd == "denoise":
        _check_sigma(cfg["sigma"])  # before the type check, whose message names no range
    _check_types(cmd, cfg)
    if cfg.get("out") is None:
        raise InputError("an output directory is required (--out)")
    if cfg["seed"] < 0:
        raise InputError(f"--seed must be non-negative, got {cfg['seed']}")
    return cfg


def _check_sigma(sigma) -> None:
    try:
        ok = bool(np.isfinite(float(sigma)) and float(sigma) >= 0.0)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise InputError(f"--sigma must be a finite non-negative number, got {sigma}")


def _check_types(cmd: str, cfg: dict) -> None:
    """Reject a value (from a config file) that is not of the type its flag
    parses to, or not one of the flag's choices.  None stands for an unset
    option whose default is None."""
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[cmd]._actions}
    for key, val in cfg.items():
        if val is None and _DEFAULTS[cmd].get(key) is None:
            continue
        action = actions[key]
        if action.nargs == 0:
            kinds, what = (bool,), "true or false"
        elif action.type is int:
            kinds, what = (int,), "an integer"
        elif action.type is float:
            kinds, what = (int, float), "a number"
        else:
            kinds, what = (str,), "a string"
        ok = isinstance(val, kinds) and (isinstance(val, bool) == (kinds == (bool,)))
        if ok and action.choices is not None and val not in action.choices:
            ok, what = False, f"one of {list(action.choices)}"
        if not ok:
            raise InputError(f"config key {key!r} must be {what}, got {val!r}")


def _load_graph(cfg: dict) -> tuple[Graph, np.ndarray | None]:
    if cfg.get("graph_file"):
        try:
            return read_graph_file(cfg["graph_file"])
        except OSError as exc:
            raise InputError(f"cannot read graph file: {exc}") from exc
    kind = cfg.get("graph")
    n = cfg.get("n")
    if kind is None or n is None:
        raise InputError("either --graph-file or both --graph and --n are required")
    return generate(kind, int(n), seed=_fanout(cfg["seed"], 0), radius=cfg["radius"]), None


def _pyramid_config(cfg: dict) -> PyramidConfig:
    return PyramidConfig(
        eps=float(cfg["eps"]),
        seed=_fanout(cfg["seed"], 2),
        design=cfg["design"],
        hstar=float(cfg["hstar"]),
        tol=float(cfg["tol"]),
    )


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """The leading ``index`` column as integers, the others at full precision."""
    fmt = ["%d"] + ["%.17g"] * (len(columns) - 1)
    np.savetxt(path, np.column_stack(columns), fmt=fmt, delimiter=",", header=",".join(header), comments="")


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x**2)))


def _cmd_generate(cfg: dict, out: Path) -> None:
    g, _ = _load_graph(cfg)
    write_graph_file(out / "graph.txt", g)
    if g.coords is not None:
        np.savetxt(out / "coords.csv", g.coords, fmt="%.17g", delimiter=",")
    print(f"wrote {g.n} vertices, {len(g.w)} edges to {out / 'graph.txt'}")


def _cmd_basis(cfg: dict, out: Path) -> None:
    g, _ = _load_graph(cfg)
    lap = laplacian(g)
    pattern = greedy_max_cut(lap)
    hook = None
    if cfg["trace"]:
        trace_dir = out / "trace"
        trace_dir.mkdir(exist_ok=True)

        def hook(step: int, rows: list) -> None:
            np.savetxt(
                trace_dir / f"qecqp_{step:03d}.csv",
                np.asarray(rows),
                fmt="%.17g",
                delimiter=",",
                header="mu2,fval",
                comments="",
            )

    basis = compute_basis(lap, pattern, tol=float(cfg["tol"]), trace_hook=hook)
    eigs = np.linalg.eigvalsh(lap)
    np.savetxt(out / "basis_u.csv", basis.u, fmt="%.17g", delimiter=",")
    _write_csv(
        out / "energies.csv",
        ["index", "energy", "laplacian_eigenvalue"],
        [np.arange(g.n), basis.energies, eigs],
    )
    np.savetxt(
        out / "phi.csv",
        np.column_stack([np.arange(g.n), basis.phi.perm, basis.phi.signs]),
        fmt="%d",
        delimiter=",",
        header="index,partner,sign",
        comments="",
    )
    _write_json(out / "pattern.json", pattern.to_dict())
    diff = float(np.abs(np.sort(basis.energies) - eigs).max())
    print(f"basis for n={g.n}: max |sorted energy - eigenvalue| = {diff:.3e}")


def _cmd_roundtrip(cfg: dict, out: Path) -> None:
    if int(cfg["trials"]) < 1:
        raise InputError(f"--trials must be at least 1, got {cfg['trials']}")
    g, signal = _load_graph(cfg)
    pyramid = build_pyramid(g, int(cfg["depth"]), _pyramid_config(cfg))
    if signal is not None:
        signals = [signal]
    else:
        rng = np.random.default_rng(_fanout(cfg["seed"], 1))
        signals = [rng.standard_normal(g.n) for _ in range(int(cfg["trials"]))]
    res = []
    for f in signals:
        tree = pyramid_analyze(pyramid, f)
        keep = str(cfg["keep"])
        if keep == "lows":
            tree = keep_top_k(tree, len(tree.lows))
        elif keep != "all":
            try:
                k = int(keep)
            except ValueError:
                raise InputError(f"--keep must be all, lows, or an integer, got {keep!r}") from None
            tree = keep_top_k(tree, k)
        fr = pyramid_synthesize(pyramid, tree)
        res.append(float(np.linalg.norm(f - fr) / np.linalg.norm(f)))
    res_arr = np.asarray(res)
    _write_csv(out / "re_trials.csv", ["index", "relative_error"], [np.arange(len(res)), res_arr])
    _write_json(
        out / "report.json",
        {
            "depth": pyramid.depth,
            "requested_depth": pyramid.requested_depth,
            "level_sizes": [level.n for level in pyramid.levels],
            "trials": len(res),
            "max_relative_error": float(res_arr.max()),
            "mean_relative_error": float(res_arr.mean()),
        },
    )
    print(f"roundtrip depth={pyramid.depth} keep={cfg['keep']}: max RE = {res_arr.max():.3e}")


def _cmd_denoise(cfg: dict, out: Path) -> None:
    sigma = float(cfg["sigma"])
    g, _ = _load_graph(cfg)
    if g.coords is None:
        raise InputError("denoise needs a graph with coordinates")
    x = g.coords[:, 0]
    span = float(x.max() - x.min())
    if span == 0.0:
        raise InputError("x coordinates are constant; no signal to build")
    clean = 5.0 * (x - x.min()) / span
    rng = np.random.default_rng(_fanout(cfg["seed"], 1))
    noise = sigma * rng.standard_normal(g.n)
    noisy = clean + noise
    pyramid = build_pyramid(g, int(cfg["depth"]), _pyramid_config(cfg))
    tree = pyramid_analyze(pyramid, noisy)
    thr = str(cfg["threshold"])
    if thr == "median":
        r = float(np.median(np.abs(noise)))
    elif thr == "inf":
        r = float("inf")
    else:
        try:
            r = float(thr)
        except ValueError:
            raise InputError(f"--threshold must be median, inf, or a number, got {thr!r}") from None
    tree = threshold_highpass(tree, r, zero_large=(cfg["rule"] == "large"))
    denoised = pyramid_synthesize(pyramid, tree)
    _write_csv(
        out / "signals.csv",
        ["index", "clean", "noisy", "denoised"],
        [np.arange(g.n), clean, noisy, denoised],
    )
    report = {
        "r": r,
        "rule": cfg["rule"],
        "rmse_noisy": _rms(noisy - clean),
        "rmse_denoised": _rms(denoised - clean),
    }
    report["improved"] = bool(report["rmse_denoised"] < report["rmse_noisy"])
    _write_json(out / "report.json", report)
    print(
        f"denoise r={r:.4g}: rmse noisy {report['rmse_noisy']:.4f} -> "
        f"denoised {report['rmse_denoised']:.4f}"
    )


def _cmd_locality(cfg: dict, out: Path) -> None:
    g, _ = _load_graph(cfg)
    f = np.where(np.arange(g.n) < g.n // 2, 0.0, 2.0)
    pyramid = build_pyramid(g, int(cfg["depth"]), _pyramid_config(cfg))
    tree = pyramid_analyze(pyramid, f)
    recons = []
    for i in range(1, pyramid.depth + 1):
        highs = tuple(
            np.zeros_like(h) if lvl < i else h for lvl, h in enumerate(tree.highs)
        )
        recons.append(pyramid_synthesize(pyramid, CoefficientTree(lows=tree.lows, highs=highs)))
    _write_csv(
        out / "recons.csv",
        ["index", "signal"] + [f"from_layer_{i}" for i in range(1, pyramid.depth + 1)],
        [np.arange(g.n), f] + recons,
    )
    res = [float(np.linalg.norm(f - rec) / np.linalg.norm(f)) for rec in recons]
    _write_json(
        out / "report.json",
        {"depth": pyramid.depth, "relative_errors": res},
    )
    print("locality REs per layer: " + ", ".join(f"{v:.4f}" for v in res))


def _cmd_verify(cfg: dict, out: Path) -> None:
    if cfg.get("load"):
        pyramid = load_pyramid(cfg["load"])
    else:
        g, _ = _load_graph(cfg)
        pyramid = build_pyramid(g, int(cfg["depth"]), _pyramid_config(cfg))
        if cfg.get("save"):
            save_pyramid(pyramid, out / "pyramid")
    report = verify_pyramid(pyramid)
    _write_json(out / "report.json", report)
    for entry in report["levels"]:
        status = "ok" if entry["checks_ok"] else "FAILED"
        print(
            f"level {entry['level']} (n={entry['n']}): {status}  "
            f"orthonormality {entry['orthonormality']:.2e}, folding {entry['folding']:.2e}, "
            f"operator {entry['operator']:.2e}, energies {entry['energies']:.2e}, "
            f"pair tags {'ok' if entry['pair_tags_ok'] else 'FAILED'}"
        )
    if not report["ok"]:
        raise NumericalError("pyramid verification failed; see report.json")
    print("all checks passed")


_COMMANDS = {
    "generate": _cmd_generate,
    "basis": _cmd_basis,
    "roundtrip": _cmd_roundtrip,
    "denoise": _cmd_denoise,
    "locality": _cmd_locality,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "runconfig.json", {"command": args.command, **cfg})
        _COMMANDS[args.command](cfg, out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: the input is too large for the available memory ({exc})", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
