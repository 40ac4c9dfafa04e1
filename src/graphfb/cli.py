"""Command line interface.

Subcommands: ``generate`` (write a test graph), ``basis`` (build and export
a folding-adapted basis), ``roundtrip`` (analysis/synthesis reconstruction
errors), ``denoise`` (coordinate-signal denoising by highpass thresholding),
``locality`` (step-signal reconstructions from each pyramid layer), and
``verify`` (re-check the invariants of a fresh or saved pyramid).

Every run writes ``runconfig.json`` with the fully resolved parameters next
to its outputs; passing that file back via ``--config`` reproduces the run
(explicit flags still win).  Outputs are deterministic for fixed seeds.
Each option is declared once, in ``_OPTIONS``, and each command's handler
and defaults once, in ``_COMMANDS``; the parser, ``--help``, the merge
with a ``--config`` file and every check read those two tables.  Every
value a run reads is checked before ``runconfig.json`` is written or any
graph is read or generated, but for ``--keep`` against the vertex count of
a ``--graph-file``, which is checked once the file is read, before any
pyramid is built.
Exit codes: 0 on success, 2 for invalid inputs (one too large to fit in
memory, or an output path that cannot be written, among them), 3 for
numerical failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

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
from .qecqp import _check_tol
from .sampling import greedy_max_cut


class _Option(NamedTuple):
    """One option of the command line.

    ``kind`` is int, float, str, bool (a flag that takes no value) or a
    tuple of choices; ``accepts``, when set, tells whether a value of that
    kind lies in ``domain``, the words that --help and a refusal use.
    """

    kind: object
    help: str
    accepts: Callable[[object], bool] | None = None
    domain: str = ""


def _is_keep(text: str) -> bool:
    if text in ("all", "lows"):
        return True
    try:
        return int(text) >= 1
    except ValueError:
        return False


def _is_threshold(text: str) -> bool:
    if text == "median":
        return True
    try:
        return float(text) >= 0.0
    except ValueError:
        return False


_OPTIONS = {
    "config": _Option(str, "runconfig.json from an earlier run; flags override it"),
    "out": _Option(str, "output directory (created if missing)"),
    "graph": _Option(("ring", "path", "complete", "grid", "random_geometric"), "generated graph kind"),
    "n": _Option(int, "vertex count for generated graphs"),
    "seed": _Option(int, "master seed", lambda v: v >= 0, "non-negative"),
    "radius": _Option(float, "radius for random_geometric"),
    "graph_file": _Option(str, "edge-list file instead of --graph"),
    "depth": _Option(int, "number of pyramid levels", lambda v: v >= 1, "at least 1"),
    "design": _Option(_DESIGNS, "filter design"),
    "hstar": _Option(float, "constant h* in [0, 2] for the hstar design"),
    "eps": _Option(float, "sparsifier accuracy in (0, 1)"),
    "tol": _Option(float, "solver tolerance"),
    "trace": _Option(bool, "write one CSV per subproblem with a (mu2, f) row per full-size dual evaluation"),
    "trials": _Option(int, "number of random test signals", lambda v: v >= 1, "at least 1"),
    "keep": _Option(str, "coefficients to keep", _is_keep, "all, lows, or a positive integer"),
    # The upper bound refuses inf and an integer too large for a float; nan fails both.
    "sigma": _Option(float, "noise standard deviation", lambda v: 0 <= v <= sys.float_info.max,
                     "a finite non-negative number"),
    "threshold": _Option(str, "highpass threshold r", _is_threshold, "median, inf, or a non-negative number"),
    "rule": _Option(("large", "small"), "zero entries larger/smaller than r"),
    "load": _Option(str, "saved pyramid directory to verify instead of building"),
    "save": _Option(bool, "save the built pyramid under OUT/pyramid for later --load runs"),
}

# What a value from a config file may be, by the kind of its option.
_KINDS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    bool: ((bool,), "true or false"),
}


def _fanout(seed: int, stage: int) -> int:
    """Independent per-stage seed derived from one user-facing seed."""
    return int(np.random.SeedSequence([int(seed), int(stage)]).generate_state(1)[0])


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphfb", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (handler, defaults) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=handler.__doc__)
        for key in ("config", "out", *defaults):
            opt = _OPTIONS[key]
            if opt.kind is bool:
                how = {"action": "store_true"}
            elif isinstance(opt.kind, tuple):
                how = {"choices": opt.kind}
            else:
                how = {"type": opt.kind}
            text = f"{opt.help}: {opt.domain}" if opt.domain else opt.help
            if defaults.get(key) is not None:
                text += f" (default {defaults[key]})"
            # default=None tells an unset flag apart, so a --config file can fill it
            p.add_argument("--" + key.replace("_", "-"), default=None, help=text, **how)
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """The command's defaults, overridden by a --config file, overridden by
    the flags given; every value the run reads is checked here, before any
    file is written or read."""
    cmd = args.command
    defaults = _COMMANDS[cmd][1]
    cfg = {"out": None, **defaults}
    if args.config is not None:
        try:
            stored = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: bad JSON, or an integer of over 4300 digits
            raise InputError(f"cannot read config file: {exc}") from exc
        if not isinstance(stored, dict):
            raise InputError("config file must hold a JSON object")
        if stored.get("command") != cmd:
            raise InputError(
                f"config file is for command {stored.get('command')!r}, not {cmd!r}"
            )
        cfg.update((key, val) for key, val in stored.items() if key in cfg)
    cfg.update((key, val) for key, val in vars(args).items() if key in cfg and val is not None)
    for key, val in cfg.items():
        if val is not None or defaults.get(key) is not None:  # None stands for unset
            _check(key, val)
    if cfg["out"] is None:
        raise InputError("an output directory is required (--out)")
    if cfg.get("load"):
        return cfg  # a saved pyramid brings its own graph and config
    if not cfg.get("graph_file") and (cfg["graph"] is None or cfg["n"] is None):
        need = "both --graph and --n are required"
        raise InputError(f"either --graph-file or {need}" if "graph_file" in cfg else need)
    if "keep" in cfg and not cfg.get("graph_file"):
        _check_keep(cfg["keep"], cfg["n"])  # a graph file is checked once read
    if "depth" in cfg:
        _pyramid_config(cfg)  # the library's own checks of eps, hstar, tol and design
    elif "tol" in cfg:
        _check_tol(cfg["tol"])
    return cfg


def _check(key: str, val) -> None:
    """InputError unless ``val`` is of its option's kind and in its domain,
    and, for a float option, fits in a float.

    Only a config file can give a value of the wrong kind, so that refusal
    names the key; it names the domain too, for an option that has one.
    """
    opt = _OPTIONS[key]
    if isinstance(opt.kind, tuple):
        typed, what = val in opt.kind, f"one of {list(opt.kind)}"
    else:
        kinds, what = _KINDS[opt.kind]
        typed = isinstance(val, kinds) and isinstance(val, bool) == (opt.kind is bool)
    rule = f"--{key.replace('_', '-')} must be {opt.domain}"
    if not typed:
        raise InputError(f"config key {key!r} must be {what}, got {val!r}" + (f"; {rule}" if opt.domain else ""))
    if opt.accepts is not None and not opt.accepts(val):
        raise InputError(f"{rule}, got {val!r}")
    if opt.kind is float:
        try:
            float(val)  # a config file's integer may not fit
        except OverflowError:
            raise InputError(f"--{key.replace('_', '-')} is too large for a float") from None


def _check_keep(keep: str, n: int) -> None:
    """InputError when --keep asks for more coefficients than the n the
    graph has; its lower bound, the size of the coarsest level, is known
    only once the pyramid is built."""
    if keep not in ("all", "lows") and int(keep) > n:
        raise InputError(f"--keep must be at most the vertex count {n}, got {keep!r}")


def _load_graph(cfg: dict) -> tuple[Graph, np.ndarray | None]:
    if cfg.get("graph_file"):
        try:
            return read_graph_file(cfg["graph_file"])
        except OSError as exc:
            raise InputError(f"cannot read graph file: {exc}") from exc
    return generate(cfg["graph"], cfg["n"], seed=_fanout(cfg["seed"], 0), radius=cfg["radius"]), None


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
    """write a test graph as an edge list"""
    g, _ = _load_graph(cfg)
    write_graph_file(out / "graph.txt", g)
    if g.coords is not None:
        np.savetxt(out / "coords.csv", g.coords, fmt="%.17g", delimiter=",")
    print(f"wrote {g.n} vertices, {len(g.w)} edges to {out / 'graph.txt'}")


def _cmd_basis(cfg: dict, out: Path) -> None:
    """build a basis and export it with its energies"""
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
    """measure analysis/synthesis reconstruction error"""
    g, signal = _load_graph(cfg)
    _check_keep(cfg["keep"], g.n)
    pyramid = build_pyramid(g, cfg["depth"], _pyramid_config(cfg))
    if signal is not None:
        signals = [signal]
    else:
        rng = np.random.default_rng(_fanout(cfg["seed"], 1))
        signals = [rng.standard_normal(g.n) for _ in range(cfg["trials"])]
    k = None  # keep all
    if cfg["keep"] == "lows":
        k = len(pyramid.levels[-1].pattern.keep_low)
    elif cfg["keep"] != "all":
        k = int(cfg["keep"])
    res = []
    for f in signals:
        tree = pyramid_analyze(pyramid, f)
        if k is not None:
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
    """denoise a coordinate signal by thresholding"""
    sigma = float(cfg["sigma"])
    g, _ = _load_graph(cfg)  # a generated graph: its x coordinates are never constant
    x = g.coords[:, 0]
    clean = 5.0 * (x - x.min()) / float(x.max() - x.min())
    rng = np.random.default_rng(_fanout(cfg["seed"], 1))
    noise = sigma * rng.standard_normal(g.n)
    noisy = clean + noise
    r = float(np.median(np.abs(noise))) if cfg["threshold"] == "median" else float(cfg["threshold"])
    pyramid = build_pyramid(g, cfg["depth"], _pyramid_config(cfg))
    tree = pyramid_analyze(pyramid, noisy)
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
    """step-signal reconstructions per pyramid layer"""
    g, _ = _load_graph(cfg)
    f = np.where(np.arange(g.n) < g.n // 2, 0.0, 2.0)
    pyramid = build_pyramid(g, cfg["depth"], _pyramid_config(cfg))
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
    """re-check pyramid invariants"""
    if cfg["load"]:
        pyramid = load_pyramid(cfg["load"])
    else:
        g, _ = _load_graph(cfg)
        pyramid = build_pyramid(g, cfg["depth"], _pyramid_config(cfg))
        if cfg["save"]:
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


_GRAPH = {"graph": None, "n": None, "seed": 0, "radius": 0.3}
_PYRAMID = {"depth": 1, "design": "hstar", "hstar": 2.0, "eps": 0.3, "tol": 1e-10}

# Each command's handler, whose docstring is its --help line, and the
# default of every option it takes besides --config and --out, in --help order.
_COMMANDS = {
    "generate": (_cmd_generate, _GRAPH),
    "basis": (_cmd_basis, {**_GRAPH, "graph_file": None, "tol": 1e-10, "trace": False}),
    "roundtrip": (_cmd_roundtrip, {**_GRAPH, "graph_file": None, **_PYRAMID, "trials": 20, "keep": "all"}),
    "denoise": (
        _cmd_denoise,
        {**_GRAPH, "graph": "random_geometric", **_PYRAMID, "depth": 3,
         "sigma": 0.5, "threshold": "median", "rule": "large"},
    ),
    "locality": (_cmd_locality, {**_GRAPH, "graph": "ring", "n": 400, **_PYRAMID, "depth": 3}),
    "verify": (_cmd_verify, {**_GRAPH, **_PYRAMID, "load": None, "save": False}),
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "runconfig.json", {"command": args.command, **cfg})
        _COMMANDS[args.command][0](cfg, out)
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
