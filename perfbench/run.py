"""graphfb benchmark: pyramid builds, signal transforms and graph coarsening.

Run from the root of a checkout that holds ``src/graphfb``:

    python3 perfbench/run.py --workload build_rgg --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --smoke

One workload runs in one process, a single caller in a closed loop, with
BLAS pinned to one thread.  The human-readable lines name every number with
its unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1``
the per-layer ones.  Everything a run measures is written to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``: an environment
stamp, every operation's time, the checks that ran, exact counts and
(traced) the first spans of each operation kind.

``--workload all`` runs the four workloads one after the other, each in its
own process.  ``--smoke`` does the same at tiny sizes, traced and untraced,
and checks that every metric BENCHMARK.json names is emitted with its unit
and that every output check ran.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("build_rgg", "build_lattice", "transform", "coarsen")
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 900


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    ap.add_argument("--smoke", action="store_true", help="all workloads at tiny sizes, both modes, checked")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _import_graphfb():
    """Import graphfb from this checkout's src/, never from elsewhere."""
    if not (SRC / "graphfb" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'graphfb'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import graphfb

    if Path(graphfb.__file__).resolve().parent != (SRC / "graphfb").resolve():
        raise SystemExit(f"error: imported graphfb from {graphfb.__file__}, not from {SRC}")
    return graphfb


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports, read through its C API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(args: argparse.Namespace) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    _import_graphfb()
    sys.path.insert(0, str(HERE))
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    env = _environment(args.seed)
    print(f"# graphfb benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    res = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), sizes, OUT / f"tmp-{tag}-{os.getpid()}"
    )
    tally = res["tally"]
    for name, value, unit, note in res.get("report", []):
        print(f"{name} {_fmt(value)} {unit}  ({note})")
    print(f"fail_frac {_fmt(tally.failed / tally.attempted)} ratio  ({tally.failed} of {tally.attempted} operations)")
    for err in tally.errors:
        print(f"failure: {err}")
    print("checks " + json.dumps(tally.checks, sort_keys=True))
    if res["counts"]:
        print("counts " + json.dumps(_first_counts(res["counts"]), sort_keys=True))
    for kind, layers in res.get("self_s", {}).items():
        print(f"self_s[{kind}] " + " ".join(f"{k}={_fmt(v)}" for k, v in layers.items()))
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in res["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name} {_fmt(m['value'])} {m['unit']}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    doc = {
        "args": vars(args),
        "env": env,
        "result": result,
        "report": res.get("report", []),
        "checks": tally.checks,
        "errors": tally.errors,
        "counts": res["counts"],
        "op_seconds": res["times"],
        "self_s": res.get("self_s", {}),
        "span_columns": ["id", "name", "level", "op", "parent", "start", "end", "counts"],
        "spans": res.get("spans", []),
    }
    (OUT / f"{tag}.json").write_text(json.dumps(doc, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def _first_counts(counts: dict) -> dict:
    # Build workloads keep one record per build; print the first one.
    return {k: (v[0] if k == "pyramids" else v) for k, v in counts.items()}


def _child(workload: str, args: argparse.Namespace, trace: int, tiny: bool) -> dict | None:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        print(f"error: {workload} trace={trace} exited with code {proc.returncode}")
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args: argparse.Namespace) -> int:
    ok = True
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        res = _child(name, args, args.trace, args.tiny)
        if res is None:
            ok = False
            continue
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0 if ok and merged["correct"] else 1


def smoke(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for name in WORKLOAD_NAMES:
            res = _child(name, args, trace, tiny=True)
            if res is None:
                problems.append(f"{name} trace={trace}: did not finish")
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
                problems.append(f"{name} trace={trace}: names or units differ from BENCHMARK.json {section}: {diff}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{name} trace={trace}: outputs not correct")
            doc = json.loads((OUT / f"{name}-seed{args.seed}-trace{trace}-tiny.json").read_text(encoding="utf-8"))
            missing = set(_expected_checks(name, trace)) - set(doc["checks"])
            if missing:
                problems.append(f"{name} trace={trace}: checks never ran: {sorted(missing)}")
    for p in problems:
        print("smoke: " + p)
    print(f"smoke: {'ok' if not problems else 'FAILED'}")
    return 0 if not problems else 1


def _expected_checks(workload: str, trace: int) -> tuple[str, ...]:
    read_side = ("roundtrip_error", "batch_parseval", "reload_equal")
    probes = ("solve_top_matches_basis", "complement")
    own = {
        "build_rgg": ("verify_pyramid",),
        "build_lattice": ("verify_pyramid",),
        "transform": read_side,
        "coarsen": ("check_laplacian",),
    }[workload]
    if not trace:
        return own
    return own + read_side + probes + (("verify_pyramid",) if workload == "coarsen" else ())


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
        return smoke(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
