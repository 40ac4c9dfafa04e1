"""End-to-end command line tests, run in process via ``main(argv)``.

Exit code contract: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import graphfb as gf
from conftest import splice_level1
from graphfb.cli import main


def run(*argv: str) -> int:
    return main([str(a) for a in argv])


def report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def write_path4(path: Path, signal: bool = False) -> Path:
    lines = ["0 1 1.0", "1 2 1.0", "2 3 1.0"]
    if signal:
        lines += ["%signal"] + [f"{i} {float(v)}" for i, v in enumerate((1.0, 2.0, 0.5, -1.0))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# -- argument and config validation ------------------------------------------


def test_missing_out_is_input_error(tmp_path):
    assert run("generate", "--graph", "ring", "--n", 8) == 2


def test_unknown_graph_kind(tmp_path):
    # argparse rejects the choice itself, before main() can return
    with pytest.raises(SystemExit) as exc:
        run("generate", "--graph", "nosuch", "--n", 8, "--out", tmp_path / "o")
    assert exc.value.code == 2


def test_graph_without_n(tmp_path):
    assert run("basis", "--graph", "ring", "--out", tmp_path / "o") == 2


def test_verify_without_a_graph_names_only_its_own_options(tmp_path, capsys):
    # verify takes no --graph-file, so the message must not offer it.
    assert run("verify", "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert "both --graph and --n are required" in err and "--graph-file" not in err


def test_roundtrip_without_a_graph_names_graph_file(tmp_path, capsys):
    assert run("roundtrip", "--out", tmp_path / "o") == 2
    assert "either --graph-file or both --graph and --n are required" in capsys.readouterr().err


def test_malformed_graph_file(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 one 1.0\n", encoding="utf-8")
    assert run("basis", "--graph-file", bad, "--out", tmp_path / "o") == 2


def test_missing_graph_file(tmp_path):
    assert run("basis", "--graph-file", tmp_path / "nope.txt", "--out", tmp_path / "o") == 2


def test_out_of_memory_is_input_error(tmp_path, monkeypatch, capsys):
    # A graph too large for the machine (grid 1e10 asks numpy for more than
    # it can allocate) ends in an error line, not a traceback.
    def too_large(kind, n, **kwargs):
        raise MemoryError("Unable to allocate 745. PiB for an array")

    monkeypatch.setattr("graphfb.cli.generate", too_large)
    assert run("verify", "--graph", "grid", "--n", 10**10, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unaddressable_vertex_count_is_input_error(tmp_path, capsys):
    # Refused before anything is allocated, with an error line, not a traceback.
    assert run("generate", "--graph", "path", "--n", 2**70, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too large" in err
    assert not (tmp_path / "o" / "graph.txt").exists()


@pytest.mark.parametrize("cmd, key", [("verify", "eps"), ("generate", "radius"), ("basis", "tol"),
                                      ("roundtrip", "hstar")])
def test_config_number_too_large_for_a_float_is_input_error(tmp_path, capsys, cmd, key):
    # json writes 10**400 out in full; it used to end in an OverflowError
    # traceback.  It is refused before runconfig.json is written.
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"command": cmd, key: 10**400}), encoding="utf-8")
    out = tmp_path / "o"
    assert run(cmd, "--config", cfg, "--graph", "ring", "--n", 8, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --{key} is too large for a float")
    assert not (out / "runconfig.json").exists()


def test_config_integer_past_the_digit_limit_is_input_error(tmp_path, capsys):
    # json refuses an integer of more than 4300 digits with a plain
    # ValueError (from Python 3.11 on); an older json reads it, and the
    # vertex count is then refused as too large.
    cfg = tmp_path / "c.json"
    cfg.write_text('{"command": "generate", "graph": "ring", "n": 1' + "0" * 5000 + "}", encoding="utf-8")
    assert run("generate", "--config", cfg, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o" / "graph.txt").exists()


def test_generate_onto_an_existing_file_is_input_error(tmp_path, capsys):
    # --out naming a regular file ends in an error line naming it, not a traceback.
    target = tmp_path / "afile"
    target.write_text("not a directory\n", encoding="utf-8")
    assert run("generate", "--graph", "ring", "--n", 8, "--out", target) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err


def test_verify_save_onto_an_existing_file_is_input_error(tmp_path, capsys):
    # OUT/pyramid is a file, so the save after the build cannot make it.
    out = tmp_path / "d"
    out.mkdir()
    (out / "pyramid").write_text("in the way\n", encoding="utf-8")
    assert run("verify", "--graph", "ring", "--n", 8, "--save", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "pyramid") in err


def test_unreadable_config(tmp_path):
    assert run("basis", "--config", tmp_path / "nope.json", "--out", tmp_path / "o") == 2


def test_config_for_wrong_command(tmp_path):
    out1 = tmp_path / "a"
    assert run("generate", "--graph", "ring", "--n", 6, "--out", out1) == 0
    assert run("basis", "--config", out1 / "runconfig.json", "--out", tmp_path / "b") == 2


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"depth": "abc"}, "depth"),
        ({"eps": None}, "eps"),
        ({"seed": "x"}, "seed"),
        ({"n": 8.7}, "n"),
        ({"n": True}, "n"),
        ({"tol": "1e-10"}, "tol"),
        ({"design": "nosuch"}, "design"),
        ({"save": 1}, "save"),
        ({"out": 5}, "out"),
    ],
    ids=["str-int", "null-float", "str-seed", "float-int", "bool-int", "str-float", "choice",
         "int-bool", "int-str"],
)
def test_config_rejects_wrong_typed_value(tmp_path, capsys, doc, key):
    # Flags win over the file, so every value here comes from the file.
    out = tmp_path / "o"
    cfg = tmp_path / "c.json"
    stored = {"command": "verify", "graph": "ring", "n": 8, "out": str(out), **doc}
    cfg.write_text(json.dumps(stored), encoding="utf-8")
    assert run("verify", "--config", cfg) == 2
    assert f"config key {key!r}" in capsys.readouterr().err
    assert not (out / "runconfig.json").exists()


def test_config_rejects_non_object(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    assert run("verify", "--config", cfg, "--out", tmp_path / "o") == 2
    assert "JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("generate", "--graph", "ring", "--n", 6),
    ("roundtrip", "--graph", "ring", "--n", 8, "--trials", 2, "--keep", 5),
    ("denoise", "--graph", "random_geometric", "--n", 20, "--depth", 1),
    ("locality", "--n", 16, "--depth", 1),
    ("verify", "--graph", "ring", "--n", 8, "--save"),
])
def test_runconfig_is_accepted_as_config(tmp_path, argv):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(*argv, "--out", out1) == 0
    assert run(argv[0], "--config", out1 / "runconfig.json", "--out", out2) == 0
    first = json.loads((out1 / "runconfig.json").read_text(encoding="utf-8"))
    again = json.loads((out2 / "runconfig.json").read_text(encoding="utf-8"))
    assert again == {**first, "out": str(out2)}


def test_bad_keep_value(tmp_path):
    g = write_path4(tmp_path / "g.txt")
    assert (
        run("roundtrip", "--graph-file", g, "--keep", "half", "--out", tmp_path / "o") == 2
    )


def test_negative_seed(tmp_path, capsys):
    assert run("generate", "--graph", "ring", "--n", 8, "--seed", -1, "--out", tmp_path / "o") == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_zero_trials(tmp_path, capsys):
    out = tmp_path / "o"
    assert run("roundtrip", "--graph", "ring", "--n", 8, "--trials", 0, "--out", out) == 2
    assert "--trials must be at least 1" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("cmd, key, value", [
    ("roundtrip", "keep", "half"),
    ("roundtrip", "keep", "1e3"),
    ("roundtrip", "keep", "0"),
    ("roundtrip", "keep", "-3"),
    ("roundtrip", "trials", 0),
    ("denoise", "threshold", "abc"),
    ("denoise", "threshold", "-1"),
    ("denoise", "threshold", "nan"),
])
def test_bad_value_is_refused_before_any_graph_is_made(tmp_path, monkeypatch, source, cmd, key, value):
    # These used to be refused only after a whole pyramid build.
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was generated")

    monkeypatch.setattr("graphfb.cli.generate", no_graph)
    out = tmp_path / "o"
    argv = [cmd, "--graph", "random_geometric", "--n", 192, "--depth", 3, "--out", out]
    if source == "flag":
        argv.append(f"--{key}={value}")
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": cmd, key: value}), encoding="utf-8")
        argv += ["--config", cfg]
    assert run(*argv) == 2
    assert not (out / "runconfig.json").exists()


@pytest.mark.parametrize("cmd, shown", [
    ("locality", ["graph kind (default ring)", "--n N vertex count for generated graphs (default 400)",
                  "--depth DEPTH number of pyramid levels: at least 1 (default 3)"]),
    ("denoise", ["graph kind (default random_geometric)",
                 "--depth DEPTH number of pyramid levels: at least 1 (default 3)"]),
])
def test_help_shows_the_commands_defaults(capsys, cmd, shown):
    with pytest.raises(SystemExit) as exc:
        run(cmd, "--help")
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for line in shown:
        assert line in text


# -- generate ------------------------------------------------------------------


def test_generate_writes_parseable_graph(tmp_path):
    out = tmp_path / "o"
    assert run("generate", "--graph", "random_geometric", "--n", 12, "--out", out) == 0
    g, signal = gf.read_graph_file(out / "graph.txt")
    assert g.n == 12 and signal is None
    assert (out / "coords.csv").exists()
    cfg = json.loads((out / "runconfig.json").read_text())
    assert cfg["command"] == "generate"
    assert cfg["n"] == 12


def test_generate_seed_determinism(tmp_path):
    outs = [tmp_path / name for name in ("a", "b", "c")]
    for out, seed in zip(outs, (7, 7, 8)):
        assert run("generate", "--graph", "random_geometric", "--n", 15,
                   "--seed", seed, "--out", out) == 0
    a, b, c = [(o / "graph.txt").read_bytes() for o in outs]
    assert a == b
    assert a != c


# -- basis ------------------------------------------------------------------------


PATH4_U = 0.5 * np.array(
    [
        [1.0, 1.0, -1.0, -1.0],
        [1.0, 1.0, 1.0, 1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ]
)


def test_basis_golden_path4(tmp_path):
    g = write_path4(tmp_path / "g.txt")
    out = tmp_path / "o"
    assert run("basis", "--graph-file", g, "--out", out) == 0

    u = np.loadtxt(out / "basis_u.csv", delimiter=",")
    np.testing.assert_allclose(u, PATH4_U, atol=1e-8)

    rows = np.loadtxt(out / "energies.csv", delimiter=",", skiprows=1)
    np.testing.assert_allclose(rows[:, 1], [0.0, 1.0, 2.0, 3.0], atol=1e-8)
    eigs = [0.0, 2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    np.testing.assert_allclose(rows[:, 2], eigs, atol=1e-8)

    pattern = json.loads((out / "pattern.json").read_text())
    assert pattern == {"keep_low": [1, 3], "n": 4}

    phi = np.loadtxt(out / "phi.csv", delimiter=",", skiprows=1, dtype=int)
    np.testing.assert_array_equal(phi[:, 1], [3, 2, 1, 0])
    np.testing.assert_array_equal(phi[:, 2], [1, 1, 1, 1])


def test_basis_trace_files(tmp_path):
    g = write_path4(tmp_path / "g.txt")
    out = tmp_path / "o"
    assert run("basis", "--graph-file", g, "--trace", "--out", out) == 0
    trace = out / "trace" / "qecqp_000.csv"
    assert trace.exists()
    body = np.loadtxt(trace, delimiter=",", skiprows=1, ndmin=2)
    assert body.shape[1] == 2


def test_basis_of_large_weights(tmp_path):
    # A 16-vertex ring with weights 1e10 to 2e10: with a duality gap gate
    # of absolute floor the first pair exited 3.
    lines = [f"{i} {(i + 1) % 16} {1e10 * (1.0 + i / 15.0):.17g}" for i in range(16)]
    (tmp_path / "g.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("basis", "--graph-file", tmp_path / "g.txt", "--out", tmp_path / "o") == 0


def test_basis_refuses_weights_past_the_certified_range(tmp_path):
    # max |L| = 1e300 is past the solver's [1e-100, 1e100]: exit 2, with no
    # numpy warning.  It used to warn of an overflow in a norm and exit 3.
    (tmp_path / "g.txt").write_text("0 1 1e-300\n1 2 1e300\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("basis", "--graph-file", tmp_path / "g.txt", "--out", tmp_path / "o") == 2
    assert caught == []


def test_basis_of_small_weights_scales_energies_and_trace(tmp_path):
    # Weights times 1e-12 scale L, and with it the energies and the (mu2, f)
    # trace rows, and nothing else.  With absolute floors in the solver's
    # gates the energies times 1e12 were 47% (of the largest) away.
    g = gf.generate("random_geometric", 64, seed=1)
    gf.write_graph_file(tmp_path / "unit.txt", g)
    gf.write_graph_file(tmp_path / "small.txt", gf.Graph.from_arrays(g.n, g.lo, g.hi, 1e-12 * g.w))
    for name in ("unit", "small"):
        assert run("basis", "--graph-file", tmp_path / f"{name}.txt", "--trace", "--out", tmp_path / name) == 0
    unit, small = (
        np.loadtxt(tmp_path / name / "energies.csv", delimiter=",", skiprows=1)[:, 1] for name in ("unit", "small")
    )
    assert np.abs(1e12 * small - unit).max() <= 1e-9 * np.abs(unit).max()
    unit, small = (
        np.loadtxt(tmp_path / name / "trace" / "qecqp_000.csv", delimiter=",", skiprows=1)
        for name in ("unit", "small")
    )
    assert unit.shape == small.shape and len(unit) >= 2
    # f(0) = lambda_min(L) is 0 up to rounding.
    np.testing.assert_allclose(1e12 * small, unit, rtol=1e-9, atol=1e-12)


def test_config_reproduces_basis_run(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["basis", "--graph", "random_geometric", "--n", "18", "--seed", "3"]
    assert run(*args, "--out", out1) == 0
    assert run("basis", "--config", out1 / "runconfig.json", "--out", out2) == 0
    for name in ("basis_u.csv", "energies.csv", "phi.csv", "pattern.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# -- roundtrip ---------------------------------------------------------------------


def test_roundtrip_report(tmp_path):
    out = tmp_path / "o"
    assert run("roundtrip", "--graph", "ring", "--n", 32, "--depth", 2,
               "--trials", 5, "--out", out) == 0
    rep = report(out)
    assert rep["depth"] == 2
    assert rep["requested_depth"] == 2
    assert rep["trials"] == 5
    assert rep["level_sizes"][0] == 32
    assert rep["max_relative_error"] <= 1e-7
    assert rep["mean_relative_error"] <= rep["max_relative_error"]
    lines = (out / "re_trials.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header + one row per trial


def test_roundtrip_uses_stored_signal(tmp_path):
    g = write_path4(tmp_path / "g.txt", signal=True)
    out = tmp_path / "o"
    assert run("roundtrip", "--graph-file", g, "--out", out) == 0
    rep = report(out)
    assert rep["trials"] == 1
    assert rep["max_relative_error"] <= 1e-8


def test_roundtrip_keep_lows_is_lossy(tmp_path):
    out = tmp_path / "o"
    assert run("roundtrip", "--graph", "ring", "--n", 32, "--keep", "lows",
               "--trials", 3, "--out", out) == 0
    assert report(out)["max_relative_error"] > 1e-3


def test_roundtrip_keep_integer(tmp_path):
    out = tmp_path / "o"
    assert run("roundtrip", "--graph", "ring", "--n", 16, "--keep", "16",
               "--trials", 2, "--out", out) == 0
    assert report(out)["max_relative_error"] <= 1e-8


# -- denoise -------------------------------------------------------------------------


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "-inf"])
def test_denoise_rejects_bad_sigma(tmp_path, capsys, sigma):
    out = tmp_path / "o"
    assert run("denoise", "--graph", "ring", "--n", 16, f"--sigma={sigma}", "--out", out) == 2
    assert "--sigma must be a finite non-negative number" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_denoise_rejects_bad_sigma_from_config(tmp_path, capsys):
    cfg = tmp_path / "runconfig.json"
    cfg.write_text(json.dumps({"command": "denoise", "sigma": "loud"}), encoding="utf-8")
    assert run("denoise", "--config", cfg, "--graph", "ring", "--n", 16, "--out", tmp_path / "o") == 2
    assert "--sigma must be a finite non-negative number" in capsys.readouterr().err


def test_denoise_noiseless_inf_threshold_is_exact(tmp_path):
    out = tmp_path / "o"
    assert run("denoise", "--graph", "random_geometric", "--n", 60, "--seed", 5,
               "--sigma", 0, "--threshold", "inf", "--out", out) == 0
    assert report(out)["rmse_denoised"] <= 1e-7


def test_denoise_noiseless_small_rule_is_exact(tmp_path):
    # r = median |noise| = 0; zeroing |coef| <= 0 touches nothing.
    out = tmp_path / "o"
    assert run("denoise", "--graph", "random_geometric", "--n", 60, "--seed", 5,
               "--sigma", 0, "--rule", "small", "--out", out) == 0
    assert report(out)["rmse_denoised"] <= 1e-7


def test_denoise_noiseless_default_rule_keeps_lows_only(tmp_path):
    # r = 0 under the zero-large rule wipes every highpass coefficient.
    out = tmp_path / "o"
    assert run("denoise", "--graph", "random_geometric", "--n", 60, "--seed", 5,
               "--sigma", 0, "--out", out) == 0
    rep = report(out)
    assert rep["rmse_denoised"] > 1e-2
    assert rep["improved"] is False


def test_denoise_improves_noisy_signal(tmp_path):
    out = tmp_path / "o"
    assert run("denoise", "--graph", "random_geometric", "--n", 60, "--seed", 5,
               "--out", out) == 0
    rep = report(out)
    assert rep["improved"] is True
    assert rep["rmse_denoised"] < rep["rmse_noisy"]
    assert rep["rule"] == "large"
    signals = (out / "signals.csv").read_text().strip().splitlines()
    assert signals[0] == "index,clean,noisy,denoised"
    assert len(signals) == 61


def test_denoise_bad_threshold(tmp_path):
    assert run("denoise", "--graph", "random_geometric", "--n", 30,
               "--threshold", "big", "--out", tmp_path / "o") == 2


# -- locality -----------------------------------------------------------------------


def test_locality_report(tmp_path):
    out = tmp_path / "o"
    assert run("locality", "--graph", "ring", "--n", 64, "--depth", 3, "--out", out) == 0
    rep = report(out)
    assert rep["depth"] == 3
    assert len(rep["relative_errors"]) == 3
    assert all(v >= 0.0 for v in rep["relative_errors"])
    header = (out / "recons.csv").read_text().splitlines()[0]
    assert header == "index,signal,from_layer_1,from_layer_2,from_layer_3"


# -- verify -------------------------------------------------------------------------


def test_verify_fresh_build_green(tmp_path):
    out = tmp_path / "o"
    assert run("verify", "--graph", "random_geometric", "--n", 24, "--depth", 2,
               "--out", out) == 0
    rep = report(out)
    assert rep["ok"] is True
    assert len(rep["levels"]) == 2
    assert all(e["checks_ok"] for e in rep["levels"])


def test_verify_sparsified_level_green(tmp_path):
    # Level 1 is K20 with 190 edges, above sparsify's gate at eps 0.9, so
    # the effective-resistance path runs from the command line.
    out = tmp_path / "o"
    assert run("verify", "--graph", "complete", "--n", 40, "--depth", 2, "--eps", 0.9, "--save",
               "--out", out) == 0
    assert report(out)["ok"] is True
    level1, _ = gf.read_graph_file(str(out / "pyramid" / "level1" / "graph.txt"))
    assert level1.n == 20 and len(level1.w) < 190


def test_verify_save_corrupt_load(tmp_path):
    out1 = tmp_path / "a"
    assert run("verify", "--graph", "random_geometric", "--n", 20, "--depth", 2,
               "--save", "--out", out1) == 0
    basis_file = out1 / "pyramid" / "level0" / "basis_u.csv"
    rows = basis_file.read_text().splitlines()
    parts = rows[0].split(",")
    parts[0] = repr(float(parts[0]) + 1e-2)
    rows[0] = ",".join(parts)
    basis_file.write_text("\n".join(rows) + "\n")

    out2 = tmp_path / "b"
    assert run("verify", "--load", out1 / "pyramid", "--out", out2) == 3
    rep = report(out2)
    assert rep["ok"] is False
    assert not all(e["checks_ok"] for e in rep["levels"])


def test_verify_load_missing_directory(tmp_path):
    assert run("verify", "--load", tmp_path / "nothing", "--out", tmp_path / "o") == 2


def _saved_cli_pyramid(tmp_path: Path) -> Path:
    out = tmp_path / "a"
    assert run("verify", "--graph", "ring", "--n", 12, "--depth", 2, "--save", "--out", out) == 0
    return out / "pyramid"


def test_verify_load_reads_no_build_flags(tmp_path):
    # A loaded pyramid brings its own config, so --tol and --depth go unread:
    # the saved depth-2 pyramid is verified as it is.
    pyr = _saved_cli_pyramid(tmp_path)
    assert run("verify", "--load", pyr, "--tol", "nan", "--depth", 5, "--out", tmp_path / "b") == 0
    assert len(report(tmp_path / "b")["levels"]) == 2


@pytest.mark.parametrize("load", [False, True])
def test_depth_below_one_is_refused_before_any_work(tmp_path, capsys, load):
    # --depth declares its domain in the option table, so every command
    # that takes it refuses 0, a --load run included.
    out = tmp_path / "o"
    source = ["--load", _saved_cli_pyramid(tmp_path)] if load else ["--graph", "ring", "--n", 8]
    assert run("verify", *source, "--depth", 0, "--out", out) == 2
    assert "--depth must be at least 1, got 0" in capsys.readouterr().err
    assert not (out / "runconfig.json").exists()


def write_wide_path(path: Path) -> Path:
    """Path 0-1-2-3 with weights 1e-20, 1e20 and 1: its Kron reduction onto
    {0, 1, 3} holds the 1e-20 edge next to entries of size 1."""
    path.write_text("0 1 1e-20\n1 2 1e20\n2 3 1\n", encoding="utf-8")
    return path


def test_roundtrip_of_a_wide_weight_path(tmp_path):
    # The coarse graph keeps its 1e-20 edge: measured against max |L| it
    # was dropped as dust, and the run exited 2 with "graph is disconnected".
    out = tmp_path / "o"
    assert run("roundtrip", "--graph-file", write_wide_path(tmp_path / "g.txt"), "--depth", 2, "--out", out) == 0
    rep = report(out)
    assert rep["depth"] == 2 and rep["level_sizes"] == [4, 3]
    assert rep["max_relative_error"] <= 1e-12


def test_keep_past_the_vertex_count_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    def no_graph(*args, **kwargs):
        raise AssertionError("a graph was generated")

    monkeypatch.setattr("graphfb.cli.generate", no_graph)
    out = tmp_path / "o"
    assert run("roundtrip", "--graph", "random_geometric", "--n", 192, "--keep", 500, "--out", out) == 2
    assert "--keep must be at most the vertex count 192, got '500'" in capsys.readouterr().err
    assert not (out / "runconfig.json").exists()


def test_keep_past_a_graph_files_vertex_count_is_refused_before_the_build(tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("a pyramid was built")

    monkeypatch.setattr("graphfb.cli.build_pyramid", no_build)
    out = tmp_path / "o"
    assert run("roundtrip", "--graph-file", write_path4(tmp_path / "g.txt"), "--keep", 5, "--out", out) == 2
    assert "--keep must be at most the vertex count 4, got '5'" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_verify_load_rejects_level_sizes_that_do_not_chain(tmp_path, capsys):
    # Level 0 of ring 16 keeps 8 vertices; level 1 of ring 20 has 10.  This
    # used to print "all checks passed".
    for name, n in (("a", 16), ("b", 20)):
        assert run("verify", "--graph", "ring", "--n", n, "--depth", 2, "--save", "--out", tmp_path / name) == 0
    capsys.readouterr()
    splice_level1(tmp_path / "a" / "pyramid", tmp_path / "b" / "pyramid")
    assert run("verify", "--load", tmp_path / "a" / "pyramid", "--out", tmp_path / "c") == 2
    captured = capsys.readouterr()
    assert "level 0 keeps 8" in captured.err and "all checks passed" not in captured.out


def test_verify_load_missing_level_file(tmp_path, capsys):
    pyr = _saved_cli_pyramid(tmp_path)
    (pyr / "level1" / "basis_u.csv").unlink()
    assert run("verify", "--load", pyr, "--out", tmp_path / "b") == 2
    assert "basis_u.csv" in capsys.readouterr().err


def test_verify_load_rejects_basis_with_a_column_dropped(tmp_path, capsys):
    pyr = _saved_cli_pyramid(tmp_path)
    path = pyr / "level0" / "basis_u.csv"
    rows = [row.rsplit(",", 1)[0] for row in path.read_text(encoding="utf-8").splitlines()]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert run("verify", "--load", pyr, "--out", tmp_path / "b") == 2
    assert "basis_u.csv" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["basis_u.csv", "filters.csv"])
def test_verify_load_rejects_a_nan_entry(tmp_path, capsys, name):
    # A NaN in basis_u.csv used to exit 3 with bare NaN tokens, which are
    # not JSON, in report.json; a NaN in both h0 and g0 of one row of
    # filters.csv exited 2 with a message about a signal.
    pyr = _saved_cli_pyramid(tmp_path)
    path = pyr / "level0" / name
    a = np.loadtxt(path, delimiter=",", ndmin=2)
    a[0, ::2] = np.nan
    np.savetxt(path, a, fmt="%.17g", delimiter=",")
    out = tmp_path / "b"
    assert run("verify", "--load", pyr, "--out", out) == 2
    assert f"level 0: {name} has a non-finite entry" in capsys.readouterr().err
    assert not (out / "report.json").exists()


def test_verify_load_rejects_tampered_energies(tmp_path):
    pyr = _saved_cli_pyramid(tmp_path)
    path = pyr / "level0" / "energies.csv"
    rows = path.read_text(encoding="utf-8").splitlines()
    rows[0] = "123.0"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "b"
    assert run("verify", "--load", pyr, "--out", out) == 3
    level0 = report(out)["levels"][0]
    assert level0["energies"] > 1e-10 and level0["pair_tags_ok"] is True
    assert level0["checks_ok"] is False


def test_verify_load_rejects_zeroed_energies_of_small_weights(tmp_path):
    # Weights times 1e-12: the honest pyramid verifies, and zeroed level-0
    # energies fail, as they do on unit weights.
    g = gf.generate("random_geometric", 64, seed=1)
    pyr = tmp_path / "pyramid"
    gf.save_pyramid(gf.build_pyramid(gf.Graph.from_arrays(g.n, g.lo, g.hi, 1e-12 * g.w), 2), pyr)
    assert run("verify", "--load", pyr, "--out", tmp_path / "a") == 0
    path = pyr / "level0" / "energies.csv"
    n = len(path.read_text(encoding="utf-8").splitlines())
    path.write_text("0.0\n" * n, encoding="utf-8")
    out = tmp_path / "b"
    assert run("verify", "--load", pyr, "--out", out) == 3
    level0 = report(out)["levels"][0]
    assert level0["energies"] > 1e-10 and level0["checks_ok"] is False


def test_verify_load_rejects_tampered_pair_tags(tmp_path):
    pyr = _saved_cli_pyramid(tmp_path)
    path = pyr / "level0" / "pair_tags.csv"
    tags = path.read_text(encoding="utf-8").strip().split(",")
    tags[0] = "77"
    path.write_text(",".join(tags) + "\n", encoding="utf-8")
    out = tmp_path / "b"
    assert run("verify", "--load", pyr, "--out", out) == 3
    level0 = report(out)["levels"][0]
    assert level0["pair_tags_ok"] is False and level0["energies"] <= 1e-10
    assert level0["checks_ok"] is False


def test_verify_load_rejects_flipped_pair_signs(tmp_path):
    # Negating both signs of a pair keeps phi.csv a valid signed involution,
    # so it loads; only the folding check can tell it is not the basis's Phi.
    pyr = _saved_cli_pyramid(tmp_path)
    path = pyr / "level0" / "phi.csv"
    rows = np.loadtxt(path, delimiter=",", dtype=int, ndmin=2)
    rows[[0, rows[0, 1]], 2] *= -1
    np.savetxt(path, rows, fmt="%d", delimiter=",")
    out = tmp_path / "b"
    assert run("verify", "--load", pyr, "--out", out) == 3
    level0 = report(out)["levels"][0]
    assert level0["folding"] > 1e-6 and "involution" not in level0
    assert level0["checks_ok"] is False


def test_verify_load_rejects_differing_synthesis_gains(tmp_path, capsys):
    # A synthesis column that is not the analysis column is refused on load
    # as bad input (2), before any check runs.
    pyr = _saved_cli_pyramid(tmp_path)
    path = pyr / "level0" / "filters.csv"
    filt = np.loadtxt(path, delimiter=",", ndmin=2)
    filt[0, 2] += 1e-3
    np.savetxt(path, filt, fmt="%.17g", delimiter=",")
    assert run("verify", "--load", pyr, "--out", tmp_path / "b") == 2
    assert "filters.csv" in capsys.readouterr().err


def test_verify_load_rejects_an_empty_manifest(tmp_path, capsys):
    # "levels": [] used to load as depth 0 and print "all checks passed".
    pyr = _saved_cli_pyramid(tmp_path)
    capsys.readouterr()
    manifest = json.loads((pyr / "manifest.json").read_text(encoding="utf-8"))
    manifest["levels"] = []
    (pyr / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert run("verify", "--load", pyr, "--out", tmp_path / "b") == 2
    captured = capsys.readouterr()
    assert "got 0" in captured.err and "all checks passed" not in captured.out


def test_verify_load_rejects_a_graph_with_overflowing_degrees(tmp_path, capsys):
    # Two finite weights that sum past the float range at vertex 0: the
    # graph is refused where it is read, before any check runs.
    pyr = _saved_cli_pyramid(tmp_path)
    path = pyr / "level0" / "graph.txt"
    rows = path.read_text(encoding="utf-8").splitlines()
    at_0 = [k for k, row in enumerate(rows) if row.split()[0] == "0"]
    assert len(at_0) == 2
    for k in at_0:
        i, j, _ = rows[k].split()
        rows[k] = f"{i} {j} 1e308"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert run("verify", "--load", pyr, "--out", tmp_path / "b") == 2
    assert "non-finite degree" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["unknown", "missing"])
def test_verify_load_bad_manifest_config(tmp_path, capsys, edit):
    pyr = _saved_cli_pyramid(tmp_path)
    manifest = json.loads((pyr / "manifest.json").read_text(encoding="utf-8"))
    if edit == "unknown":
        manifest["config"]["colour"] = "blue"
    else:
        del manifest["config"]["tol"]
    (pyr / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert run("verify", "--load", pyr, "--out", tmp_path / "b") == 2
    assert "manifest config" in capsys.readouterr().err


def test_verify_load_rejects_out_of_range_hstar(tmp_path, capsys):
    # With the minimax design h* is unused, but a manifest must not carry
    # a value that PyramidConfig refuses.
    pyr = _saved_cli_pyramid(tmp_path)
    manifest = json.loads((pyr / "manifest.json").read_text(encoding="utf-8"))
    manifest["config"].update(design="minimax", hstar=5.0)
    (pyr / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert run("verify", "--load", pyr, "--out", tmp_path / "b") == 2
    assert "outside [0, 2]" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [0.5, 0.0, True])
def test_verify_load_rejects_non_integer_keep_low(tmp_path, capsys, entry):
    # int() used to truncate 0.5 to vertex 0 and read True as vertex 1.
    pyr = _saved_cli_pyramid(tmp_path)
    manifest = json.loads((pyr / "manifest.json").read_text(encoding="utf-8"))
    manifest["levels"][0]["keep_low"][0] = entry
    (pyr / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert run("verify", "--load", pyr, "--out", tmp_path / "b") == 2
    assert "sequence of integers" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("n", 12.5), ("n", True), ("requested_depth", 2.9), ("requested_depth", "2")])
def test_verify_load_rejects_non_integer_size_or_depth(tmp_path, capsys, key, value):
    pyr = _saved_cli_pyramid(tmp_path)
    manifest = json.loads((pyr / "manifest.json").read_text(encoding="utf-8"))
    (manifest["levels"][0] if key == "n" else manifest)[key] = value
    (pyr / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert run("verify", "--load", pyr, "--out", tmp_path / "b") == 2
    assert f"{key} must be an integer" in capsys.readouterr().err


def test_roundtrip_rejects_non_finite_signal(tmp_path, capsys):
    path = write_path4(tmp_path / "g.txt", signal=True)
    path.write_text(path.read_text(encoding="utf-8").replace("2.0", "nan"), encoding="utf-8")
    assert run("roundtrip", "--graph-file", path, "--out", tmp_path / "o") == 2
    assert "not finite" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [("--eps", 5), ("--tol", 0)])
def test_invalid_pyramid_config_at_depth_one(tmp_path, flags):
    assert run("roundtrip", "--graph", "ring", "--n", 8, "--depth", 1, *flags,
               "--out", tmp_path / "o") == 2


@pytest.mark.parametrize("cmd", ["basis", "verify"])
@pytest.mark.parametrize("tol", ["nan", "inf", "1.0", "1e-4"])
def test_tolerance_outside_its_range_is_input_error(tmp_path, capsys, cmd, tol):
    # --tol nan exited 3 from a failed certificate, --tol inf and 1.0 exited
    # 0 with every certificate vacuous.
    assert run(cmd, "--graph", "ring", "--n", 8, "--tol", tol, "--out", tmp_path / "o") == 2
    assert "tol must lie in (0, 1e-4)" in capsys.readouterr().err


def test_verify_load_reproduces_saved_report(tmp_path):
    out1 = tmp_path / "a"
    assert run("verify", "--graph", "ring", "--n", 16, "--depth", 2,
               "--save", "--out", out1) == 0
    out2 = tmp_path / "b"
    assert run("verify", "--load", out1 / "pyramid", "--out", out2) == 0
    assert report(out1) == report(out2)
