import json
import re
import warnings

import numpy as np
import pytest
from numpy._core._exceptions import _ArrayMemoryError

import fquant
from fquant import (Codebook, diagnostics, distortion, sample_paths, sgd_run,
                    stationarity_residual)
from fquant.cli import main
from fquant.config import SCHEMA, load_config, parse_config_text
from fquant.errors import ConfigError, FquantError
from fquant.optimize import DEFAULT_MAX_ITERS, default_config_for

BM_CFG = """
[process]
kind = brownian

[space]
m = 96
t_end = 1.0
p = 2.0
d = 1

[quantizer]
n = 4
r = 2.0

[optimizer]
method = lloyd
max_iters = 60
tol = 1e-10

[sample]
n_paths = 1500
seed = 77
"""

BOUNDS_CFG = """
[process]
kind = brownian

[space]
m = 64
t_end = 1.0
p = 2.0
d = 2

[quantizer]
n = 4
r = 2.0

[optimizer]
method = lloyd
max_iters = 50
tol = 1e-9

[sample]
n_paths = 2000
seed = 5

[bounds]
marginal_sizes = 2,2
norm = lp
"""


@pytest.fixture
def bm_config(tmp_path):
    path = tmp_path / "bm.cfg"
    path.write_text(BM_CFG)
    return path


def test_parse_config_text_values():
    sections = parse_config_text("[a]\nx = 1\ny = 2.5\nz = true\nw = hello\n"
                                 "l = 1,2  # trailing comment\n")
    assert sections["a"] == {"x": 1, "y": 2.5, "z": True, "w": "hello", "l": [1, 2]}


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config_text("x = 1\n")           # key outside section
    with pytest.raises(ConfigError):
        parse_config_text("[a]\nnot a pair\n")
    with pytest.raises(ConfigError):
        parse_config_text("[]\n")


def test_load_config_validates(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[process]\nkind = warp_drive\n[space]\nm = 16\n"
                 "[quantizer]\nn = 2\n[sample]\nn_paths = 10\n")
    with pytest.raises(ConfigError):
        load_config(str(p))
    p2 = tmp_path / "bad2.cfg"
    p2.write_text("[mystery]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(p2))


def test_cli_import_loads_neither_the_oracles_nor_scipy(fresh_python):
    # quantize, diagnose and bounds never compile oracles.py; fquant.oracles loads on use
    out = fresh_python(
        "import sys\n"
        "import fquant.cli\n"
        "print(sorted(m for m in sys.modules if m == 'fquant.oracles' or m == 'scipy'\n"
        "             or m.startswith('scipy.')))\n"
        "import fquant\n"
        "print(fquant.oracles.c0_example.__module__, 'oracles' in fquant.__all__)\n"
        "from fquant import oracles\n"
        "import fquant.oracles as direct\n"
        "print(oracles is direct is sys.modules['fquant.oracles'])\n")
    assert out.split("\n") == ["[]", "fquant.oracles True", "True", ""]


def test_print_schema(capsys, tmp_path):
    assert main(["--print-schema"]) == 0
    out = capsys.readouterr().out
    assert "[process]" in out and "[optimizer]" in out
    # the documented schema is itself a valid config
    schema = tmp_path / "schema.cfg"
    schema.write_text(out)
    cfg = load_config(str(schema))
    assert cfg.sections["output"] == {"dir": "out"}


def test_dry_run_writes_nothing(bm_config, tmp_path, capsys):
    out_dir = tmp_path / "results"
    rc = main(["quantize", "--config", str(bm_config), "--out", str(out_dir),
               "--dry-run"])
    assert rc == 0
    assert "config ok" in capsys.readouterr().out
    assert not out_dir.exists()


def test_missing_config_exit_2(capsys):
    rc = main(["quantize", "--config", "/no/such/file.cfg"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("old, new, section", [("p = 2.0", "p = 0.5", "[space]"),
                                               ("p = 2.0", "p = inf", "[space]"),
                                               ("r = 2.0", "r = inf", "[quantizer]"),
                                               ("n = 4", "n = two", "[quantizer]"),
                                               ("kind = brownian", "kind = brownian\nx0 = abc",
                                                "[process]")],
                         ids=["p_half", "p_inf", "r_inf", "n_word", "x0_word"])
def test_bad_space_or_exponent_exit_2(tmp_path, capsys, old, new, section):
    path = tmp_path / "bad.cfg"
    path.write_text(BM_CFG.replace(old, new))
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(path), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    assert record["message"].startswith(section)


@pytest.mark.parametrize("section, line", [("optimizer", "max_iter = 1"),
                                           ("optimizer", "empty_cell_policy = split_largest"),
                                           ("bounds", "cap = 4096")],
                         ids=["typo", "empty_cell_policy", "cap"])
def test_unknown_key_exit_2(tmp_path, capsys, section, line):
    path = tmp_path / "bad.cfg"
    path.write_text(BM_CFG + f"[{section}]\n{line}\n")
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(path), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    assert f"[{section}] {line.split()[0]}" in record["message"]


@pytest.mark.parametrize("line", ["decay = -0.5", "decay = -1e-3", "decay = nan",
                                  "decay = inf", "c0 = inf"],
                         ids=["decay_neg_half", "decay_neg_small", "decay_nan", "decay_inf",
                              "c0_inf"])
def test_bad_sgd_schedule_exit_2(tmp_path, capsys, line):
    # a negative decay can zero the step denominator 1 + decay * k (-0.5 at step 2)
    path = tmp_path / "bad.cfg"
    path.write_text(BM_CFG.replace("p = 2.0", "p = 3.0").replace("r = 2.0", "r = 3.0")
                    .replace("method = lloyd\nmax_iters = 60", f"method = sgd\nmax_iters = 50\n{line}"))
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(path), "--out", str(out)]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    assert record["message"].startswith(f"[optimizer] sgd_{line.split()[0]} must be finite")


@pytest.mark.parametrize("p, r", [(2.0, 2.0), (3.0, 3.0), (2.0, 1.5)])
def test_build_optimizer_defaults_to_default_config_for(tmp_path, p, r):
    path = tmp_path / "q.cfg"
    path.write_text(BM_CFG.replace("p = 2.0", f"p = {p}").replace("r = 2.0", f"r = {r}")
                    .replace("method = lloyd\nmax_iters = 60\ntol = 1e-10\n", ""))
    cfg = load_config(str(path))
    assert cfg.sections["optimizer"] == {}
    assert cfg.build_optimizer(5) == default_config_for(cfg.build_space(), r, 5)


def test_build_optimizer_method_brings_its_max_iters(tmp_path):
    path = tmp_path / "q.cfg"
    path.write_text(BM_CFG.replace("method = lloyd\nmax_iters = 60\n", "method = sgd\n"))
    opt = load_config(str(path)).build_optimizer(5)
    assert (opt.method, opt.max_iters, opt.tol) == ("sgd", DEFAULT_MAX_ITERS["sgd"], 1e-10)


def test_no_config_flag_usage(capsys):
    rc = main(["quantize"])
    assert rc == 2
    assert "usage" in capsys.readouterr().err


def test_quantize_outputs_and_reproducibility(bm_config, tmp_path, capsys):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["quantize", "--config", str(bm_config), "--out", str(out1)]) == 0
    assert main(["quantize", "--config", str(bm_config), "--out", str(out2)]) == 0
    names = {p.name for p in out1.iterdir()}
    assert names == {"codebook.bin", "codebook.csv", "distortion.json",
                     "stationarity.json", "trace.csv", "holder.json",
                     "holder.csv", "manifest.json"}
    for name in sorted(names - {"manifest.json"}):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("created"), m2.pop("created")
    assert m1 == m2
    cfg = load_config(str(bm_config))
    assert m1["config_hash"] == cfg.config_hash
    # every JSON/CSV result cross-references the config hash
    for name in ("distortion.json", "stationarity.json", "holder.json"):
        assert json.loads((out1 / name).read_text())["config_hash"] == cfg.config_hash
    for name in ("codebook.csv", "trace.csv", "holder.csv"):
        assert (out1 / name).read_text().startswith(f"# config_hash={cfg.config_hash}")
    # the n=8 -> n=1 oracle comparison: optimized n=4 beats the n=1 optimum
    from fquant.oracles import closed_form_errors
    assert m1["distortion"] < closed_form_errors("brownian", 1, 2, 2) ** 2


SGD_P3_CFG = """
[process]
kind = brownian

[space]
m = 33
t_end = 1.0
p = 3.0
d = 1

[quantizer]
n = 3
r = 3.0

[optimizer]
method = sgd
max_iters = 200
tol = 1e-9
c0 = 0.01

[sample]
n_paths = 300
seed = 11
"""


@pytest.mark.parametrize("text", [BM_CFG, SGD_P3_CFG], ids=["lloyd_p2", "sgd_p3"])
def test_quantize_reports_match_public_functions(tmp_path, text, capsys):
    # the reports share one distance pass; they must equal the public calls
    path = tmp_path / "q.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(path), "--out", str(out)]) == 0
    cfg = load_config(str(path))
    space = cfg.build_space()
    codebook = Codebook.from_binary((out / "codebook.bin").read_bytes(), space)
    sample = sample_paths(cfg.build_process_spec(), space, cfg.n_paths, cfg.seed)
    for name, rep in (("distortion.json", distortion(codebook, sample, cfg.r)),
                      ("stationarity.json", stationarity_residual(codebook, sample, cfg.r))):
        written = json.loads((out / name).read_text())
        assert written.pop("config_hash") == cfg.config_hash
        assert written == json.loads(rep.to_json()), name


def test_quantize_without_method_runs_sgd_at_p3(tmp_path, capsys):
    # no method at p = r = 3: default_config_for picks SGD, as an explicit sgd would
    outs = []
    for name, text in (("sgd", SGD_P3_CFG), ("default", SGD_P3_CFG.replace("method = sgd\n", ""))):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        outs.append(tmp_path / name)
        assert main(["quantize", "--config", str(path), "--out", str(outs[-1])]) == 0
    assert (outs[0] / "codebook.bin").read_bytes() == (outs[1] / "codebook.bin").read_bytes()


def test_quantize_seed_override_changes_results(bm_config, tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["quantize", "--config", str(bm_config), "--out", str(out1)]) == 0
    assert main(["quantize", "--config", str(bm_config), "--out", str(out2),
                 "--seed", "1234"]) == 0
    assert (out1 / "codebook.bin").read_bytes() != (out2 / "codebook.bin").read_bytes()


def test_oracle_single_selection(tmp_path, capsys):
    out = tmp_path / "oracle"
    rc = main(["oracle", "c0", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "oracle_manifest.json").read_text())
    assert manifest["selection"] == ["c0"]
    assert manifest["all_passed"]
    assert manifest["values"]["c0"]["value_at_candidate"] == pytest.approx(0.5, abs=1e-12)


def test_oracle_sharp_ratio(tmp_path):
    out = tmp_path / "oracle"
    rc = main(["oracle", "sharp2", "--m", "10", "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "oracle_manifest.json").read_text())
    assert manifest["values"]["sharp2"]["ratios"]["10"] == pytest.approx(1.8, abs=1e-9)


def test_oracle_all_lp_values_certified(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert main(["oracle", "--all", "--m", "10", "--out", str(out)]) == 0
    manifest = json.loads((out / "oracle_manifest.json").read_text())
    names = [c["name"] for c in manifest["checks"]]
    assert not [n for n in names if "subgradient" in n]
    # one certificate per LP-backed value: c0, the l1 plane and full space, each sharp2[m]
    expected = (["c0.center_lp_certificate", "l1.plane_lp_certificate", "l1.full_lp_certificate"]
                + [f"sharp2.subspace_lp_certificate[m={m}]" for m in range(2, 11)])
    certs = [c for c in manifest["checks"] if "lp_certificate" in c["name"]]
    assert sorted(c["name"] for c in certs) == sorted(expected)
    assert max(c["value"] for c in certs) <= 1e-12
    assert manifest["all_passed"]


@pytest.mark.parametrize("argv", [["sharp2", "--m", "1"], ["sharp2", "--m", "0"],
                                  ["sharp2", "--m", "-3"], ["--all", "--m", "1"],
                                  ["c0", "sharp2", "--m", "1"]])
def test_oracle_sharp2_without_support_exit_2(tmp_path, capsys, argv):
    # sharp2 checks m = 2..--m; below 2 it would pass with no check at all
    out = tmp_path / "oracle"
    assert main(["oracle", *argv, "--out", str(out)]) == 2
    assert [f.name for f in out.iterdir()] == ["error.json"]
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "oracle"
    assert record["message"] == f"--m must be >= 2 for sharp2, got {argv[-1]}"
    assert "PASS" not in capsys.readouterr().out


def test_oracle_m_unused_without_sharp2(tmp_path, capsys):
    out = tmp_path / "oracle"
    assert main(["oracle", "c0", "--m", "1", "--out", str(out)]) == 0
    assert json.loads((out / "oracle_manifest.json").read_text())["all_passed"]


def test_oracle_unknown_selection(tmp_path, capsys):
    rc = main(["oracle", "riemann", "--out", str(tmp_path / "x")])
    assert rc == 2


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


# numpy's own MemoryError subclass, as np.zeros((11858, 6005)) raises it when the
# sharp2 LP at m = 77 cannot be allocated; made here without allocating anything
ARRAY_MEMORY_ERROR = _ArrayMemoryError((11858, 6005), np.dtype(np.float64))


@pytest.mark.parametrize("exc", [MemoryError("out of memory"), ARRAY_MEMORY_ERROR],
                         ids=["MemoryError", "numpy"])
@pytest.mark.parametrize("command", ["oracle", "quantize"])
def test_failed_allocation_exit_3_with_error_record(bm_config, tmp_path, capsys, monkeypatch,
                                                    command, exc):
    # an allocation that fails mid-run exits 3 and names its stage, as the docstring promises
    if command == "oracle":
        monkeypatch.setattr(fquant.oracles, "sharp_constant_examples", _raise(exc))
        argv = ["oracle", "sharp2", "--m", "3"]
    else:
        monkeypatch.setattr("fquant.cli.sample_paths", _raise(exc))
        argv = ["quantize", "--config", str(bm_config)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 3
    assert [f.name for f in out.iterdir()] == ["error.json"]
    assert json.loads((out / "error.json").read_text()) == {
        "error": type(exc).__name__, "stage": command, "message": str(exc)}
    assert "PASS" not in capsys.readouterr().out


def test_bounds_requires_multidimensional(bm_config, tmp_path, capsys):
    rc = main(["bounds", "--config", str(bm_config), "--out", str(tmp_path / "b")])
    assert rc == 2
    record = json.loads((tmp_path / "b" / "error.json").read_text())
    assert "d >= 2" in record["message"]


def _bounds_holds(tmp_path, norm):
    cfg = tmp_path / "b.cfg"
    cfg.write_text(BOUNDS_CFG.replace("norm = lp", f"norm = {norm}"))
    out = tmp_path / "bounds_out"
    rc = main(["bounds", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "bounds.json").read_text())
    assert rep["norm"] == norm
    assert rep["holds"]
    assert rep["lower"] <= rep["joint"] + 3 * rep["sigma_joint"] + 3 * rep["sigma_lower"]


def test_bounds_lp_holds(tmp_path):
    _bounds_holds(tmp_path, "lp")


def test_bounds_sup_holds(tmp_path):
    _bounds_holds(tmp_path, "sup")


MARGINAL_CASES = [(command, sizes) for command in ("bounds", "quantize")
                  for sizes in ("a,b", "0,4", "-1,2")]


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
@pytest.mark.parametrize("command, sizes", MARGINAL_CASES,
                         ids=[s if c == "bounds" else f"{c}-{s}" for c, s in MARGINAL_CASES])
def test_bad_marginal_sizes_exit_2(tmp_path, capsys, command, sizes, dry_run):
    # checked at load, so quantize, which never reads them, refuses them as bounds does
    cfg = tmp_path / "b.cfg"
    cfg.write_text(BOUNDS_CFG.replace("marginal_sizes = 2,2", f"marginal_sizes = {sizes}"))
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg), "--out", str(out)] + ["--dry-run"] * dry_run
    assert main(argv) == 2
    assert "config ok" not in capsys.readouterr().out
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError"
    assert record["message"].startswith("[bounds] marginal_sizes")
    assert not (out / "bounds.json").exists()


def test_unknown_jump_law_exit_2(tmp_path, capsys):
    path = tmp_path / "cp.cfg"
    path.write_text(BM_CFG.replace("kind = brownian", "kind = compound_poisson\nlam = 2.0\n"
                                   "jump_law = foo"))
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(path), "--out", str(out), "--dry-run"]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    assert record["message"].startswith("[process]") and "foo" in record["message"]
    with pytest.raises(ConfigError, match=r"^\[process\]"):
        load_config(str(path))


def test_quantize_cold_start_loads_no_scipy(tmp_path, fresh_python):
    # scipy is for the oracle LPs alone; a quantize run must not pay its import
    tiny = (BM_CFG.replace("m = 96", "m = 16").replace("n = 4", "n = 2")
            .replace("n_paths = 1500", "n_paths = 200"))
    (tmp_path / "tiny.cfg").write_text(tiny)
    out = fresh_python(
        "import sys\n"
        "import fquant, fquant.cli\n"
        "rc = fquant.cli.main(['quantize', '--config', 'tiny.cfg', '--out', 'q'])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert out.splitlines()[-1] == "0 []"
    assert (tmp_path / "q" / "codebook.bin").is_file()


def test_every_export_resolves():
    # a stale name in __all__ breaks `from fquant import *`
    namespace = {}
    exec("from fquant import *", namespace)
    assert [name for name in fquant.__all__ if name not in namespace] == []


def test_diagnose_roundtrip(bm_config, tmp_path):
    out = tmp_path / "q"
    assert main(["quantize", "--config", str(bm_config), "--out", str(out)]) == 0
    out2 = tmp_path / "d"
    rc = main(["diagnose", "--config", str(bm_config),
               "--codebook", str(out / "codebook.bin"), "--out", str(out2)])
    assert rc == 0
    stat = json.loads((out2 / "stationarity.json").read_text())
    assert stat["max_residual"] < 1e-8


def _edited(text: str, edits: dict) -> str:
    for old, new in edits.items():
        assert old in text, old
        text = text.replace(old, new)
    return text


D2 = {"\nd = 1\n": "\nd = 2\n"}


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
@pytest.mark.parametrize("edits, section", [
    ({"p = 2.0": "p = 3.0", "r = 2.0": "r = 3.0"}, "[optimizer]"),
    ({"r = 2.0": "r = 1.5"}, "[optimizer]"),
    ({"p = 2.0": "p = 1.0", "method = lloyd\n": ""}, "[optimizer]"),
    ({"p = 2.0": "p = 1.0", "method = lloyd": "method = sgd"}, "[optimizer]"),
    ({"kind = brownian": "kind = gamma\na = 1.0", **D2}, "[process]"),
    ({"kind = brownian": "kind = compound_poisson\nlam = 2.0", **D2}, "[process]"),
    ({"kind = brownian": "kind = stable_levy\nrho = 1.5", **D2}, "[process]"),
    ({"tol = 1e-10": "tol = 1e400"}, "[optimizer] tol must be finite and > 0"),
    ({"kind = brownian": "kind = brownian\nx0 = 1e400"}, "[process] x0 must be finite"),
], ids=["lloyd_p3_r3", "lloyd_r1.5", "p1_no_method", "sgd_p1", "gamma_d2",
        "compound_poisson_d2", "stable_levy_d2", "tol_inf", "x0_inf"])
def test_config_that_cannot_run_exit_2(tmp_path, capsys, edits, section, dry_run):
    # rejected before anything is sampled, by the rules the run itself applies
    path = tmp_path / "bad.cfg"
    path.write_text(_edited(BM_CFG, edits))
    out = tmp_path / "out"
    argv = ["quantize", "--config", str(path), "--out", str(out)] + ["--dry-run"] * dry_run
    assert main(argv) == 2
    assert "config ok" not in capsys.readouterr().out
    assert [f.name for f in out.iterdir()] == ["error.json"]
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["message"].startswith(section)


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
@pytest.mark.parametrize("command, text", [("quantize", BM_CFG), ("bounds", BOUNDS_CFG)],
                         ids=["quantize", "bounds"])
def test_more_atoms_than_paths_exit_2(tmp_path, capsys, command, text, dry_run):
    # n = 4 atoms on 3 paths would leave a cell empty
    path = tmp_path / "bad.cfg"
    path.write_text(re.sub(r"n_paths = \d+", "n_paths = 3", text))
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)] + ["--dry-run"] * dry_run
    assert main(argv) == 2
    assert "config ok" not in capsys.readouterr().out
    assert [f.name for f in out.iterdir()] == ["error.json"]
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == command
    assert record["message"] == "[quantizer] n = 4 exceeds [sample] n_paths = 3"


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
@pytest.mark.parametrize("command, text", [("quantize", BM_CFG + "[bounds]\nnorm = lp\n"),
                                           ("bounds", BOUNDS_CFG)], ids=["quantize", "bounds"])
def test_unknown_bounds_norm_exit_2(tmp_path, capsys, command, text, dry_run):
    # [bounds] norm is checked once, at load, so quantize refuses it as bounds does
    path = tmp_path / "bad.cfg"
    path.write_text(text.replace("norm = lp", "norm = foo"))
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)] + ["--dry-run"] * dry_run
    assert main(argv) == 2
    assert "config ok" not in capsys.readouterr().out
    assert [f.name for f in out.iterdir()] == ["error.json"]
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    assert record["message"] == "[bounds] norm must be 'lp' or 'sup', got 'foo'"


@pytest.mark.parametrize("norm, config_hash", [("lp", "4ca9c4f52b6a5423"),
                                               ("sup", "bf9e49ef632a325c")])
def test_bounds_norm_keeps_config_hash(tmp_path, norm, config_hash):
    path = tmp_path / "b.cfg"
    path.write_text(BOUNDS_CFG.replace("norm = lp", f"norm = {norm}"))
    assert load_config(str(path)).config_hash == config_hash


def test_quantize_runs_the_stationarity_kernel_once(bm_config, tmp_path, monkeypatch):
    # Lloyd's splitting stages build no residual; the final report and trace.csv share one
    calls = []
    means = diagnostics._integrand_means
    monkeypatch.setattr(diagnostics, "_integrand_means",
                        lambda vor, r: calls.append(vor.codebook) or means(vor, r))
    out = tmp_path / "q"
    assert main(["quantize", "--config", str(bm_config), "--out", str(out)]) == 0
    assert len(calls) == 1
    space = load_config(str(bm_config)).build_space()
    saved = Codebook.from_binary((out / "codebook.bin").read_bytes(), space)
    np.testing.assert_array_equal(calls[0].values, saved.values)


def test_diagnose_takes_more_atoms_than_paths(tmp_path, capsys):
    # diagnose scores a saved codebook; [quantizer] n does not size it
    path = tmp_path / "few.cfg"
    path.write_text(BM_CFG.replace("n_paths = 1500", "n_paths = 3"))
    space = load_config(str(path)).build_space()
    saved = tmp_path / "cb.bin"
    saved.write_bytes(Codebook(space=space, values=np.arange(4.0)[:, None, None] + np.zeros(space.shape)).to_binary())
    assert main(["diagnose", "--config", str(path), "--codebook", str(saved),
                 "--out", str(tmp_path / "d"), "--dry-run"]) == 0
    assert "config ok: diagnose 4 atoms" in capsys.readouterr().out


def test_diagnose_runs_at_p1(bm_config, tmp_path, capsys):
    # diagnose runs no optimizer, so no method rule applies to it
    out = tmp_path / "q"
    assert main(["quantize", "--config", str(bm_config), "--out", str(out)]) == 0
    path = tmp_path / "p1.cfg"
    path.write_text(_edited(BM_CFG, {"p = 2.0": "p = 1.0", "method = lloyd\n": ""}))
    assert main(["diagnose", "--config", str(path), "--codebook", str(out / "codebook.bin"),
                 "--out", str(tmp_path / "d")]) == 0


@pytest.mark.parametrize("norm, rc", [("lp", 0), ("sup", 2)])
def test_bounds_method_checked_at_its_exponent(tmp_path, capsys, norm, rc):
    # the sandwich optimizes at p under norm = lp, and at r under norm = sup
    path = tmp_path / "b.cfg"
    path.write_text(_edited(BOUNDS_CFG, {"r = 2.0": "r = 1.5", "norm = lp": f"norm = {norm}"}))
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(path), "--out", str(out), "--dry-run"]) == rc
    if rc:
        assert json.loads((out / "error.json").read_text())["message"].startswith("[optimizer]")
    else:
        assert "config ok" in capsys.readouterr().out


@pytest.mark.parametrize("old, new", [("n = 4", "n = 2.7"), ("n = 4", "n = true"),
                                      ("n_paths = 1500", "n_paths = 300.9"),
                                      ("seed = 77", "seed = 1.5"), ("m = 96", "m = 64.9"),
                                      ("\nd = 1\n", "\nd = 1.0\n"),
                                      ("max_iters = 60", "max_iters = 2.0")],
                         ids=["n_float", "n_bool", "n_paths_float", "seed_float", "m_float",
                              "d_integral_float", "max_iters_integral_float"])
def test_integer_key_takes_only_an_integer(tmp_path, capsys, old, new):
    section = {"n": "quantizer", "n_paths": "sample", "seed": "sample", "m": "space",
               "d": "space", "max_iters": "optimizer"}[old.split()[0]]
    path = tmp_path / "bad.cfg"
    path.write_text(BM_CFG.replace(old, new))
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(path), "--out", str(out), "--dry-run"]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    assert record["message"].startswith(f"[{section}] {new.split()[0]} = ")
    assert record["message"].count("[") == 1


@pytest.mark.parametrize("old, new", [("t_end = 1.0", "t_end = true"), ("p = 2.0", "p = false"),
                                      ("r = 2.0", "r = true"), ("tol = 1e-10", "tol = true"),
                                      ("tol = 1e-10", "c0 = true"),
                                      ("tol = 1e-10", "decay = false"),
                                      ("kind = brownian", "kind = brownian\nx0 = true"),
                                      ("kind = brownian", "kind = ou\nc = true")],
                         ids=["t_end", "p", "r", "tol", "c0", "decay", "x0", "ou_c"])
def test_real_key_rejects_a_boolean(tmp_path, capsys, old, new):
    key, value = new.split("\n")[-1].split(" = ")
    section = {"t_end": "space", "p": "space", "r": "quantizer", "x0": "process",
               "c": "process"}.get(key, "optimizer")
    path = tmp_path / "bad.cfg"
    path.write_text(BM_CFG.replace(old, new))
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(path), "--out", str(out), "--dry-run"]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    assert record["message"] == f"[{section}] {key} = {value}: must be a real number"


def test_only_the_kinds_own_parameter_is_read_as_real(tmp_path, capsys):
    # a stray parameter of another kind is not read; the kind's own is, whatever else is set
    for name, kind, code in [("stray", "brownian\nH = true", 0),
                             ("own", "ou\nH = true\nc = true", 2)]:
        path = tmp_path / f"{name}.cfg"
        path.write_text(BM_CFG.replace("kind = brownian", f"kind = {kind}"))
        out = tmp_path / name
        assert main(["quantize", "--config", str(path), "--out", str(out), "--dry-run"]) == code
    message = json.loads((out / "error.json").read_text())["message"]
    assert message == "[process] c = true: must be a real number"


def test_measure_rate_must_be_a_number(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BM_CFG.replace("\nd = 1\n", "\nd = 1\nmeasure = exp:true\n"))
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(path), "--out", str(out), "--dry-run"]) == 2
    message = json.loads((out / "error.json").read_text())["message"]
    assert message.startswith("[space] measure = 'true': ") and message.count("[") == 1


@pytest.mark.parametrize("rate", ["1e400", "-1e400", "inf", "nan"])
def test_measure_rate_must_be_finite(tmp_path, capsys, rate):
    # refused at load by name, before e^{-b t} is taken: no RuntimeWarning on the way
    path = tmp_path / "bad.cfg"
    path.write_text(BM_CFG.replace("\nd = 1\n", f"\nd = 1\nmeasure = exp:{rate}\n"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["quantize", "--config", str(path), "--out", str(out), "--dry-run"]) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    assert record["message"].startswith(f"[space] measure = 'exp:{rate}': ")


def _dry_run_rate(tmp_path, capsys, rate, text=None):
    """Exit code and stdout of quantize --dry-run at measure = exp:<rate>, m = 17 and
    t_end = 1, with warnings as errors; `text`, when given, is the config file instead."""
    path = tmp_path / "rate.cfg"
    path.write_text(text if text is not None else BM_CFG.replace("m = 96", "m = 17")
                    .replace("\nd = 1\n", f"\nd = 1\nmeasure = exp:{rate}\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["quantize", "--config", str(path), "--out", str(tmp_path / "out"),
                     "--dry-run"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("rate", ["-1000", "800", "745.2"])
def test_measure_rate_whose_weights_leave_the_float_range(tmp_path, capsys, rate):
    # e^{-b t} overflows on [0, 1] at exp:-1000, and the weight at t = 1 underflows to 0 at
    # exp:800 and exp:745.2: refused by name at load, before np.exp, so no RuntimeWarning
    assert _dry_run_rate(tmp_path, capsys, rate)[0] == 2
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    assert record["message"].startswith(f"[space] measure = 'exp:{rate}': ")


# the hash of each near-range rate's file from _dry_run_rate
_NEAR_RANGE_HASHES = {"740": "ebe8371b21507d43", "-709.7": "6fb7fa9621871677",
                      "0.5": "741cbdc6914d834a"}


@pytest.mark.parametrize("rate, config_hash", [("740", "9d32c5d0c82da3a4"),
                                               ("-709.7", "c46a8305a3587a64"),
                                               ("0.5", "887d72724243aa08")])
def test_measure_rate_near_the_float_range_loads(tmp_path, capsys, rate, config_hash):
    # the last rates whose weights are finite and > 0 still load, under their old hash.
    # config_hash is that of the file these cases first wrote: replacing "d = 1" also hit
    # "t_end = 1.0", giving t_end = 1 and a measure = exp:<rate>.0 line that the later
    # measure line overrides. That file keeps its hash too.
    code, out = _dry_run_rate(tmp_path, capsys, rate)
    assert code == 0 and f"hash={_NEAR_RANGE_HASHES[rate]} " in out
    first = BM_CFG.replace("m = 96", "m = 17").replace("d = 1", f"d = 1\nmeasure = exp:{rate}")
    assert "t_end = 1\nmeasure = " in first
    code, out = _dry_run_rate(tmp_path, capsys, rate, first)
    assert code == 0 and f"hash={config_hash} " in out


def _peak_node_config(tmp_path, t_end):
    # b < 0 and dt = t_end / 2364 > 1: the largest weight, dt e^{0.1 t}, is at the node
    # before t_end, twice the end node's mass at e^{-0.1 dt} its density
    path = tmp_path / "peak.cfg"
    path.write_text(BM_CFG.replace("m = 96", "m = 2365").replace("t_end = 1.0", f"t_end = {t_end}")
                    .replace("\nd = 1\n", "\nd = 1\nmeasure = exp:-0.1\n"))
    return path


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
def test_measure_weight_before_t_end_leaves_the_float_range(tmp_path, capsys, dry_run):
    # at t_end = 7092 that weight overflows while the one at t_end stays finite: refused
    # by name at load, with no RuntimeWarning on the way
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["quantize", "--config", str(_peak_node_config(tmp_path, 7092)), "--out",
                     str(out)] + ["--dry-run"] * dry_run) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    assert record["message"] == "[space] measure = 'exp:-0.1': weights must be finite, > 0"
    assert not (out / "codebook.bin").exists()


def test_measure_weight_before_t_end_near_the_float_range_loads(tmp_path, capsys):
    # t_end = 7089 keeps every weight finite, and its old hash
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["quantize", "--config", str(_peak_node_config(tmp_path, 7089)), "--out",
                     str(tmp_path / "out"), "--dry-run"]) == 0
    assert "config ok: hash=22d2193416af1ba9 " in capsys.readouterr().out


def test_quoted_value_keeps_its_commas(tmp_path, capsys):
    sections = parse_config_text("[a]\nq = \"a, b\"\ns = 'x,y'\nl = a, b\nw = \"a\", \"b\"\n")
    assert sections["a"] == {"q": "a, b", "s": "x,y", "l": ["a", "b"], "w": ["a", "b"]}
    path = tmp_path / "q.cfg"
    path.write_text(BM_CFG + '[output]\ndir = "a, b"\n')
    assert load_config(str(path)).values["output"]["dir"] == "a, b"


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
@pytest.mark.parametrize("value", ["a, b", "true"], ids=["list", "bool"])
def test_output_dir_takes_one_word(tmp_path, monkeypatch, capsys, value, dry_run):
    # a list would be written into a directory named "['a', 'b']"
    (tmp_path / "q.cfg").write_text(BM_CFG + f"[output]\ndir = {value}\n")
    monkeypatch.chdir(tmp_path)
    assert main(["quantize", "--config", "q.cfg"] + ["--dry-run"] * dry_run) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    assert record["message"].startswith("[output] dir = ")
    assert [f.name for f in tmp_path.iterdir()] == ["q.cfg"]


OWN_KIND = {"H": "fbm", "c": "ou", "a": "gamma", "lam": "compound_poisson",
            "jump_law": "compound_poisson", "rho": "stable_levy"}


def _bad_values(example) -> list[str]:
    """A boolean, an overflowing real, and a wrong shape: a list for a scalar key, a word
    for a numeric one."""
    return (["true", "1e400"] + ["1, 2"] * (not isinstance(example, list))
            + ["abc"] * (not isinstance(example, str)))


SCHEMA_CASES = [(section, key, bad) for section, keys in parse_config_text(SCHEMA).items()
                for key, example in keys.items() for bad in _bad_values(example)]


@pytest.mark.parametrize("section, key, bad", SCHEMA_CASES,
                         ids=[f"{s}.{k}={b}" for s, k, b in SCHEMA_CASES])
def test_every_schema_key_refuses_a_bad_value(tmp_path, capsys, section, key, bad):
    # each key is converted and checked at load; a kind's parameter under its own kind
    kind = f"kind = {OWN_KIND[key]}\n" if key in OWN_KIND else ""
    path = tmp_path / "bad.cfg"
    path.write_text(BM_CFG + f"[{section}]\n{kind}{key} = {bad}\n")
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(path), "--out", str(out), "--dry-run"]) == 2
    assert "config ok" not in capsys.readouterr().out
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    # c0 and decay are named as OptimizerConfig names them, sgd_c0 and sgd_decay
    assert re.match(rf"\[{section}\] (sgd_)?{key} ", record["message"]), record["message"]


def test_short_codebook_exit_3(bm_config, tmp_path, capsys):
    short = tmp_path / "short.bin"
    short.write_bytes(b"xx")
    out = tmp_path / "d"
    assert main(["diagnose", "--config", str(bm_config), "--codebook", str(short),
                 "--out", str(out)]) == 3
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "FquantError" and record["stage"] == "diagnose"


def test_oracle_unwritable_out_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["oracle", "c0", "--out", str(blocker / "sub")]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["stage"] == "oracle"


def test_python_m_fquant_entry_point(tmp_path, fresh_python):
    (tmp_path / "file").write_text("")
    out = fresh_python(
        "import subprocess, sys\n"
        "for argv in (['--print-schema'], ['oracle', 'c0', '--out', 'file/sub']):\n"
        "    done = subprocess.run([sys.executable, '-m', 'fquant', *argv],\n"
        "                          capture_output=True, text=True)\n"
        "    print(done.returncode, done.stderr.strip().splitlines()[-1:])\n")
    schema, oracle = out.splitlines()
    assert schema == "0 []"
    code, err = oracle.split(" ", 1)
    assert code == "2" and '"stage": "oracle"' in err


@pytest.mark.parametrize("p, r", [(2.0, 2.0), (3.0, 3.0), (3.0, 2.0), (2.5, 1.5)])
def test_every_consumer_has_a_residual_exactly_where_r_is_at_least_p(tmp_path, capsys, p, r):
    # diagnostics._residuals alone says where the residual exists; each consumer follows it
    path = tmp_path / "q.cfg"
    path.write_text(_edited(SGD_P3_CFG, {"p = 3.0": f"p = {p}", "r = 3.0": f"r = {r}"}))
    cfg = load_config(str(path))
    space = cfg.build_space()
    sample = sample_paths(cfg.build_process_spec(), space, cfg.n_paths, cfg.seed)
    init = Codebook(space=space, values=sample.values[:3].copy())
    cb, trace = sgd_run(cfg.build_optimizer(cfg.seed), init, sample, r)
    residual = diagnostics.pass_scores(cb, sample, r)[2]
    quantized, diagnosed = tmp_path / "q", tmp_path / "d"
    assert main(["quantize", "--config", str(path), "--out", str(quantized)]) == 0
    assert main(["diagnose", "--config", str(path), "--codebook",
                 str(quantized / "codebook.bin"), "--out", str(diagnosed)]) == 0
    last = (quantized / "trace.csv").read_text().splitlines()[-1].split(",")[-1]
    if r < p:
        with pytest.raises(FquantError, match=rf"needs p <= r < inf, got r={r}, p={p}$"):
            stationarity_residual(cb, sample, r)
        assert np.isnan(residual) and trace.final_stationarity is None and last == "nan"
        assert not (quantized / "stationarity.json").exists()
        assert not (diagnosed / "stationarity.json").exists()
    else:
        stat = stationarity_residual(cb, sample, r)
        assert residual == stat.max_residual
        assert trace.final_stationarity.to_json() == stat.to_json()
        written = json.loads((quantized / "stationarity.json").read_text())
        assert float(last) == written["max_residual"]
        assert (diagnosed / "stationarity.json").read_bytes() == (
            quantized / "stationarity.json").read_bytes()


@pytest.mark.parametrize("command, text", [("quantize", BM_CFG), ("quantize", SGD_P3_CFG),
                                           ("diagnose", BM_CFG), ("bounds", BOUNDS_CFG)],
                         ids=["quantize_m96", "quantize_m33", "diagnose", "bounds"])
def test_manifest_lists_every_file_the_run_wrote(tmp_path, capsys, command, text):
    # quantize at m < 64 writes no Hoelder files, and its manifest lists none
    path = tmp_path / "c.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command == "diagnose":
        space = load_config(str(path)).build_space()
        saved = tmp_path / "cb.bin"
        levels = np.array([-1.0, 0.25, 1.5])[:, None, None]
        saved.write_bytes(Codebook(space=space, values=levels * np.sqrt(space.grid)).to_binary())
        argv += ["--codebook", str(saved)]
    assert main(argv) == 0
    files = json.loads((out / "manifest.json").read_text())["files"]
    assert files == sorted(f.name for f in out.iterdir() if f.name != "manifest.json")
    assert ("holder.json" in files) == (command != "bounds" and "m = 96" in text)


def _refuse(constant):
    raise ValueError(f"not RFC 8259 JSON: {constant}")


def _constant_atoms(tmp_path, space) -> str:
    """A codebook file of the constant paths 0 and 1 on space."""
    saved = tmp_path / "const.bin"
    saved.write_bytes(Codebook(space=space, values=np.arange(2.0)[:, None, None]
                               + np.zeros(space.shape)).to_binary())
    return str(saved)


def test_every_json_file_is_rfc_8259(bm_config, tmp_path, capsys):
    # no file holds Infinity, -Infinity or NaN, which RFC 8259 has no token for
    bounds = tmp_path / "b.cfg"
    bounds.write_text(BOUNDS_CFG)
    space = load_config(str(bm_config)).build_space()
    runs = {"q": ["quantize", "--config", str(bm_config)],
            "d": ["diagnose", "--config", str(bm_config), "--codebook",
                  str(tmp_path / "q" / "codebook.bin")],
            "c": ["diagnose", "--config", str(bm_config), "--codebook",
                  _constant_atoms(tmp_path, space)],
            "b": ["bounds", "--config", str(bounds)],
            "o": ["oracle", "--all"],
            "e": ["diagnose", "--config", str(bm_config), "--codebook", str(bm_config)]}
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == (3 if name == "e" else 0)
    files = sorted(tmp_path.glob("?/*.json"))
    assert {f.parent.name for f in files} == set(runs)
    assert (tmp_path / "e" / "error.json") in files and (tmp_path / "c" / "holder.json") in files
    for f in files:
        json.loads(f.read_text(), parse_constant=_refuse)


def test_diagnose_constant_atoms_writes_null_flags(tmp_path, capsys):
    # holder_fit flags an atom constant on some lag window with beta = +inf and
    # intercept = -inf; the file holds them as null
    path = tmp_path / "c.cfg"
    path.write_text(BM_CFG.replace("m = 96", "m = 65"))
    out = tmp_path / "d"
    codebook = _constant_atoms(tmp_path, load_config(str(path)).build_space())
    assert main(["diagnose", "--config", str(path), "--codebook", codebook,
                 "--out", str(out)]) == 0
    text = (out / "holder.json").read_text()
    assert '"beta": [[null], [null]]' in text and '"intercept": [[null], [null]]' in text
    fit = json.loads(text, parse_constant=_refuse)
    assert fit["r_squared"] == [[0.0], [0.0]]


STABLE_CFG = _edited(BM_CFG, {"kind = brownian": "kind = stable_levy\nrho = 0.01",
                              "m = 96": "m = 64", "n_paths = 1500": "n_paths = 500",
                              "seed = 77": "seed = 1"})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the sampler's overflow
@pytest.mark.parametrize("command", ["quantize", "diagnose"])
def test_non_finite_sample_exit_3(tmp_path, capsys, command):
    # stable_levy at rho = 0.01 draws increments past the float range: the sample is refused
    # by name, not left to land in a cell that does not exist
    path = tmp_path / "s.cfg"
    path.write_text(STABLE_CFG)
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command == "diagnose":
        argv += ["--codebook", _constant_atoms(tmp_path, load_config(str(path)).build_space())]
    assert main(argv) == 3
    record = json.loads((out / "error.json").read_text())
    assert record == {"error": "FquantError", "stage": command,
                      "message": "sample values must be finite"}


@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry_run"])
def test_unknown_process_kind_exit_2(tmp_path, capsys, dry_run):
    path = tmp_path / "k.cfg"
    path.write_text(BM_CFG.replace("kind = brownian", "kind = riemann"))
    out = tmp_path / "out"
    assert main(["quantize", "--config", str(path), "--out", str(out)]
                + ["--dry-run"] * dry_run) == 2
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ConfigError" and record["stage"] == "config"
    assert record["message"] == (f"[process] unknown process kind 'riemann'; "
                                 f"known: {fquant.process_sim.KINDS}")


@pytest.mark.parametrize("rate", ["0", "0.5", "-0.1", "700", "-709.7"])
def test_build_space_weights_are_exp_weighted_space_bit_for_bit(tmp_path, rate):
    path = tmp_path / "w.cfg"
    path.write_text(BM_CFG.replace("\nd = 1\n", f"\nd = 2\nmeasure = exp:{rate}\n"))
    space = load_config(str(path)).build_space()
    want = fquant.exp_weighted_space(1.0, 96, b=float(rate), p=2.0, d=2)
    assert (space.p, space.d) == (want.p, want.d)
    np.testing.assert_array_equal(space.grid, want.grid)
    assert space.weights.tobytes() == want.weights.tobytes()
