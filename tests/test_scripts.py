"""Smoke tests of the example scripts: they run end to end on small inputs."""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fquant import Codebook, ProcessSpec
from fquant.cli import main

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
CONFIG_COMMANDS = {"bm_n8.cfg": "quantize", "bm2d_bounds.cfg": "bounds"}


@pytest.mark.parametrize("config", sorted((SCRIPTS / "configs").glob("*.cfg")),
                         ids=lambda path: path.name)
def test_shipped_config_passes_dry_run(config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([CONFIG_COMMANDS[config.name], "--config", str(config), "--out", str(out),
                 "--dry-run"]) == 0
    assert "config ok" in capsys.readouterr().out
    assert not out.exists()


def test_run_brownian_quantizer():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(SCRIPTS / "run_brownian_quantizer.py"),
                           "--n", "3", "--paths", "300", "--m", "64"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["n", "quant_error", "stderr"]
    assert [line.split()[0] for line in lines[1:4]] == ["1", "2", "3"]
    assert any(line.startswith("final n=3: max stationarity residual") for line in lines)
    assert any(line.startswith("pinning |a(0)|") for line in lines)
    assert any(line.startswith("holder exponents per atom") for line in lines)


def test_run_regularity_sweep(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_regularity_sweep",
                                                  SCRIPTS / "run_regularity_sweep.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "CASES", {"brownian": (ProcessSpec("brownian"), 129, 200, 4, 8)})
    monkeypatch.setattr(sys, "argv", ["run_regularity_sweep.py"])
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("brownian  n=4   lags [dt, 8dt]  beta in [")


def test_same_outputs(tmp_path, monkeypatch, capsys):
    # one tree on both sides is the same; a tree whose schema, dry-run line or manifest
    # reads otherwise is not
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPTS / "same_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    bench = script._bench_run()
    monkeypatch.setattr(bench, "SIZES", {name: dict(size, inputs=1, n_paths=120)
                                         for name, size in bench.SIZES.items()})
    monkeypatch.setattr(script, "_bench_run", lambda: bench)
    assert script.main([str(ROOT), str(ROOT)]) == 0
    assert capsys.readouterr().out.splitlines() == ["81 files compared, 0 differences"]
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = other / "src" / "fquant" / "cli.py"
    cli.write_text(cli.read_text().replace('"exit_reason": trace.exit_reason,',
                                           '"exit_reason": trace.exit_reason + "!",')
                   .replace('print(f"config ok: hash=', 'print(f"config ok: hash=!')
                   .replace('"codebook": str(codebook_path)', '"codebook": "!"')
                   .replace('{"holds": report["holds"]}', '{"holds": "!"}'))
    config = other / "src" / "fquant" / "config.py"
    config.write_text(config.read_text().replace("# fquant experiment config:",
                                                 "# fquant experiment config!"))
    assert script.main([str(ROOT), str(other)]) == 1
    assert capsys.readouterr().out.splitlines() == ["cli/--print-schema: differs",
                                                    "cli/quantize --dry-run bm2d_bounds.cfg: differs",
                                                    "cli/quantize --dry-run bm_n8.cfg: differs",
                                                    "lloyd_bm/input0: manifest.json: differs",
                                                    "sgd_p3/input0: manifest.json: differs",
                                                    "sgd_d2/input0: manifest.json: differs",
                                                    "sgd_p1.5/input0: manifest.json: differs",
                                                    "sgd_p2/input0: manifest.json: differs",
                                                    "lloyd_n20/input0: manifest.json: differs",
                                                    "lloyd_r3/input0: manifest.json: differs",
                                                    "lloyd_d2/input0: manifest.json: differs",
                                                    "lloyd_chunks/input0: manifest.json: differs",
                                                    "diagnose_r2/input0: manifest.json: differs",
                                                    "diagnose_r1.5/input0: manifest.json: differs",
                                                    "diagnose_const/input0: manifest.json: differs",
                                                    "bounds_lp/input0: manifest.json: differs",
                                                    "bounds_sup/input0: manifest.json: differs",
                                                    "81 files compared, 17 differences"]


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_ab_inprocess_packages_share_no_module(tmp_path, monkeypatch):
    script = _script("ab_inprocess")
    monkeypatch.setattr(sys, "path", list(sys.path))
    clis = [script.load_tree(ROOT, f"fquant_ab_{side}", tmp_path) for side in script.SIDES]
    try:
        loaded = [{n.partition(".")[2]: m for n, m in sys.modules.items()
                   if n.startswith(f"fquant_ab_{side}.")} for side in script.SIDES]
        assert loaded[0].keys() == loaded[1].keys() >= {"cli", "optimize", "quantize_core"}
        assert not {id(m) for m in loaded[0].values()} & {id(m) for m in loaded[1].values()}
        ours = {id(m) for n, m in sys.modules.items() if n.startswith("fquant.")}
        assert ours and not {id(m) for side in loaded for m in side.values()} & ours
        assert clis[0].optimize_codebook is not clis[1].optimize_codebook
        assert clis[0].Codebook is not clis[1].Codebook is not Codebook
    finally:
        for name in [n for n in sys.modules if n.startswith("fquant_ab_")]:
            del sys.modules[name]


def test_ab_inprocess_sees_an_injected_delay(tmp_path, monkeypatch, capsys):
    # a copy whose optimizer sleeps 5 ms per call is slower in every pair, with the same outputs
    script = _script("ab_inprocess")
    bench = script._bench_run()
    monkeypatch.setattr(bench, "SIZES", {name: dict(size, inputs=2, n_paths=120)
                                         for name, size in bench.SIZES.items()})
    monkeypatch.setattr(script, "_bench_run", lambda: bench)
    monkeypatch.setattr(script, "PAIRS_MIN", 4)
    slow = tmp_path / "slow"
    shutil.copytree(ROOT / "src", slow / "src", ignore=shutil.ignore_patterns("__pycache__"))
    optimize = slow / "src" / "fquant" / "optimize.py"
    head = '    if config.method == "lloyd":\n        return lloyd_run('
    assert head in optimize.read_text()
    optimize.write_text(optimize.read_text().replace(
        head, '    __import__("time").sleep(0.005)\n' + head))
    assert script.main([str(ROOT), str(slow), "--workload", "lloyd_bm", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and "change faster in 0 of 4 pairs" in lines[0]
    assert lines[1] == "outputs: 16 files compared, 0 differences"
    assert not [n for n in sys.modules if n.startswith("fquant_ab_")]
