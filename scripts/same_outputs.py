#!/usr/bin/env python3
"""Check that two source trees write the same outputs on the benchmark's ops.

    python scripts/same_outputs.py PARENT_TREE CHANGE_TREE [--seed S]

Runs `python -m fquant` once per tree in a subprocess with
PYTHONPATH=<tree>/src.  First it compares the exit code and stdout of
`--print-schema` and of `quantize --dry-run` (whose line carries the
config_hash) on each scripts/configs/*.cfg, each counted as one file.  Then it
takes the ops of the lloyd_bm, sgd_p3 and oracle_suite workloads from
bench/run.py's make_inputs (the `fquant quantize` configs and the
`fquant oracle --all` call), and small ops, each on a path no workload
takes.  Six `fquant quantize` ops run SGD (SGD_OPS): d = 2 at p = 2.5 on an
exp-weighted grid (a sum over coordinates and a non-integral power); d = 1 at
p = 1.5 (sqrt at p - 1); d = 1 at p = 2 (sqrt at 1/p, the identity at p - 1);
p = 2.5 at r = 3.5 (path weights ||x - a||^(r-p) in the residual's floor and
kernel); p = r = 3 at tol = 0.012, whose runs exit by tol in mid-run, so the
full residual decides the exit; and a run that diverges (c0 = 1e200), whose
exit code and error.json are compared.  Four run Lloyd (LLOYD_OPS): n = 20 (a p = 2 pass of path rows, past
16 atoms); r = 3 (the weighted centroid); d = 2 on an exp-weighted grid; and
53 000 paths, whose p = 2 passes at n = 4 run in two row chunks.  Three run
`fquant diagnose` (DIAGNOSE_OPS) on a fixed codebook file, written into the op's
inputs: at r = p, at r < p, where no stationarity.json is written, and on a
codebook holding a constant atom, whose Hoelder flags holder.json writes as null.  Two
run `fquant bounds` (BOUNDS_OPS) at d = 2, under norm = lp and norm = sup.  One
runs `fquant oracle sharp2 --m 20` (ORACLE_OPS): its LP family has 5 738 primal rows,
more than one stacked HiGHS call takes, so its LPs are solved in two calls.  It
compares the two output directories file by file, byte for byte; manifest.json
is compared without its `created` stamp.
Prints one line per difference and a summary, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("lloyd_bm", "sgd_p3", "oracle_suite")
OP_CONFIG = """\
[process]
kind = brownian
[space]
m = {m}
p = {p}
d = {d}
measure = {measure}
[quantizer]
n = {n}
r = {r}
[optimizer]
{optimizer}
[sample]
n_paths = {n_paths}
seed = {seed}
[bounds]
{bounds}
"""
SMALL = dict(command="quantize", m=17, p=2.0, d=1, measure="lebesgue", n=3, r=2.0, n_paths=200,
             bounds="")
SGD = "method = sgd\nmax_iters = 1000\nc0 = {c0}"
SGD_OPS = {  # small SGD quantize ops, each on a step path no workload takes
    "sgd_d2": dict(SMALL, p=2.5, d=2, measure="exp:0.5", r=2.5,  # a sum over d, x^2.5
                   optimizer=SGD.format(c0=0.01)),
    "sgd_p1.5": dict(SMALL, p=1.5, optimizer=SGD.format(c0=0.01)),  # sqrt at p - 1
    "sgd_p2": dict(SMALL, optimizer=SGD.format(c0=0.01)),  # sqrt, positive
    "sgd_r3.5": dict(SMALL, p=2.5, r=3.5, optimizer=SGD.format(c0=0.01)),  # weights at r > p
    "sgd_tol": dict(SMALL, p=3.0, r=3.0,  # exits by tol at 80-360 of 1000 steps (seeds 1-3)
                    optimizer=SGD.format(c0=0.01) + "\ntol = 0.012"),
    "sgd_diverge": dict(SMALL, p=3.0, r=3.0, optimizer=SGD.format(c0=1e200)),  # exit 3
}
LLOYD = "method = lloyd\nmax_iters = 200"
LLOYD_OPS = {  # small Lloyd quantize ops, each on a pass or centroid path lloyd_bm does not take
    "lloyd_n20": dict(SMALL, n=20, n_paths=400, optimizer=LLOYD),  # path-major pass
    "lloyd_r3": dict(SMALL, r=3.0, optimizer=LLOYD),  # weights ||x - a||, the weighted centroid
    "lloyd_d2": dict(SMALL, d=2, measure="exp:0.5", optimizer=LLOYD),  # a sum over d
    "lloyd_chunks": dict(SMALL, m=5, n=4, n_paths=53_000, optimizer=LLOYD),  # two row chunks
}
# atom i of the diagnosed codebook is levels[i] * sqrt(t); m >= 64: Hoelder files too
DIAGNOSE = dict(SMALL, command="diagnose", m=65, optimizer="", levels=(-1.0, 0.25, 1.5))
DIAGNOSE_OPS = {  # small diagnose ops, each of one codebook file
    "diagnose_r2": DIAGNOSE,  # r = p: writes stationarity.json
    "diagnose_r1.5": dict(DIAGNOSE, r=1.5),  # r < p: writes none
    "diagnose_const": dict(DIAGNOSE, levels=(0.0, 1.0)),  # atom 0 is constant: null flags
}
BOUNDS = dict(SMALL, command="bounds", d=2, n=4, optimizer=LLOYD)
BOUNDS_OPS = {  # small marginal-sandwich ops at d = 2, marginal sizes 2, 2
    "bounds_lp": dict(BOUNDS, bounds="norm = lp"),
    "bounds_sup": dict(BOUNDS, bounds="norm = sup"),
}
SMALL_OPS = SGD_OPS | LLOYD_OPS | DIAGNOSE_OPS | BOUNDS_OPS
ORACLE_OPS = {"oracle_sharp2_m20": ["oracle", "sharp2", "--m", "20"]}  # LPs split over calls


def _bench_run():
    """bench/run.py as a module (it imports bench/tracer.py by its bare name)."""
    sys.path.insert(0, str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fquant(tree: Path, argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout of `python -m fquant *argv` run from tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "fquant", *argv], env=env,
                          capture_output=True, timeout=600)
    return done.returncode, done.stdout


def _run_op(tree: Path, op, out: Path) -> int:
    return _fquant(tree, [str(out) if arg == str(op.out) else arg for arg in op.argv])[0]


def _cli_checks() -> list[tuple[str, list[str]]]:
    """(label, argv) of the commands whose stdout is compared: the schema, and the
    quantize --dry-run line of each shipped config."""
    configs = sorted((ROOT / "scripts" / "configs").glob("*.cfg"))
    return [("--print-schema", ["--print-schema"])] + [
        (f"quantize --dry-run {cfg.name}", ["quantize", "--config", str(cfg), "--dry-run"])
        for cfg in configs]


def _codebook_file(levels: tuple[float, ...], d: int, m: int) -> bytes:
    """A codebook file (path_space.pack_paths' layout) of levels times sqrt(t) on m uniform
    nodes of [0, 1], in each of d coordinates."""
    values = [c * math.sqrt(k / (m - 1)) for c in levels for _ in range(d) for k in range(m)]
    header = struct.pack("<4q", d, m, len(levels), 0)  # d, m, n, seed
    return header + struct.pack(f"<{len(values)}d", *values)


def _small_ops(bench, name: str, seed: int, work: Path) -> list:
    """The op SMALL_OPS[name] or ORACLE_OPS[name], as bench/run.py's make_inputs writes a
    workload's."""
    work.mkdir(parents=True)
    if name in ORACLE_OPS:
        return [bench.Op("input0", "oracle", ORACLE_OPS[name] + ["--out", str(work / "out0")],
                         work / "out0")]
    op = SMALL_OPS[name]
    cfg, out = work / "input0.cfg", work / "out0"
    cfg.write_text(OP_CONFIG.format(seed=seed, **op))
    argv = [op["command"], "--config", str(cfg), "--out", str(out)]
    if op["command"] == "diagnose":
        codebook = work / "codebook.bin"
        codebook.write_bytes(_codebook_file(op["levels"], op["d"], op["m"]))
        argv += ["--codebook", str(codebook)]
    return [bench.Op("input0", op["command"], argv, out)]


def _content(path: Path):
    if path.name == "manifest.json":
        body = json.loads(path.read_text())
        body.pop("created", None)
        return body
    return path.read_bytes()


def compare(a: Path, b: Path) -> tuple[int, list[str]]:
    """(files compared, differences) between two output directories."""
    names_a = {p.name for p in a.iterdir()} if a.is_dir() else set()
    names_b = {p.name for p in b.iterdir()} if b.is_dir() else set()
    diffs = [f"{name}: only in one tree" for name in sorted(names_a ^ names_b)]
    same = sorted(names_a & names_b)
    diffs += [f"{name}: differs" for name in same if _content(a / name) != _content(b / name)]
    return len(same), diffs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="source tree with src/fquant")
    ap.add_argument("change", type=Path, help="source tree with src/fquant")
    ap.add_argument("--seed", type=int, default=1, help="bench/run.py input seed")
    args = ap.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "fquant" / "__init__.py").is_file():
            ap.error(f"no src/fquant under {tree}")
    bench = _bench_run()
    n_files, n_diffs = 0, 0
    for label, cli_argv in _cli_checks():
        n_files += 1
        if _fquant(trees[0], cli_argv) != _fquant(trees[1], cli_argv):
            n_diffs += 1
            print(f"cli/{label}: differs")
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for workload in WORKLOADS + tuple(SMALL_OPS) + tuple(ORACLE_OPS):
            work = Path(tmp) / workload
            ops = (_small_ops(bench, workload, args.seed, work / "inputs")
                   if workload not in WORKLOADS
                   else bench.make_inputs(workload, args.seed, bench.SIZES[workload],
                                          work / "inputs"))
            for op in ops:
                outs = [work / side / op.key for side in ("parent", "change")]
                codes = [_run_op(tree, op, out) for tree, out in zip(trees, outs)]
                compared, diffs = compare(*outs)
                if codes[0] != codes[1]:
                    diffs.append(f"exit codes {codes[0]} and {codes[1]}")
                n_files += compared
                n_diffs += len(diffs)
                for line in diffs:
                    print(f"{workload}/{op.key}: {line}")
    print(f"{n_files} files compared, {n_diffs} differences")
    return 1 if n_diffs else 0


if __name__ == "__main__":
    sys.exit(main())
