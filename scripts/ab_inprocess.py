#!/usr/bin/env python3
"""Time two source trees against each other on one benchmark workload, in one process.

    python scripts/ab_inprocess.py PARENT_TREE CHANGE_TREE --workload W [--seed S]

Copies each tree's src/fquant under its own package name, imports both, and
writes the workload's inputs with bench/run.py's make_inputs at the
benchmark's sizes.  After one untimed warm-up op per tree it runs every op on
both trees, back to back, for at least PAIRS_MIN pairs; the parent runs first
in even pairs and the change first in odd ones.  Both trees then share the
machine's state, so a reading of a few percent is not lost in the drift that
separates two bench/run.py processes.

Prints the median change/parent wall ratio, how many pairs the change won,
the quartiles of the ratios, and whether the two trees wrote the same files
with the same exit codes (compared as scripts/same_outputs.py does:
byte for byte, manifest.json without its `created` stamp).  Exits 1 if they
did not.  It complements bench/run.py's alternating-process pairs and does
not replace them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from same_outputs import WORKLOADS, _bench_run, compare  # noqa: E402

SIDES = ("parent", "change")
PAIRS_MIN = 40  # whole rounds over the workload's inputs, at least this many op pairs


def load_tree(tree: Path, package: str, into: Path):
    """tree/src/fquant copied to into/package and imported as `package` (src/ imports
    itself by relative imports only); returns its cli module."""
    for name in [n for n in sys.modules if n == package or n.startswith(package + ".")]:
        del sys.modules[name]
    shutil.copytree(tree / "src" / "fquant", into / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if str(into) not in sys.path:
        sys.path.insert(0, str(into))
    return importlib.import_module(f"{package}.cli")


def run_op(cli, op, out: Path) -> tuple[float, object]:
    """(wall seconds, exit code) of one op written to out."""
    shutil.rmtree(out, ignore_errors=True)
    argv = [str(out) if arg == str(op.out) else arg for arg in op.argv]
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        return time.perf_counter() - t0, rc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="source tree with src/fquant")
    ap.add_argument("change", type=Path, help="source tree with src/fquant")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1, help="bench/run.py input seed")
    args = ap.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "fquant" / "__init__.py").is_file():
            ap.error(f"no src/fquant under {tree}")
    bench = _bench_run()
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as tmp:
        work = Path(tmp)
        clis = [load_tree(tree, f"fquant_ab_{side}", work / "pkgs")
                for tree, side in zip(trees, SIDES)]
        try:
            ops = bench.make_inputs(args.workload, args.seed, bench.SIZES[args.workload],
                                    work / "inputs")
            outs = [[work / side / op.key for op in ops] for side in SIDES]
            for cli, side_outs in zip(clis, outs):  # warm-up: lazy imports, first-call caches
                run_op(cli, ops[0], side_outs[0])
            ratios, codes = [], {}
            for j in range(-(-PAIRS_MIN // len(ops)) * len(ops)):
                k = j % len(ops)
                order = (0, 1) if j % 2 == 0 else (1, 0)
                wall = [0.0, 0.0]
                for s in order:
                    wall[s], codes[s, k] = run_op(clis[s], ops[k], outs[s][k])
                ratios.append(wall[1] / wall[0])
            n_files, diffs = 0, []
            for k, op in enumerate(ops):
                compared, found = compare(outs[0][k], outs[1][k])
                if codes[0, k] != codes[1, k]:
                    found.append(f"exit codes {codes[0, k]} and {codes[1, k]}")
                n_files += compared
                diffs += [f"{op.key}: {line}" for line in found]
        finally:
            sys.path.remove(str(work / "pkgs"))
            for name in [n for n in sys.modules if n.startswith("fquant_ab_")]:
                del sys.modules[name]
    q1, med, q3 = statistics.quantiles(ratios, n=4)
    wins = sum(x < 1.0 for x in ratios)
    for line in diffs:
        print(line)
    print(f"{args.workload} seed {args.seed}: change/parent wall ratio median {med:.4f} "
          f"(quartiles {q1:.4f}-{q3:.4f}), change faster in {wins} of {len(ratios)} pairs")
    print(f"outputs: {n_files} files compared, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
