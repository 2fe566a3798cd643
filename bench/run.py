"""Layered benchmark for fquant.

Run from the repository root:

    python3 bench/run.py --workload lloyd_bm --seed 1 --seconds 20 --trace 0

Each workload drives the public CLI entry ``fquant.cli.main(argv)`` in this
process, on config files that the benchmark writes from ``--seed``.  Load model: one client in a closed loop, ops
back to back, BLAS at its default thread count, no pools and no subprocesses.
Set-up (writing the inputs, then one untimed warm-up op on the next input in
turn) runs SETUP_REPEATS times; ``setup_s`` covers the import and the median
set-up.

A run cycles through the workload's inputs (one per derived sample seed)
and keeps starting whole cycles while the next one is expected to end within
``--seconds``; the first cycle always runs.  Every input weighs the same, so
the seed-to-seed spread of the optimizers' iteration counts is averaged over
the inputs.

On a shared host the same deterministic op runs up to 2x slower while
neighbours load the machine, in phases from seconds to minutes, so raw wall
times of two runs minutes apart differ by more than a regression worth
catching.  The benchmark therefore times a fixed calibration loop
(``calibrate``: interpreted and element-wise numpy work, no fquant, no BLAS)
before every op and reports its times at a fixed machine speed::

    run_s   = CAL_REF_S * mean op wall / mean calibration time
    setup_s = CAL_REF_S * (import / first calibration time
                           + median over set-ups of set-up / its calibration time)

A slower program raises the op walls and leaves the calibration loop as it
was, so it shows in full; a slower machine raises both and cancels out.  The
raw figures (``raw_run_s``, ``raw_setup_s``) and the calibration times are
in the info line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced ops and prints the per-layer metrics (per-op means over
the traced ops) plus the tracing overhead.  Every op is checked; a failed
check counts the op as failed.  The last stdout line is the JSON result; the
line before it records the environment.  ``bench/spread.py`` runs several
seeds and summarizes them; ``bench/BASELINE.json`` holds the recorded baseline.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

_MODULE_IMPORT_S = time.perf_counter() - T_START
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_out"

WORKLOADS = ("lloyd_bm", "sgd_p3", "oracle_suite")

# Problem sizes; inputs = derived sample seeds cycled within one run.
SIZES = {
    "lloyd_bm": {"m": 64, "n_paths": 4000, "n": 8, "max_iters": 300, "inputs": 20},
    "sgd_p3": {"m": 65, "n_paths": 1000, "n": 4, "max_iters": 2000, "inputs": 16},
    "oracle_suite": {"m_sharp": 10, "inputs": 1},
}

DISTORTION_RTOL = 1e-9     # reported vs direct per-atom distortion
SETUP_REPEATS = 5          # setup_s covers the import and the median of these
LLOYD_GATE = 1e-3          # criterion 3: max_residual < LLOYD_GATE * quant_error
SGD_C0 = 0.01              # see the sgd_p3 note in BENCHMARK.json
CAL_REF_S = 0.08           # calibration time that run_s and setup_s are scaled to

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("quant_error", "norm"))

PER_LAYER = (
    ("quantize_core.pairwise_distances.calls", "count"),
    ("quantize_core.pairwise_distances.self_s", "s"),
    ("quantize_core.pairwise_distances.pair_evals", "count"),
    ("quantize_core.pairwise_distances.flops_computed", "flop"),
    ("quantize_core.pairwise_distances.bytes_computed", "B"),
    ("quantize_core.distortion.calls", "count"),
    ("quantize_core.distortion.self_s", "s"),
    ("quantize_core.Codebook.calls", "count"),
    ("quantize_core.Codebook.self_s", "s"),
    ("optimize.lloyd_step.calls", "count"),
    ("optimize.lloyd_step.self_s", "s"),
    ("optimize.passes_per_lloyd_step", "ratio"),
    ("optimize.optimize_codebook.calls", "count"),
    ("optimize.sgd_run.self_s", "s"),
    ("optimize.sgd_run.steps", "count"),
    ("optimize.sgd_run.evals", "count"),
    ("optimize.splitting_init.stages", "count"),
    ("optimize.splitting_init.fallbacks", "count"),
    ("optimize.splitting_init.first_try_ratio", "ratio"),
    ("optimize.empty_cell_repairs", "count"),
    ("diagnostics.stationarity_residual.calls", "count"),
    ("diagnostics.stationarity_residual.self_s", "s"),
    ("diagnostics.holder_fit.self_s", "s"),
    ("diagnostics.residual_rel", "ratio"),
    ("process_sim.sample_paths.self_s", "s"),
    ("process_sim.sample_paths.paths", "count"),
    ("path_space.pack_paths.self_s", "s"),
    ("oracles.subgradient_minimize.calls", "count"),
    ("oracles.subgradient_minimize.self_s", "s"),
    ("oracles.l1_center_lp.calls", "count"),
    ("oracles.l1_center_lp.self_s", "s"),
    ("oracles.linf_center_lp.calls", "count"),
    ("oracles.linf_center_lp.self_s", "s"),
    ("oracles.coordinate_median_minimize.calls", "count"),
    ("oracles.coordinate_median_minimize.self_s", "s"),
    ("config.load_config.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "B"),
    ("cli.untraced_s", "s"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_s", "s"),
)

# Spans reported as <span>.calls / <span>.self_s.
_SPAN_STATS = sorted({name.rsplit(".", 1)[0] for name, _ in PER_LAYER
                      if name.endswith((".calls", ".self_s"))} - {"cli"})
# Counters from the tracer hooks, as <metric>: <counter>.
_COUNTERS = {
    "quantize_core.pairwise_distances.pair_evals": "pair_evals",
    "quantize_core.pairwise_distances.flops_computed": "flops",
    "quantize_core.pairwise_distances.bytes_computed": "bytes",
    "optimize.sgd_run.steps": "sgd_steps",
    "optimize.sgd_run.evals": "sgd_evals",
    "optimize.splitting_init.stages": "splitting_stages",
    "optimize.splitting_init.fallbacks": "splitting_fallbacks",
    "optimize.empty_cell_repairs": "empty_cell_repairs",
    "process_sim.sample_paths.paths": "paths",
}


class BenchSetupError(Exception):
    """The program under test cannot be found or imported."""


@dataclass
class Op:
    """One CLI invocation; ops sharing a key must produce identical outputs."""

    key: str
    kind: str            # quantize | oracle
    argv: list
    out: Path
    params: dict = field(default_factory=dict)


@dataclass
class OpResult:
    wall: float
    problems: list
    quant_error: float = float("nan")
    residual_rel: float = 0.0
    output_bytes: int = 0
    trace: dict | None = None


# ---------------------------------------------------------------------------
# program import and environment
# ---------------------------------------------------------------------------


def import_fquant():
    """Import fquant from this checkout's src/, never from site-packages."""
    if not (SRC / "fquant" / "__init__.py").is_file():
        raise BenchSetupError(f"no fquant sources under {SRC}")
    sys.path.insert(0, str(SRC))
    fquant = importlib.import_module("fquant")
    if SRC.resolve() not in Path(fquant.__file__).resolve().parents:
        raise BenchSetupError(f"imported fquant from {fquant.__file__}, not {SRC}")
    importlib.import_module("fquant.cli")
    return fquant


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _config_text(m: int, p: float, n: int, r: float, n_paths: int, seed: int,
                 optimizer: dict | None = None) -> str:
    lines = ["[process]", "kind = brownian",
             "[space]", f"m = {m}", "t_end = 1.0", f"p = {p!r}", "d = 1",
             "[quantizer]", f"n = {n}", f"r = {r!r}"]
    if optimizer:
        lines.append("[optimizer]")
        lines += [f"{k} = {v}" for k, v in optimizer.items()]
    lines += ["[sample]", f"n_paths = {n_paths}", f"seed = {seed}"]
    return "\n".join(lines) + "\n"


def _sample_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def read_paths(path: Path):
    import numpy as np
    data = path.read_bytes()
    d, m, n, _ = struct.unpack_from("<4q", data, 0)
    return np.frombuffer(data, dtype="<f8", offset=32).reshape(n, d, m)


def make_inputs(workload: str, seed: int, size: dict, work: Path) -> list[Op]:
    """Write the workload's input files under work/ and return its op cycle."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = []
    if workload == "oracle_suite":
        return [Op("oracle", "oracle",
                   ["oracle", "--all", "--m", str(size["m_sharp"]), "--out", str(work / "out0")],
                   work / "out0")]
    for k in range(size["inputs"]):
        sample_seed = _sample_seed(seed, k)
        params = {"m": size["m"], "n_paths": size["n_paths"], "seed": sample_seed}
        if workload == "lloyd_bm":
            params.update(p=2.0, r=2.0)
            opt = {"method": "lloyd", "max_iters": size["max_iters"], "tol": "1e-12"}
        else:
            params.update(p=3.0, r=3.0)
            opt = {"method": "sgd", "max_iters": size["max_iters"], "tol": "1e-9",
                   "c0": SGD_C0}
        cfg = work / f"input{k}.cfg"
        cfg.write_text(_config_text(params["m"], params["p"], size["n"], params["r"],
                                    params["n_paths"], sample_seed, opt))
        out = work / f"out{k}"
        argv = ["quantize", "--config", str(cfg), "--out", str(out)]
        ops.append(Op(f"input{k}", "quantize", argv, out, params))
    return ops


def calibrate() -> float:
    """Seconds for a fixed amount of machine work unrelated to fquant.

    Half is interpreted small-array dispatch, which tracks the speed of the
    CLI and oracle code; half is element-wise passes over a 4000 x 64 array,
    which track the distance passes.  An untimed pass first settles caches
    and the allocator after the op before it.  The passes write into a buffer
    whose pages are already touched, so how the program left the allocator
    does not move the figure, and element-wise numpy is single-threaded, so
    neither does the BLAS thread state."""
    import numpy as np
    small = np.linspace(0.0, 1.0, 32)
    big = np.linspace(0.0, 1.0, 4000 * 64).reshape(4000, 64)
    buf = big.copy()
    acc = 0.0

    def work(loops: int, passes: int) -> None:
        nonlocal acc
        for i in range(loops):
            acc += float(np.abs(small - i * 1e-3).max())
        for i in range(passes):
            np.subtract(big, i * 1e-2, out=buf)
            np.abs(buf, out=buf)
            np.square(buf, out=buf)
            acc += float(buf.sum())

    work(1000, 4)
    t0 = time.perf_counter()
    work(12000, 64)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def direct_distortion(fq, atoms, params: dict) -> float:
    """E min_i ||x - a_i||^r by a per-atom loop that bypasses quantize_core."""
    import numpy as np
    space = fq.uniform_space(1.0, params["m"], p=params["p"])
    sample = fq.sample_paths(fq.ProcessSpec("brownian"), space, params["n_paths"],
                             params["seed"])
    X, w, p = sample.values, space.weights, params["p"]
    best = np.full(len(X), np.inf)
    chunk = 4096
    for a in atoms:
        for lo in range(0, len(X), chunk):
            acc = ((np.abs(X[lo:lo + chunk] - a) ** p) @ w).sum(axis=1)
            np.minimum(best[lo:lo + chunk], acc, out=best[lo:lo + chunk])
    return float(np.mean(np.maximum(best, 0.0) ** (params["r"] / p)))


class Checker:
    """Validates each op; the first output of each input is verified
    independently, repeats must match it byte for byte."""

    _FINGERPRINT = {"quantize": ("codebook.bin", "distortion.json", "stationarity.json"),
                    "oracle": ("oracle_manifest.json",)}

    def __init__(self, fq, workload: str):
        self.fq = fq
        self.workload = workload
        self.verified: dict[str, tuple[dict, float, float]] = {}

    def check(self, op: Op, rc) -> tuple[list, float, float]:
        """(problems, quant_error, residual_rel) for the op just run."""
        if rc != 0:
            return [f"exit code {rc}"], float("nan"), 0.0
        try:
            prints = {name: (op.out / name).read_bytes() for name in self._FINGERPRINT[op.kind]}
            if op.key in self.verified:
                first, qe, rel = self.verified[op.key]
                diff = sorted(name for name in prints if prints[name] != first[name])
                return ([f"outputs differ from the first run of {op.key}: {diff}"]
                        if diff else []), qe, rel
            problems, qe, rel = self._verify(op)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"missing or malformed output: {exc!r}"], float("nan"), 0.0
        if not problems:
            self.verified[op.key] = (prints, qe, rel)
        return problems, qe, rel

    def _verify(self, op: Op) -> tuple[list, float, float]:
        if op.kind == "oracle":
            manifest = json.loads((op.out / "oracle_manifest.json").read_text())
            problems = [] if manifest["all_passed"] else ["oracle checks failed"]
            return problems, float(manifest["values"]["c0"]["best_value"]), 0.0
        problems = []
        manifest = json.loads((op.out / "manifest.json").read_text())
        missing = [f for f in manifest["files"] if not (op.out / f).is_file()]
        if missing:
            problems.append(f"manifest lists missing files {missing}")
        params = op.params
        reported = json.loads((op.out / "distortion.json").read_text())["value"]
        atoms = read_paths(op.out / "codebook.bin")
        direct = direct_distortion(self.fq, atoms, params)
        if not abs(reported - direct) <= DISTORTION_RTOL * abs(direct):
            problems.append(f"distortion {reported!r} != direct {direct!r}")
        r = params["r"]
        qe = reported ** (1.0 / r)
        stat = json.loads((op.out / "stationarity.json").read_text())
        rel = stat["max_residual"] / qe ** (r - 1.0)
        if self.workload == "lloyd_bm" and not stat["max_residual"] < LLOYD_GATE * qe:
            problems.append(f"stationarity gate: residual {stat['max_residual']!r}")
        if self.workload in ("lloyd_bm", "sgd_p3") and not stat["admissible"]:
            problems.append("codebook not admissible")
        return problems, qe, rel


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_op(fq, op: Op, checker: Checker, tracer=None) -> OpResult:
    shutil.rmtree(op.out, ignore_errors=True)
    gc.collect()
    sink = io.StringIO()
    rc = None
    if tracer is not None:
        tracer.reset()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = fq.cli.main(op.argv)
        except Exception:  # an op that raises is a failed op, not a crash
            rc = "exception"
            traceback.print_exc()
        wall = time.perf_counter() - t0
    # taken before the check, whose own calls into fquant are not the op's
    trace = None if tracer is None else {
        "calls": dict(tracer.calls), "self": dict(tracer.self_time),
        "counters": dict(tracer.counters), "top": tracer.top_level_s}
    problems, qe, rel = checker.check(op, rc)
    if problems:
        print(f"op {op.key} failed: {problems}\n{sink.getvalue()[-2000:]}", file=sys.stderr)
    return OpResult(wall, problems, qe, rel,
                    _dir_bytes(op.out) if op.out.exists() else 0, trace)


def _cli_self_s(trace: dict) -> float:
    return sum(v for k, v in trace["self"].items() if k.startswith("cli."))


def span_coverage(res: OpResult) -> float:
    """Share of the op's wall time spent in layer spans below the CLI.

    ``cli.main`` wraps the whole op, so its self time and the time outside
    every span are what no layer span accounts for."""
    return (res.trace["top"] - _cli_self_s(res.trace)) / res.wall


def _run_s(results: list[tuple[Op, OpResult]]) -> float:
    """Mean op wall; whole cycles, so every input weighs the same."""
    return statistics.fmean(res.wall for _, res in results)


def layer_metrics(traced: list[OpResult], untraced_run_s: float,
                  traced_run_s: float) -> dict:
    ops = len(traced)
    calls, selfs, counters = {}, {}, {}
    for res in traced:
        t = res.trace
        for k, v in t["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in t["self"].items():
            selfs[k] = selfs.get(k, 0.0) + v
        for k, v in t["counters"].items():
            counters[k] = counters.get(k, 0) + v
    out = {}
    for span in _SPAN_STATS:
        out[f"{span}.calls"] = calls.get(span, 0) / ops
        out[f"{span}.self_s"] = selfs.get(span, 0.0) / ops
    for metric, counter in _COUNTERS.items():
        out[metric] = counters.get(counter, 0) / ops
    steps = calls.get("optimize.lloyd_step", 0)
    out["optimize.passes_per_lloyd_step"] = counters.get("lloyd_passes", 0) / steps if steps else 0.0
    stages = counters.get("splitting_stages", 0)
    out["optimize.splitting_init.first_try_ratio"] = (
        1.0 - counters.get("splitting_fallbacks", 0) / stages if stages else 0.0)
    out["diagnostics.residual_rel"] = statistics.fmean(r.residual_rel for r in traced)
    out["cli.self_s"] = statistics.fmean(_cli_self_s(r.trace) for r in traced)
    out["cli.output_bytes"] = statistics.fmean(r.output_bytes for r in traced)
    out["cli.untraced_s"] = statistics.fmean(r.wall - r.trace["top"] for r in traced)
    out["trace.span_coverage"] = statistics.fmean(span_coverage(r) for r in traced)
    out["trace.overhead_s"] = traced_run_s - untraced_run_s
    return out


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, info line)."""
    t0 = time.perf_counter()
    fq = import_fquant()
    import_s = _MODULE_IMPORT_S + time.perf_counter() - t0
    work = WORK_ROOT / workload
    size = SIZES[workload]
    checker = Checker(fq, workload)
    setups, setup_cals, all_results = [], [], []
    for i in range(SETUP_REPEATS):
        setup_cals.append(calibrate())
        t0 = time.perf_counter()
        ops = make_inputs(workload, seed, size, work)
        inputs_s = time.perf_counter() - t0
        # rotating the warm-up input keeps one input's iteration count
        # from setting setup_s
        warm = run_op(fq, ops[i % len(ops)], checker)
        setups.append((inputs_s + warm.wall, inputs_s, warm.wall))
        all_results.append(warm)
    raw_setup_s = import_s + statistics.median(s for s, _, _ in setups)
    setup_s = CAL_REF_S * (import_s / setup_cals[0] + statistics.median(
        s / cal for (s, _, _), cal in zip(setups, setup_cals)))

    tracer = Tracer() if trace else None
    timed, traced, cals = [], [], []
    t_loop = time.perf_counter()
    while True:
        t_cycle = time.perf_counter()
        for op in ops:
            cals.append(calibrate())
            res = run_op(fq, op, checker)
            timed.append((op, res))
            all_results.append(res)
            if tracer is not None:
                with tracer:
                    tres = run_op(fq, op, checker, tracer)
                traced.append((op, tres))
                all_results.append(tres)
        now = time.perf_counter()
        if now - t_loop + (now - t_cycle) > seconds:
            break
    measured_s = time.perf_counter() - t_loop

    failed = sum(1 for r in all_results if r.problems)
    raw_run_s = _run_s(timed)
    run_s = raw_run_s * CAL_REF_S / statistics.fmean(cals)
    if trace:
        traced_run_s = _run_s(traced)
        metrics = layer_metrics([r for _, r in traced], raw_run_s, traced_run_s)
        units = PER_LAYER
    else:
        first_qe = {}
        for op, res in timed:
            if not res.problems:
                first_qe.setdefault(op.key, res.quant_error)
        metrics = {
            "run_s": run_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "quant_error": statistics.fmean(first_qe.values()) if first_qe else 0.0,
        }
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(all_results),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units},
    }
    info = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "ops_timed": len(timed), "ops_traced": len(traced), "inputs": len(ops),
        "op_walls": [round(res.wall, 4) for _, res in timed],
        "measured_s": measured_s, "import_s": import_s,
        "raw_run_s": raw_run_s, "raw_setup_s": raw_setup_s,
        "cal_s": [round(x, 4) for x in cals],
        "setup_cal_s": [round(x, 4) for x in setup_cals],
        "inputs_s": [round(x, 5) for _, x, _ in setups],
        "warmup_s": [round(x, 4) for _, _, x in setups],
        "ops_failed_ratio": failed / len(all_results),
        "env": environment(),
    }
    shutil.rmtree(work, ignore_errors=True)
    return result, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except BenchSetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
