"""Experiment runner: simulate -> optimize -> diagnose -> report pipelines.

Subcommands: quantize, oracle, bounds, diagnose.  Exit codes: 0 success,
2 config parse/validation error, 3 simulation, optimization or allocation error;
nonzero exits leave a JSON error record in the output directory (or on stderr
when no directory is available).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path as FsPath

import numpy as np

from . import diagnostics
from .config import ExperimentConfig, load_config, print_schema
from .errors import ConfigError, FquantError
from .optimize import _runs_at, optimize_codebook, product_quantizer, splitting_init
from .path_space import _to_json
from .process_sim import sample_paths
from .quantize_core import Codebook, assign, distortion

ORACLE_NAMES = ("c0", "l1", "sharp2", "supnorm", "closed_form")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUN = 3


def _write(out_dir: FsPath, name: str, data: str | bytes, files: list[str] | None = None):
    """Write out_dir / name, and append name to the manifest's list of files, if given."""
    out_dir.mkdir(parents=True, exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(out_dir / name, mode) as fh:
        fh.write(data)
    if files is not None:
        files.append(name)


def _error_record(out_dir: FsPath | None, stage: str, exc: Exception) -> None:
    record = _to_json({"error": type(exc).__name__, "stage": stage, "message": str(exc)})
    if out_dir is not None:
        try:
            _write(out_dir, "error.json", record + "\n")
            return
        except OSError:
            pass
    print(record, file=sys.stderr)


def _manifest(cfg: ExperimentConfig, seed: int, files: list[str], extra: dict) -> str:
    body = {"config_hash": cfg.config_hash, "seed": seed, "files": sorted(files),
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"), **extra}
    return _to_json(body) + "\n"


def _stamp_json(payload: str, cfg_hash: str) -> str:
    """Embed the config hash in a JSON report (all result files carry it)."""
    body = json.loads(payload)
    body["config_hash"] = cfg_hash
    return _to_json(body) + "\n"


def _stamp_csv(payload: str, cfg_hash: str) -> str:
    return f"# config_hash={cfg_hash}\n{payload}"


def _check_method(opt, p: float, r: float) -> None:
    if not _runs_at(opt.method, p, r):  # checked before anything is sampled
        raise ConfigError(f"[optimizer] method = {opt.method} does not run at p = {p:g}, r = {r:g}")


def _check_atoms(cfg: ExperimentConfig) -> None:
    if cfg.n > cfg.n_paths:  # fewer paths than atoms leaves a cell empty
        raise ConfigError(f"[quantizer] n = {cfg.n} exceeds [sample] n_paths = {cfg.n_paths}")


def _write_reports(out_dir: FsPath, cfg: ExperimentConfig, codebook: Codebook,
                   rep, stat, files: list[str]):
    """Write the codebook's distortion, stationarity (if any) and Hoelder reports."""
    h, space = cfg.config_hash, codebook.space
    _write(out_dir, "distortion.json", _stamp_json(rep.to_json(), h), files)
    if stat is not None:
        _write(out_dir, "stationarity.json", _stamp_json(stat.to_json(), h), files)
    if space.m >= 64:
        fit = diagnostics.holder_fit(codebook)
        _write(out_dir, "holder.json", _stamp_json(fit.to_json(), h), files)
        _write(out_dir, "holder.csv", _stamp_csv(fit.to_csv(), h), files)


def run_quantize(cfg: ExperimentConfig, seed: int, out_dir: FsPath,
                 dry_run: bool = False) -> int:
    space = cfg.build_space()
    opt = cfg.build_optimizer(seed)
    _check_method(opt, space.p, cfg.r)
    _check_atoms(cfg)
    if dry_run:
        print(f"config ok: hash={cfg.config_hash} n={cfg.n} r={cfg.r} "
              f"m={space.m} d={space.d} n_paths={cfg.n_paths}")
        return EXIT_OK
    sample = sample_paths(cfg.build_process_spec(), space, cfg.n_paths, seed)
    codebook = splitting_init(sample, space, cfg.n, cfg.r, seed, config=opt)
    codebook, trace = optimize_codebook(opt, codebook, sample, cfg.r)

    h, files = cfg.config_hash, []
    _write(out_dir, "codebook.bin", codebook.to_binary(), files)
    _write(out_dir, "codebook.csv", _stamp_csv(codebook.to_csv(), h), files)
    _write(out_dir, "trace.csv", _stamp_csv(trace.to_csv(), h), files)
    rep = trace.final_distortion
    _write_reports(out_dir, cfg, codebook, rep, trace.final_stationarity, files)
    _write(out_dir, "manifest.json", _manifest(cfg, seed, files, {
        "distortion": rep.value, "quant_error": rep.value ** (1.0 / cfg.r),
        "exit_reason": trace.exit_reason, "iterations": trace.iterations}))
    print(f"quantize: n={cfg.n} r={cfg.r} distortion={rep.value:.6g} "
          f"({trace.exit_reason} after {trace.iterations} iters) -> {out_dir}")
    return EXIT_OK


def run_oracles(selection: list[str], out_dir: FsPath, m_sharp: int = 10) -> int:
    from . import oracles  # here, so that the other commands never compile it
    chosen = list(ORACLE_NAMES) if not selection or "all" in selection else selection
    unknown = set(chosen) - set(ORACLE_NAMES)
    if unknown:
        raise ConfigError(f"unknown oracle selection {sorted(unknown)}; "
                          f"known: {ORACLE_NAMES}")
    if "sharp2" in chosen and m_sharp < 2:  # range(2, m_sharp + 1) would run no check
        raise ConfigError(f"--m must be >= 2 for sharp2, got {m_sharp}")
    checks = []
    values = {}
    if "c0" in chosen:
        rep = oracles.c0_example()
        checks += rep.checks
        values["c0"] = {"best_value": rep.best_value,
                        "value_at_candidate": rep.value_at_candidate,
                        "sequence_values": rep.sequence_values.tolist()}
    if "l1" in chosen:
        rep = oracles.l1_hyperplane_example()
        checks += rep.checks
        values["l1"] = {"e_plane": rep.e_plane, "e_full": rep.e_full,
                        "e_hyperplane_upper": rep.e_hyperplane_upper}
    if "sharp2" in chosen:
        ms = range(2, m_sharp + 1)
        reports = oracles.sharp_constant_examples(ms)
        checks += [c for rep in reports for c in rep.checks]
        values["sharp2"] = {"ratios": {m: rep.ratio for m, rep in zip(ms, reports)}}
    if "supnorm" in chosen:
        rep = oracles.sup_counterexample()
        checks += rep.checks
        values["supnorm"] = {"value_at_h": rep.value_at_h, "best_probe": rep.best_probe}
    if "closed_form" in chosen:
        registry = {
            "brownian": oracles.closed_form_errors("brownian", 1, 2, 2),
            "bridge": oracles.closed_form_errors("bridge", 1, 2, 2),
            "ou(b=1,t_end=4)": oracles.closed_form_errors(
                "ou", 1, 2, 2, {"b": 1.0, "t_end": 4.0}),
        }
        values["closed_form"] = registry
        missing = oracles.closed_form_errors("fbm", 3, 2, 2)
        checks.append(oracles.indicator_check("closed_form.registry_miss_is_none",
                                              missing is None, -1.0))
    manifest = {
        "selection": chosen,
        "values": values,
        "checks": [c.as_dict() for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    _write(out_dir, "oracle_manifest.json", _to_json(manifest) + "\n")
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name} value={c.value:.12g}")
    print(f"oracle manifest -> {out_dir / 'oracle_manifest.json'}")
    return EXIT_OK if manifest["all_passed"] else EXIT_RUN


def run_bounds(cfg: ExperimentConfig, seed: int, out_dir: FsPath,
               dry_run: bool = False) -> int:
    space = cfg.build_space()
    if space.d < 2:
        raise ConfigError("bounds requires d >= 2 in [space]")
    sizes = cfg.values["bounds"].get("marginal_sizes", [2] * space.d)
    norm = cfg.values["bounds"]["norm"]
    if len(sizes) != space.d:
        raise ConfigError(f"[bounds] marginal_sizes needs {space.d} entries, got {sizes}")
    n = cfg.n
    if int(np.prod(sizes)) > n:
        raise ConfigError(f"[bounds] product of marginal sizes {sizes} exceeds n={n}")
    opt = cfg.build_optimizer(seed)
    _check_method(opt, space.p, _bounds_exponent(space, cfg.r, norm))
    _check_atoms(cfg)
    if dry_run:
        print(f"config ok: bounds d={space.d} n={n} sizes={sizes} norm={norm}")
        return EXIT_OK

    sample = sample_paths(cfg.build_process_spec(), space, cfg.n_paths, seed)
    report = marginal_bounds_report(sample, space, n, sizes, cfg.r, seed, opt, norm=norm)
    report["config_hash"] = cfg.config_hash
    files = []
    _write(out_dir, "bounds.json", _to_json(report) + "\n", files)
    _write(out_dir, "manifest.json", _manifest(cfg, seed, files, {"holds": report["holds"]}))
    print(f"bounds[{norm}]: lower={report['lower']:.6g} joint={report['joint']:.6g} "
          f"upper={report['upper']:.6g} holds={report['holds']} -> {out_dir}")
    return EXIT_OK if report["holds"] else EXIT_RUN


def _bounds_exponent(space, r: float, norm: str) -> float:  # the sandwich's exponent
    return space.p if norm == "lp" else r


def marginal_bounds_report(sample, space, n: int, sizes: list[int], r: float,
                           seed: int, opt, norm: str = "lp") -> dict:
    """Evaluate the marginal sandwich at optimized codebooks.

    Joint candidates include the product of the small marginal optima, and the
    size-n marginal candidates include the joint codebook's projections, so
    the two inequalities hold on the shared sample up to optimization slop
    (reported against 3 Monte Carlo standard errors).
    """
    d = space.d
    exponent = _bounds_exponent(space, r, norm)
    msp = space.with_d(1)

    def measure(cb, smp):
        if norm == "sup":
            cb = Codebook(space=cb.space.with_p(np.inf), values=cb.values)
        return distortion(cb, smp, exponent)

    def best(cands, smp):
        # (report, codebook) of the first lowest-distortion candidate
        return min(((measure(cb, smp), cb) for cb in cands), key=lambda t: t[0].value)

    marg_samples = [sample.coordinate(j) for j in range(d)]
    small = [splitting_init(marg_samples[j], msp, sizes[j], exponent, seed + j, config=opt)
             for j in range(d)]
    product = product_quantizer(small)

    grown = splitting_init(sample, space, n, exponent, seed, config=opt)
    refined, _ = optimize_codebook(opt, product, sample, exponent)
    joint, joint_cb = best([product, grown, refined], sample)

    full = []
    for j in range(d):
        cands = [splitting_init(marg_samples[j], msp, n, exponent, seed + 100 + j,
                                config=opt),
                 Codebook(space=msp, values=_dedup(joint_cb.values[:, j:j + 1, :]))]
        full.append(best(cands, marg_samples[j])[0])
    small_reps = [measure(small[j], marg_samples[j]) for j in range(d)]

    lower = (sum if norm == "lp" else max)(rep.value for rep in full)
    upper = sum(rep.value for rep in small_reps)
    sig = joint.stderr
    sig_low = _rss(rep.stderr for rep in full)
    sig_up = _rss(rep.stderr for rep in small_reps)
    holds = bool(lower <= joint.value + 3.0 * (sig + sig_low)
                 and joint.value <= upper + 3.0 * (sig + sig_up))
    return {
        "norm": norm, "exponent": exponent, "n": n, "sizes": sizes,
        "lower": lower, "joint": joint.value, "upper": upper,
        "sigma_joint": sig, "sigma_lower": sig_low, "sigma_upper": sig_up,
        "holds": holds,
        "marginal_errors_n": [rep.value ** (1.0 / exponent) for rep in full],
        "marginal_errors_small": [rep.value ** (1.0 / exponent) for rep in small_reps],
    }


def _rss(values) -> float:
    return float(np.sqrt(sum(v * v for v in values)))


def _dedup(values: np.ndarray) -> np.ndarray:
    """Distinct rows in order of first appearance."""
    _, first = np.unique(values.reshape(len(values), -1), axis=0, return_index=True)
    return values[np.sort(first)]


def run_diagnose(cfg: ExperimentConfig, seed: int, codebook_path: str,
                 out_dir: FsPath, dry_run: bool = False) -> int:
    space = cfg.build_space()
    with open(codebook_path, "rb") as fh:
        codebook = Codebook.from_binary(fh.read(), space)
    if dry_run:
        print(f"config ok: diagnose {codebook.n} atoms on m={space.m}, d={space.d}")
        return EXIT_OK
    sample = sample_paths(cfg.build_process_spec(), space, cfg.n_paths, seed)
    vor, files = assign(codebook, sample), []
    rep = vor.distortion(cfg.r)
    _write_reports(out_dir, cfg, codebook, rep, diagnostics._stationarity_from(vor, cfg.r), files)
    _write(out_dir, "manifest.json", _manifest(cfg, seed, files, {
        "codebook": str(codebook_path), "distortion": rep.value}))
    print(f"diagnose: distortion={rep.value:.6g} -> {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fquant",
        description="Functional quantization experiment runner")
    parser.add_argument("--print-schema", action="store_true",
                        help="print the config file schema and exit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the [sample] seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--dry-run", action="store_true",
                       help="validate the config, write nothing")
        p.add_argument("--print-schema", action="store_true")

    common(sub.add_parser("quantize", help="simulate, optimize and report"))
    o = sub.add_parser("oracle", help="run counterexample oracles")
    o.add_argument("selection", nargs="*",
                   help=f"subset of {ORACLE_NAMES} (default: all)")
    o.add_argument("--all", action="store_true")
    o.add_argument("--m", type=int, default=10, help="largest sharp-constant support (m >= 2)")
    o.add_argument("--out", default=None)
    common(sub.add_parser("bounds", help="marginal bound sandwich (d >= 2)"))
    dg = sub.add_parser("diagnose", help="diagnostics for a saved codebook")
    common(dg)
    dg.add_argument("--codebook", required=True, help="codebook .bin file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "print_schema", False):
        print(print_schema())
        return EXIT_OK
    if args.command is None:
        parser.print_usage()
        return EXIT_CONFIG

    if args.command != "oracle" and not args.config:
        print("error: --config is required (see --print-schema)", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG
    # a config that fails to load reports to --out, or to stderr without one
    stage, out_dir = "config", FsPath(args.out) if args.out else None
    try:
        if args.command == "oracle":
            stage, out_dir = "oracle", out_dir or FsPath("out")
            return run_oracles(list(args.selection) + (["all"] if args.all else []),
                               out_dir, m_sharp=args.m)
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None else cfg.seed
        stage, out_dir = args.command, out_dir or FsPath(cfg.values["output"]["dir"])
        if args.command == "quantize":
            return run_quantize(cfg, seed, out_dir, dry_run=args.dry_run)
        if args.command == "bounds":
            return run_bounds(cfg, seed, out_dir, dry_run=args.dry_run)
        return run_diagnose(cfg, seed, args.codebook, out_dir, dry_run=args.dry_run)
    except (ConfigError, OSError) as exc:
        _error_record(out_dir, stage, exc)
        return EXIT_CONFIG
    except (FquantError, np.linalg.LinAlgError, MemoryError) as exc:
        _error_record(out_dir, stage, exc)
        return EXIT_RUN


if __name__ == "__main__":
    sys.exit(main())
