"""Functional quantization of stochastic processes on discretized L^p path spaces."""

from .path_space import (DiscretePathSpace, Path, PathSample, dual_pairing,
                         exp_weighted_space, lp_dist, lp_norm, norm_gradient,
                         uniform_space, weighted_space)
from .process_sim import (MomentCheck, ProcessSpec, intrinsic_semimetric,
                          moment_check, sample_paths)
from .quantize_core import (Codebook, DistortionReport, VoronoiAssignment,
                            assign, codebook_from_paths, cross_exponent_bounds,
                            distortion, quant_error, quantize_paths)
from .optimize import (OptimizerConfig, OptimizeTrace, default_config_for,
                       distortion_differential, lloyd_run, lloyd_step,
                       optimize_codebook, product_quantizer, sgd_run,
                       splitting_init)
from .diagnostics import (HolderFit, MonotonicityReport, StationarityReport,
                          boundary_pinning, holder_fit, monotonicity_check,
                          stationarity_residual)
from .rng import derive_rng

__version__ = "0.1.0"

__all__ = [
    "DiscretePathSpace", "Path", "PathSample", "uniform_space", "weighted_space",
    "exp_weighted_space", "lp_norm", "lp_dist", "norm_gradient", "dual_pairing",
    "ProcessSpec", "sample_paths", "intrinsic_semimetric", "moment_check",
    "MomentCheck",
    "Codebook", "VoronoiAssignment", "DistortionReport", "assign", "distortion",
    "quant_error", "quantize_paths", "cross_exponent_bounds", "codebook_from_paths",
    "OptimizerConfig", "OptimizeTrace", "lloyd_step", "lloyd_run", "sgd_run",
    "optimize_codebook", "splitting_init", "product_quantizer", "default_config_for",
    "distortion_differential",
    "StationarityReport", "MonotonicityReport", "HolderFit",
    "stationarity_residual", "monotonicity_check", "holder_fit", "boundary_pinning",
    "oracles", "derive_rng",
]


def __getattr__(name: str):
    """fquant.oracles on first use (PEP 562): quantize, diagnose and bounds never compile it."""
    if name == "oracles":
        from importlib import import_module  # not `from . import`: that asks __getattr__
        return import_module(f"{__name__}.oracles")  # and binds fquant.oracles
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
