"""Seeded samplers for the example processes, exact at grid nodes where possible.

Gaussian families (Brownian motion, bridge, stationary OU, fractional BM) are
drawn from their exact finite-dimensional laws at the grid nodes; the Levy
families (gamma, compound Poisson, symmetric stable) from exact independent
increments; general diffusions fall back to Euler-Maruyama on the space's own
grid.  Every sampler consumes a single generator derived from
(seed, process tag), so a sample is reproducible bit for bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import FquantError, SimulationError
from .path_space import DiscretePathSpace, PathSample, lp_norm_values
from .rng import derive_rng

FBM_JITTER = 1e-12

_OU_BLOCK = 2 ** 18  # floats per block of path rows: the OU recursion, the bridge's pinning

JUMP_LAWS = {
    "normal": lambda rng, size: rng.standard_normal(size),
    "uniform": lambda rng, size: rng.uniform(-1.0, 1.0, size),
    "exponential": lambda rng, size: rng.exponential(1.0, size),
}


@dataclass(frozen=True)
class ProcessSpec:
    """What to simulate: a process kind plus its kind-specific parameters.

    params by kind:
      brownian          -- none
      bridge            -- none (pinned to 0 at the final grid node)
      ou                -- c > 0, covariance exp(-c|s-t|), stationary start
      fbm               -- H in (0, 1)
      diffusion_euler   -- drift(t, x), diffusion(t, x) acting on (N, d) states
      gamma             -- a > 0 (rate; marginal at t is Gamma(shape=t, rate=a))
      compound_poisson  -- lam > 0, jump_law: name in JUMP_LAWS or callable
      stable_levy       -- rho in (0, 2), symmetric increments
    """

    kind: str
    params: dict = field(default_factory=dict)
    x0: float | tuple = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise FquantError(f"unknown process kind {self.kind!r}; known: {KINDS}")
        p, row = self.params, _KIND_TABLE[self.kind]
        if row.param is not None:
            name, ok, msg = row.param
            if name not in p:
                raise FquantError(f"{self.kind} requires parameter {name!r}")
            val = float(p[name])
            if not np.isfinite(val) or not ok(val):
                raise FquantError(f"{msg}, got {val}")
        if row.jumps:
            _resolve_jump_law(p)
        if self.kind == "diffusion_euler":
            if not callable(p.get("drift")) or not callable(p.get("diffusion")):
                raise FquantError("diffusion_euler requires drift and diffusion callables")
        if not np.all(np.isfinite(self.x0)):  # scalar or per coordinate
            raise FquantError(f"x0 must be finite, got {self.x0}")
        if self.kind not in ("brownian", "diffusion_euler") and np.any(np.asarray(self.x0) != 0.0):
            raise FquantError(f"{self.kind} starts at 0; x0 offsets apply to "
                              "brownian and diffusion_euler only")

    @property
    def tag(self) -> str:
        """Canonical identifier of the law; doubles as the sample's process_tag."""
        row = _KIND_TABLE[self.kind]
        if row.param is None:
            return self.kind
        name, law = row.param[0], self.params.get("jump_law", "normal")
        jumps = f",jumps={law if isinstance(law, str) else getattr(law, '__name__', 'custom')}"
        value = self.params[name]
        text = f"{value:g}" if float(f"{value:g}") == value else repr(float(value))  # one per law
        return f"{self.kind}({name}={text}{jumps if row.jumps else ''})"


def _x0_column(spec: ProcessSpec, d: int) -> np.ndarray:
    x0 = np.asarray(spec.x0, dtype=np.float64).reshape(-1)
    if x0.size == 1:
        x0 = np.full(d, x0[0])
    if x0.size != d:
        raise SimulationError(f"x0 has dimension {x0.size}, space has d={d}")
    return x0[:, None]


def _steps_from_zero(grid: np.ndarray) -> np.ndarray:
    """Increment durations [0,t_1], [t_1,t_2], ... for processes started at time 0."""
    if grid[0] < 0:
        raise SimulationError("processes started at time 0 need a grid with t >= 0")
    return np.diff(np.concatenate(([0.0], grid)))


def _brownian_values(rng, n_paths: int, space: DiscretePathSpace) -> np.ndarray:
    out = np.empty((n_paths, space.d, space.m))
    rng.standard_normal(out=out.reshape(-1))
    out *= np.sqrt(_steps_from_zero(space.grid))
    np.cumsum(out, axis=-1, out=out)
    return out


def _brownian_paths(rng, n_paths: int, space: DiscretePathSpace, spec: ProcessSpec) -> np.ndarray:
    out = _brownian_values(rng, n_paths, space)
    out += _x0_column(spec, space.d)
    return out


def _row_blocks(out: np.ndarray):
    """Consecutive (rows, m) views of the (N, d, m) array out, _OU_BLOCK floats each."""
    flat = out.reshape(-1, out.shape[-1])
    rows = max(1, _OU_BLOCK // flat.shape[1])
    return (flat[lo:lo + rows] for lo in range(0, len(flat), rows))


def _bridge_values(rng, n_paths: int, space: DiscretePathSpace, spec: ProcessSpec) -> np.ndarray:
    if space.grid[-1] <= 0:
        raise SimulationError("brownian bridge needs a grid ending at t_end > 0")
    out = _brownian_values(rng, n_paths, space)
    ramp = space.grid / space.grid[-1]
    for block in _row_blocks(out):  # the product's scratch is one block, not the sample
        block -= block[:, -1:] * ramp
    out[..., -1] = 0.0
    return out


def _ou_values(rng, n_paths: int, space: DiscretePathSpace, spec: ProcessSpec) -> np.ndarray:
    out = np.empty((n_paths, space.d, space.m))
    rng.standard_normal(out=out.reshape(-1))
    phi = np.exp(-float(spec.params["c"]) * np.diff(space.grid))
    sig = np.sqrt(1.0 - phi * phi)
    # the recursion runs along time; on a transposed block each step reads and
    # writes contiguous rows instead of strided columns
    for rows in _row_blocks(out):
        block = rows.T.copy()
        for k in range(space.m - 1):
            block[k + 1] = phi[k] * block[k] + sig[k] * block[k + 1]
        rows[...] = block.T
    return out


def fbm_covariance(t: np.ndarray, H: float) -> np.ndarray:
    s, u = np.meshgrid(t, t, indexing="ij")
    return 0.5 * (np.abs(s) ** (2 * H) + np.abs(u) ** (2 * H) - np.abs(s - u) ** (2 * H))


def _fbm_values(rng, n_paths: int, space: DiscretePathSpace, spec: ProcessSpec) -> np.ndarray:
    grid = space.grid
    if grid[0] < 0:
        raise SimulationError("fbm needs a grid with t >= 0")
    pos = grid > 0
    cov = fbm_covariance(grid[pos], float(spec.params["H"]))
    cov[np.diag_indices_from(cov)] += FBM_JITTER
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SimulationError(
            f"fbm covariance factorization failed even with the {FBM_JITTER:g} "
            "diagonal jitter fallback; grid may be too ill-conditioned") from exc
    z = rng.standard_normal((n_paths, space.d, int(pos.sum())))
    out = np.zeros((n_paths, space.d, space.m))
    out[..., pos] = z @ chol.T
    return out


def _diffusion_values(rng, n_paths: int, space: DiscretePathSpace, spec: ProcessSpec) -> np.ndarray:
    drift = spec.params["drift"]
    diffusion = spec.params["diffusion"]
    grid = space.grid
    out = np.empty((n_paths, space.d, space.m))
    out[..., 0] = _x0_column(spec, space.d).T
    z = rng.standard_normal((n_paths, space.d, space.m - 1))
    for k in range(space.m - 1):
        dt = grid[k + 1] - grid[k]
        x = out[..., k]
        out[..., k + 1] = (x + np.asarray(drift(grid[k], x)) * dt
                           + np.asarray(diffusion(grid[k], x)) * np.sqrt(dt) * z[..., k])
    return out


def _gamma_values(rng, n_paths: int, space: DiscretePathSpace, spec: ProcessSpec) -> np.ndarray:
    steps = _steps_from_zero(space.grid)
    inc = rng.gamma(np.broadcast_to(steps, (n_paths, 1, space.m)), 1.0 / float(spec.params["a"]))
    return np.cumsum(inc, axis=-1)


def _compound_poisson_increments(rng, lam: float, steps: np.ndarray, n_paths: int,
                                 jump_fn) -> tuple[np.ndarray, np.ndarray]:
    """Per-(path, step) increments and jump counts, from one generator."""
    counts = rng.poisson(lam * steps, size=(n_paths, steps.size))
    total = int(counts.sum())
    draws = jump_fn(rng, total)
    owner = np.repeat(np.arange(counts.size), counts.reshape(-1))
    inc = np.bincount(owner, weights=draws, minlength=counts.size)
    return inc.reshape(n_paths, steps.size), counts


def _resolve_jump_law(params: dict):
    law = params.get("jump_law", "normal")
    if callable(law):
        return law
    if law not in JUMP_LAWS:
        raise SimulationError(f"unknown jump law {law!r}; known: {sorted(JUMP_LAWS)}")
    return JUMP_LAWS[law]


def _compound_poisson_values(rng, n_paths: int, space: DiscretePathSpace,
                             spec: ProcessSpec) -> np.ndarray:
    steps = _steps_from_zero(space.grid)
    inc, _ = _compound_poisson_increments(rng, float(spec.params["lam"]), steps, n_paths,
                                          _resolve_jump_law(spec.params))
    return np.cumsum(inc, axis=-1)[:, None, :]


def standard_stable(rng, rho: float, size) -> np.ndarray:
    """Symmetric rho-stable variates via the Chambers-Mallows-Stuck transform."""
    v = rng.uniform(-np.pi / 2, np.pi / 2, size)
    w = rng.exponential(1.0, size)
    if rho == 1.0:
        return np.tan(v)
    return (np.sin(rho * v) / np.cos(v) ** (1.0 / rho)
            * (np.cos((1.0 - rho) * v) / w) ** ((1.0 - rho) / rho))


def _stable_values(rng, n_paths: int, space: DiscretePathSpace, spec: ProcessSpec) -> np.ndarray:
    rho = float(spec.params["rho"])
    steps = _steps_from_zero(space.grid)
    inc = standard_stable(rng, rho, (n_paths, 1, space.m)) * steps ** (1.0 / rho)
    return np.cumsum(inc, axis=-1)


class _Kind(NamedTuple):
    sampler: Callable           # (rng, n_paths, space, spec) -> (N, d, m) values
    param: tuple | None = None  # (name, test, message) of the one real parameter
    d1_only: bool = False       # the Levy samplers are implemented for d = 1 only
    jumps: bool = False         # a jump law, named in the tag


_KIND_TABLE = {
    "brownian": _Kind(_brownian_paths),
    "bridge": _Kind(_bridge_values),
    "ou": _Kind(_ou_values, ("c", lambda v: v > 0.0, "c must be > 0")),
    "fbm": _Kind(_fbm_values, ("H", lambda v: 0.0 < v < 1.0, "H must be in (0,1)")),
    "diffusion_euler": _Kind(_diffusion_values),
    "gamma": _Kind(_gamma_values, ("a", lambda v: v > 0.0, "a must be > 0"), d1_only=True),
    "compound_poisson": _Kind(_compound_poisson_values,
                              ("lam", lambda v: v > 0.0, "lam must be > 0"),
                              d1_only=True, jumps=True),
    "stable_levy": _Kind(_stable_values,
                         ("rho", lambda v: 0.0 < v < 2.0, "rho must be in (0,2)"), d1_only=True),
}
KINDS = tuple(_KIND_TABLE)


def sample_paths(spec: ProcessSpec, space: DiscretePathSpace, n_paths: int,
                 seed: int) -> PathSample:
    """Draw n_paths i.i.d. discrete paths of the process on the space's grid."""
    if n_paths < 1:
        raise SimulationError(f"n_paths must be >= 1, got {n_paths}")
    row = _KIND_TABLE[spec.kind]
    if row.d1_only and space.d != 1:
        raise SimulationError(f"{spec.kind} is implemented for d=1 spaces only")
    rng = derive_rng(seed, f"sample:{spec.tag}")
    return PathSample(values=row.sampler(rng, n_paths, space, spec), seed=seed,
                      process_tag=spec.tag)


@dataclass(frozen=True)
class MomentCheck:
    """E ||X||_p^r estimate with a half-sample stability gate."""

    value: float
    stable: bool
    finite: bool
    tag: str | None = None

    def __float__(self) -> float:
        return self.value


def moment_check(sample: PathSample, space: DiscretePathSpace, r: float) -> MomentCheck:
    """Estimate E ||X||_p^r and report (never raise) stability across half-samples:
    stable when the two half-sample means differ by at most 20% of the estimate."""
    if r <= 0:
        raise FquantError(f"moment order r must be > 0, got {r}")
    norms = lp_norm_values(space, sample.values) ** r
    value = float(norms.mean())
    half = len(norms) // 2
    h1 = float(norms[:half].mean()) if half else value
    h2 = float(norms[half:].mean()) if half else value
    scale = max(abs(value), 1e-300)
    stable = bool(np.isfinite(value) and abs(h1 - h2) <= 0.2 * scale)
    tag = None
    match = re.search(r"stable_levy\(rho=([0-9.eE+-]+)\)", sample.process_tag)
    if match and r >= float(match.group(1)):
        tag = "heavy-tail: r >= rho"
    return MomentCheck(value=value, stable=stable,
                       finite=bool(np.isfinite(value)), tag=tag)
