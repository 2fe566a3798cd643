"""Discretized L^p path spaces: grids, quadrature weights, norms, duality map.

A path space is a time grid with strictly positive quadrature masses and a
norm exponent p.  A path is a d x m matrix of values on that grid, and every
norm, distance and gradient below reduces to weighted sums over the grid; no
interpolation happens anywhere in the package.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatchError, FquantError, NonSmoothNormError, ZeroPathError

_HEADER = struct.Struct("<qqqq")  # d, m, N, seed as little-endian int64


@dataclass(frozen=True)
class DiscretePathSpace:
    """Finite grid + quadrature weights for L^p paths with values in R^d.

    grid     : (m,) strictly increasing time points
    weights  : (m,) strictly positive quadrature masses approximating the
               underlying measure on the time interval
    p        : norm exponent, real >= 1 or infinity (the grid sup norm max |f_jk|)
    d        : coordinate dimension
    """

    grid: np.ndarray
    weights: np.ndarray
    p: float
    d: int = 1

    def __post_init__(self):
        grid = np.ascontiguousarray(np.asarray(self.grid, dtype=np.float64))
        weights = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "d", int(self.d))
        if grid.ndim != 1 or grid.size < 2:
            raise FquantError("grid must be a 1-d array with at least 2 nodes")
        if weights.shape != grid.shape:
            raise DimensionMismatchError(grid.shape, weights.shape, what="weights")
        if not np.all(np.isfinite(grid)) or not np.all(np.isfinite(weights)):
            raise FquantError("grid and weights must be finite")
        if np.any(np.diff(grid) <= 0):
            raise FquantError("grid must be strictly increasing")
        if np.any(weights <= 0):
            raise FquantError("quadrature weights must be strictly positive")
        if not 1 <= self.p <= np.inf:
            raise FquantError(f"norm exponent p must be >= 1, got {self.p}")
        if self.d < 1:
            raise FquantError(f"coordinate dimension d must be >= 1, got {self.d}")

    @property
    def m(self) -> int:
        return self.grid.size

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d, self.m)

    @property
    def total_mass(self) -> float:
        """Mass of the time interval under the quadrature measure."""
        return float(self.weights.sum())

    @property
    def span(self) -> float:
        return float(self.grid[-1] - self.grid[0])

    def with_p(self, p: float) -> "DiscretePathSpace":
        return replace(self, p=float(p))

    def with_d(self, d: int) -> "DiscretePathSpace":
        return replace(self, d=int(d))


def uniform_space(t_end: float, m: int, p: float = 2.0, d: int = 1) -> DiscretePathSpace:
    """Uniform grid on [0, t_end] with trapezoid weights for Lebesgue measure."""
    return weighted_space(t_end, m, np.ones_like, p=p, d=d)


def weighted_space(t_end: float, m: int, density, p: float = 2.0, d: int = 1) -> DiscretePathSpace:
    """Uniform grid on [0, t_end], trapezoid weights for the measure density(t) dt."""
    if m < 2:
        raise FquantError(f"grid needs at least 2 nodes, got m={m}")
    grid = np.linspace(0.0, t_end, m)
    dens = np.asarray(density(grid), dtype=np.float64)
    dt = t_end / (m - 1)
    trap = np.full(m, dt)
    trap[0] = trap[-1] = dt / 2.0
    return DiscretePathSpace(grid=grid, weights=trap * dens, p=p, d=d)


def exp_weighted_space(t_end: float, m: int, b: float, p: float = 2.0,
                       d: int = 1) -> DiscretePathSpace:
    """Grid on [0, t_end] carrying the measure e^{-b t} dt (trapezoid-combined)."""
    return weighted_space(t_end, m, lambda t: np.exp(-b * t), p=p, d=d)


@dataclass(frozen=True)
class Path:
    """One realization of the process on the grid: a d x m matrix."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim == 1:
            values = values.reshape(1, -1)
        if values.ndim != 2:
            raise FquantError(f"path values must be a d x m matrix, got ndim={values.ndim}")
        if not np.all(np.isfinite(values)):
            raise FquantError("path values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def d(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_function(cls, space: DiscretePathSpace, fn) -> "Path":
        """Sample fn on the grid; fn maps a (m,) time array to (m,) or (d, m) values."""
        vals = np.asarray(fn(space.grid), dtype=np.float64)
        if vals.ndim == 1:
            vals = np.tile(vals, (space.d, 1))
        return cls(values=vals)

    @classmethod
    def constant(cls, space: DiscretePathSpace, level: float) -> "Path":
        return cls(values=np.full((space.d, space.m), float(level)))

    @classmethod
    def zero(cls, space: DiscretePathSpace) -> "Path":
        return cls.constant(space, 0.0)


@dataclass(frozen=True)
class PathSample:
    """A seeded batch of N paths standing in for the law of the process.

    values      : (N, d, m) finite array, path i is values[i]: a read-only view, since what is
                  derived from it is kept (the p = 2 pass's norms, per weights); an array
                  it wraps without a copy is the caller's not to change afterwards
    seed        : top-level seed the batch was generated from
    process_tag : canonical identifier of the generating law
    """

    values: np.ndarray
    seed: int
    process_tag: str
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim == 2:
            values = values[:, None, :]
        if values.ndim != 3 or values.shape[0] < 1:
            raise FquantError(f"sample values must be (N, d, m) with N >= 1, got {values.shape}")
        if values.size and not np.isfinite([values.min(), values.max()]).all():
            raise FquantError("sample values must be finite")  # min, max: no (N, d, m) mask
        values = values.view()  # read-only here, the caller's array left as it is
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "seed", int(self.seed))

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def m(self) -> int:
        return self.values.shape[2]

    def path(self, i: int) -> Path:
        return Path(values=self.values[i])

    def coordinate(self, j: int) -> "PathSample":
        """Single-coordinate sub-sample (marginal process)."""
        return PathSample(values=self.values[:, j:j + 1, :], seed=self.seed,
                          process_tag=f"{self.process_tag}[coord={j}]")


def _check_shape(space: DiscretePathSpace, values: np.ndarray, what: str = "path"):
    if values.shape[-2:] != space.shape:
        raise DimensionMismatchError(space.shape, values.shape[-2:], what=what)


def lp_norm_values(space: DiscretePathSpace, values: np.ndarray) -> np.ndarray:
    """||f||_p for a (..., d, m) stack of path values; returns (...) array."""
    _check_shape(space, values)
    if space.p == np.inf:
        return np.abs(values).max(axis=(-2, -1))
    acc = np.abs(values) ** space.p @ space.weights
    return np.add.reduce(acc, axis=-1) ** (1.0 / space.p)


def lp_norm(space: DiscretePathSpace, f: Path) -> float:
    """The grid L^p norm ( sum_j sum_k |f_{jk}|^p w_k )^{1/p}; max_{jk} |f_{jk}| at p = inf."""
    return float(lp_norm_values(space, f.values))


def lp_dist(space: DiscretePathSpace, f: Path, g: Path) -> float:
    """Norm of the difference; symmetric, zero exactly when f = g on the grid."""
    if f.values.shape != g.values.shape:
        raise DimensionMismatchError(f.values.shape, g.values.shape, what="path pair")
    return float(lp_norm_values(space, f.values - g.values))


def norm_gradient(space: DiscretePathSpace, f: Path) -> Path:
    """Duality map of the L^p norm at f (1 < p < inf, f != 0).

    Entry (j, k) is (|f_{jk}| / ||f||_p)^{p-1} sign f_{jk}; as an element of
    the conjugate space it pairs with g through the weighted grid sum
    sum_{jk} grad_{jk} g_{jk} w_k, and pairing with f itself returns ||f||_p.
    """
    if not 1.0 < space.p < np.inf:
        raise NonSmoothNormError(f"the L^{space.p:g} norm has no gradient; need 1 < p < inf")
    _check_shape(space, f.values)
    norm = lp_norm(space, f)
    if norm == 0.0:
        raise ZeroPathError("norm gradient undefined at the zero path")
    vals = f.values
    return Path(values=(np.abs(vals) / norm) ** (space.p - 1.0) * np.sign(vals))


def dual_pairing(space: DiscretePathSpace, g: Path, f: Path) -> float:
    """Weighted grid pairing <g, f> = sum_j sum_k g_{jk} f_{jk} w_k."""
    _check_shape(space, f.values)
    _check_shape(space, g.values, what="dual element")
    return float(((g.values * f.values) @ space.weights).sum())


# ---------------------------------------------------------------------------
# Serialization: header (d, m, N, seed) as little-endian int64, then
# row-major float64 values.  The space itself (grid, weights) is not part of
# the layout; readers supply it.  Every JSON file is _to_json's text.
# ---------------------------------------------------------------------------

def _to_json(body: dict) -> str:
    """RFC 8259 JSON of body, keys sorted, arrays and tuples as lists, non-finite floats null."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        if isinstance(v, (list, tuple, np.ndarray)):
            return [plain(x) for x in (v.tolist() if isinstance(v, np.ndarray) else v)]
        return None if isinstance(v, float) and not np.isfinite(v) else v
    return json.dumps(plain(body), sort_keys=True, allow_nan=False)


def pack_paths(values: np.ndarray, seed: int = 0) -> bytes:
    """Binary encoding of a (N, d, m) stack of paths."""
    values = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if values.ndim == 2:
        values = values[None, :, :]
    n, d, m = values.shape
    return _HEADER.pack(d, m, n, int(seed)) + values.astype("<f8").tobytes(order="C")


def unpack_paths(data: bytes) -> tuple[np.ndarray, int]:
    """Inverse of pack_paths; returns ((N, d, m) values, seed)."""
    if len(data) < _HEADER.size:
        raise FquantError(f"binary payload has {len(data)} bytes, less than its header")
    d, m, n, seed = _HEADER.unpack_from(data, 0)
    expected = _HEADER.size + 8 * n * d * m
    if len(data) != expected:
        raise FquantError(f"binary payload has {len(data)} bytes, expected {expected}")
    flat = np.frombuffer(data, dtype="<f8", offset=_HEADER.size)
    return flat.reshape(n, d, m).astype(np.float64), seed


def save_sample(path, sample: PathSample):
    with open(path, "wb") as fh:
        fh.write(pack_paths(sample.values, seed=sample.seed))


def load_sample(path, process_tag: str = "loaded") -> PathSample:
    with open(path, "rb") as fh:
        values, seed = unpack_paths(fh.read())
    return PathSample(values=values, seed=seed, process_tag=process_tag)


def paths_to_csv(space: DiscretePathSpace, values: np.ndarray, header_prefix: str = "path") -> str:
    """CSV text with a t column and one column per (path, coordinate); small cases only."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 2:
        values = values[None, :, :]
    n, d, m = values.shape
    cols = ["t"] + [f"{header_prefix}{i}_c{j}" for i in range(n) for j in range(d)]
    lines = [",".join(cols)]
    flat = values.reshape(n * d, m)
    for k in range(m):
        row = [repr(float(space.grid[k]))] + [repr(float(v)) for v in flat[:, k]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
