"""Codebooks, Voronoi assignment, distortion and quantization-error estimates.

Distances between sample paths and atoms are computed brute force for every
(path, atom) pair.  At p = 2 paths are flattened to (N, d*m) rows and
||x - a||^2 = ||x||^2 + ||a||^2 - 2 <x, a> takes the cross term as one matrix
product; callers making many passes over a sample supply its squared norms
once.  Pairs where the expansion cancels are recomputed directly, so a path
equal to an atom is at distance exactly 0.  Other p and the sup norm loop over
atoms on the same rows, reducing |x - a_i| by max or by a weighted sum of p-th
powers, taken by binary powering at integral p (p = 3: a square and a multiply).
Every consumer reads a pass, with its codebook and sample, through one VoronoiAssignment.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, FquantError
from .path_space import (DiscretePathSpace, Path, PathSample, pack_paths,
                         paths_to_csv, unpack_paths)

_CHUNK_BUDGET = 2 ** 20  # floats of scratch per chunk of sample rows


@dataclass(frozen=True)
class Codebook:
    """An ordered n-tuple of candidate paths (the quantizer) in a given space."""

    space: DiscretePathSpace
    values: np.ndarray  # (n, d, m)

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim == 2:
            values = values[None, :, :]
        if values.ndim != 3 or values.shape[0] < 1:
            raise FquantError(f"codebook values must be (n, d, m), got {values.shape}")
        if values.shape[1:] != self.space.shape:
            raise DimensionMismatchError(self.space.shape, values.shape[1:], what="atom")
        if not np.all(np.isfinite(values)):
            raise FquantError("codebook atoms must be finite")
        object.__setattr__(self, "values", values)
        # distinct atoms, compared as byte rows: + 0.0 turns -0.0 into 0.0 so bytes match ==
        flat = values.reshape(len(values), -1) + 0.0
        rows = flat.view(np.dtype((np.void, flat.itemsize * flat.shape[1]))).ravel()
        order = rows.argsort(kind="stable")  # equal atoms end up adjacent, in index order
        same = rows[order[1:]] == rows[order[:-1]]
        if np.any(same):  # report the lowest pair
            k = np.argmin(np.where(same, order[:-1], len(order)))
            raise FquantError(f"duplicate atoms at indices {order[k]} and {order[k + 1]}")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def atom(self, i: int) -> Path:
        return Path(values=self.values[i])

    def with_values(self, values: np.ndarray) -> "Codebook":
        return Codebook(space=self.space, values=values)

    def to_binary(self) -> bytes:
        return pack_paths(self.values)

    @classmethod
    def from_binary(cls, data: bytes, space: DiscretePathSpace) -> "Codebook":
        values, _ = unpack_paths(data)
        return cls(space=space, values=values)

    def to_csv(self) -> str:
        return paths_to_csv(self.space, self.values, header_prefix="atom")


def codebook_from_paths(space: DiscretePathSpace, paths) -> Codebook:
    values = np.stack([p.values if isinstance(p, Path) else np.asarray(p) for p in paths])
    return Codebook(space=space, values=values)


def _check_sample(space: DiscretePathSpace, sample: PathSample):
    if sample.values.shape[1:] != space.shape:
        raise DimensionMismatchError(space.shape, sample.values.shape[1:], what="sample path")


def _row_chunks(n_rows: int, per_row: int):
    """Consecutive row slices of at most _CHUNK_BUDGET // per_row rows (at least one)."""
    chunk = max(1, _CHUNK_BUDGET // per_row)
    return (slice(lo, lo + chunk) for lo in range(0, n_rows, chunk))


def _weighted_sq_norms(space: DiscretePathSpace, sample: PathSample) -> np.ndarray:
    """(N,) weighted squared L^2 norms of the sample paths, the p = 2 pass input."""
    _check_sample(space, sample)
    flat = sample.values.reshape(len(sample), -1)
    wf = np.tile(space.weights, space.d)
    return np.concatenate([np.square(flat[rows]) @ wf
                           for rows in _row_chunks(len(sample), flat.shape[1])])


def _dist_block(x: np.ndarray, atoms: np.ndarray, space: DiscretePathSpace,
                xn: np.ndarray) -> np.ndarray:
    """(chunk, n) p = 2 distances from path block x to atoms; xn: x's squared norms."""
    wf = np.tile(space.weights, space.d)
    xf = x.reshape(len(x), -1)
    af = atoms.reshape(len(atoms), -1)
    norms = np.add.outer(xn, (af * af) @ wf)
    d2 = norms - 2.0 * (xf @ (af * wf).T)
    # the inner-product expansion cancels catastrophically for (near-)
    # coincident pairs; recompute those few entries directly so that
    # identical path/atom pairs come out at exactly zero
    close = d2 <= 1e-13 * norms
    if np.any(close):
        rows, cols = np.nonzero(close)
        diff = xf[rows] - af[cols]
        d2[rows, cols] = (diff * diff) @ wf
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)


def _per_atom_pass(codebook: Codebook, sample: PathSample, reduce, n_bufs: int = 1) -> np.ndarray:
    """(N, n) reduce(|x - a_i|, *scratch) over flattened (N, d*m) rows, one atom at a time;
    |x - a_i| and n_bufs - 1 scratch buffers, made once per row chunk, may be overwritten."""
    _check_sample(codebook.space, sample)
    xf = sample.values.reshape(len(sample), -1)
    af = codebook.values.reshape(codebook.n, -1)
    out = np.empty((len(sample), codebook.n))
    for rows in _row_chunks(len(sample), n_bufs * xf.shape[1] + codebook.n):
        buf, *scratch = np.empty((n_bufs,) + xf[rows].shape)
        for i, a in enumerate(af):
            out[rows, i] = reduce(np.abs(np.subtract(xf[rows], a, out=buf), out=buf), *scratch)
    return out


def pairwise_distances(codebook: Codebook, sample: PathSample,
                       sample_sq: np.ndarray | None = None) -> np.ndarray:
    """(N, n) distances from each sample path to each atom, in sample order.

    sample_sq: the sample's _weighted_sq_norms, for callers making many p = 2 passes.
    """
    space, atoms, x = codebook.space, codebook.values, sample.values
    if space.p != 2.0:
        wf, p = np.tile(space.weights, space.d), space.p
        if not p.is_integer():
            acc = _per_atom_pass(codebook, sample, lambda buf: np.power(buf, p, out=buf) @ wf)
        else:
            def power_sum(buf, out):  # buf ** p by left-to-right binary powering, then @ wf
                res = buf
                for bit in bin(int(p))[3:]:
                    res = np.multiply(res, res, out=out)
                    if bit == "1":
                        np.multiply(res, buf, out=out)
                return res @ wf
            acc = _per_atom_pass(codebook, sample, power_sum, n_bufs=2)
        return np.power(acc, 1.0 / p, out=acc)
    _check_sample(space, sample)
    if sample_sq is None:
        sample_sq = _weighted_sq_norms(space, sample)
    out = np.empty((len(sample), codebook.n))
    for rows in _row_chunks(len(sample), 5 * codebook.n):  # the block's scratch: ~5 (rows, n)
        out[rows] = _dist_block(x[rows], atoms, space, sample_sq[rows])
    return out


@dataclass(frozen=True)
class VoronoiAssignment:
    """Voronoi partition of a sample by a codebook, from their (N, n) distance pass: each path's
    cell (nearest atom, exact ties to the lowest index), best distance, tie flag and sums."""

    codebook: Codebook
    sample: PathSample
    dists: np.ndarray  # (N, n)

    @property
    def n_cells(self) -> int:
        return self.dists.shape[1]

    @cached_property
    def cell_index(self) -> np.ndarray:
        return np.argmin(self.dists, axis=1)

    @cached_property
    def best(self) -> np.ndarray:  # (N,) distance from each path to its own atom
        return self.dists[np.arange(len(self.dists)), self.cell_index]

    @cached_property
    def tie_flags(self) -> np.ndarray:
        return (self.dists == self.best[:, None]).sum(axis=1) > 1

    @cached_property
    def counts(self) -> np.ndarray:
        return self.cell_sums()

    def cell_sums(self, weights: np.ndarray | None = None) -> np.ndarray:
        """(n,) per-cell sums of per-path weights; path counts without weights."""
        return np.bincount(self.cell_index, weights=weights, minlength=self.n_cells)

    def cell_masses(self) -> np.ndarray:
        return self.counts / len(self.dists)

    @property
    def tie_mass(self) -> float:
        return float(self.tie_flags.mean())

    def distortion(self, r: float) -> "DistortionReport":
        """Empirical mean of min_i ||x - a_i||^r over this pass, decomposed over its cells."""
        if r <= 0:
            raise FquantError(f"distortion order r must be > 0, got {r}")
        N = len(self.dists)
        contrib = self.best ** r
        per_cell = self.cell_sums(contrib) / N
        stderr = float(contrib.std(ddof=1) / np.sqrt(N)) if N > 1 else 0.0
        return DistortionReport(value=float(per_cell.sum()), per_cell_mass=self.cell_masses(),
                                per_cell_distortion=per_cell, stderr=stderr, r=float(r))


def assign(codebook: Codebook, sample: PathSample) -> VoronoiAssignment:
    """Map each path to its nearest atom; exact distance ties go to the lowest index."""
    return VoronoiAssignment(codebook, sample, pairwise_distances(codebook, sample))


@dataclass(frozen=True)
class DistortionReport:
    """Empirical distortion E min_i ||X - a_i||^r with its cell decomposition."""

    value: float
    per_cell_mass: np.ndarray
    per_cell_distortion: np.ndarray
    stderr: float
    r: float

    def to_json(self) -> str:
        return json.dumps({
            "value": self.value,
            "r": self.r,
            "stderr": self.stderr,
            "per_cell_mass": self.per_cell_mass.tolist(),
            "per_cell_distortion": self.per_cell_distortion.tolist(),
        }, sort_keys=True)

    def error_with_stderr(self) -> tuple[float, float]:
        """value^(1/r) with its delta-method standard error."""
        err = self.value ** (1.0 / self.r)
        if self.value <= 0:
            return err, 0.0
        return err, self.stderr / (self.r * self.value ** ((self.r - 1.0) / self.r))


def distortion(codebook: Codebook, sample: PathSample, r: float) -> DistortionReport:
    """Empirical mean of min_i ||x - a_i||^r, decomposed over Voronoi cells."""
    return assign(codebook, sample).distortion(r)


def quant_error(codebook: Codebook, sample: PathSample, r: float) -> float:
    """distortion^(1/r) on this sample.  On the sample the codebook was fitted to, it is
    biased low as an estimate of the codebook's error on the process."""
    return distortion(codebook, sample, r).value ** (1.0 / r)


def sup_pairwise_distances(codebook: Codebook, sample: PathSample) -> np.ndarray:
    """(N, n) sup-norm distances max_{j,k} |x_{jk} - a_{jk}|, chunked over paths."""
    return _per_atom_pass(codebook, sample, lambda buf: buf.max(axis=1))


def sup_distortion(codebook: Codebook, sample: PathSample, r: float) -> DistortionReport:
    """Empirical E min_i ||X - a_i||_sup^r: the sup-norm analogue of distortion."""
    vor = VoronoiAssignment(codebook, sample, sup_pairwise_distances(codebook, sample))
    return vor.distortion(r)


def quantize_paths(codebook: Codebook, sample: PathSample) -> PathSample:
    """Replace each path by its assigned atom (the quantized version of the sample)."""
    cells = assign(codebook, sample).cell_index
    return PathSample(values=codebook.values[cells], seed=sample.seed,
                      process_tag=f"quantized[n={codebook.n}]:{sample.process_tag}")


def cross_exponent_bounds(sample: PathSample, space: DiscretePathSpace,
                          codebook: Codebook, r: float) -> tuple[float, float]:
    """Empirical sandwich relating the (L^r, L^p) error to the p^r and p^vr ones.

    Re-measures the same atoms under the exponents p^r := min(p, r) and
    pvr := max(p, r), with outer moment matching the inner exponent, and scales
    by total_mass^(1/p - 1/exponent).  Pathwise Hoelder plus outer-moment
    monotonicity make lower <= quant_error(codebook, sample, r) <= upper an
    algebraic identity on any fixed sample.
    """
    if r < 1:
        raise FquantError(f"cross-exponent bounds need r >= 1, got {r}")
    p = space.p
    mass = space.total_mass
    lo_exp, hi_exp = min(p, r), max(p, r)
    cb_lo = Codebook(space=space.with_p(lo_exp), values=codebook.values)
    cb_hi = Codebook(space=space.with_p(hi_exp), values=codebook.values)
    lower = mass ** (1.0 / p - 1.0 / lo_exp) * quant_error(cb_lo, sample, lo_exp)
    upper = mass ** (1.0 / p - 1.0 / hi_exp) * quant_error(cb_hi, sample, hi_exp)
    return lower, upper
