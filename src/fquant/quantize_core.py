"""Codebooks, Voronoi assignment, distortion and quantization-error estimates.

Distances between sample paths and atoms are computed brute force for every
(path, atom) pair, into a new (n, N) buffer whose (N, n) view pairwise_distances
returns.  At p = 2, ||x - a||^2 = ||x||^2 + ||a||^2 - 2 <x, a> over flattened
(N, d*m) rows: the buffer takes the norm sums (the paths' made once per sample and
kept on it), then adds in place the cross term, one matrix product with the atoms
scaled by -2.  Pairs where the sum cancels, or overflows to NaN (inf - inf), are
recomputed directly, so a path equal to an atom is at distance exactly 0; they are sought
only when the least entry is NaN or under the largest pair's bound.  Other p loop over
atoms on the same rows, reducing |x - a_i| by a weighted sum of p-th powers (binary
powering at integral p: p = 3 is a square and a multiply) or, at p = inf, the grid sup
norm, by its max.  The buffer has a row per atom, or
per path at p = 2 past _ATOM_ROWS_MAX atoms.  Every consumer reads a pass, with its
codebook and sample, through one VoronoiAssignment, whose reductions over atoms run
along those rows: a path's cell, the lowest atom at its best distance, is the top of
descending uint8 ranks on one == mask, 16 atom rows at a time (np.argmin on path rows).
Optimizers score a pass by distortion_value: the report's value, without the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, FquantError
from .path_space import (DiscretePathSpace, Path, PathSample, _check_shape, _to_json,
                         pack_paths, paths_to_csv, unpack_paths)

_CHUNK_BUDGET = 2 ** 20  # floats of scratch per chunk of sample rows
_ATOM_ROWS_MAX = 16  # atoms; past them np.argmin over a p = 2 pass's path rows is faster
_RANKS = np.arange(_ATOM_ROWS_MAX, 0, -1, dtype=np.uint8)[:, None]  # atom rows, top first


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
        if not np.isfinite(values).all():
            raise FquantError("codebook atoms must be finite")
        object.__setattr__(self, "values", values)
        if len(set(values[:, -1, -1].tolist())) == len(values):
            return  # distinct last entries (a set holds one of -0.0 and 0.0): distinct atoms
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


def _row_chunks(n_rows: int, per_row: int):
    """Consecutive row slices of at most _CHUNK_BUDGET // per_row rows (at least one)."""
    chunk = max(1, _CHUNK_BUDGET // per_row)
    return (slice(lo, lo + chunk) for lo in range(0, n_rows, chunk))


def _weighted_sq_norms(space: DiscretePathSpace, sample: PathSample) -> np.ndarray:
    """(N,) weighted squared L^2 norms of the sample paths, the p = 2 pass input: made once
    per (weights, sample) and kept on the sample, read-only, for every later pass."""
    _check_shape(space, sample.values, what="sample path")
    key = space.weights.tobytes()
    if key not in sample._derived:
        flat, wf = sample.values.reshape(len(sample), -1), np.tile(space.weights, space.d)
        sq = sample._derived[key] = np.concatenate(
            [np.square(flat[rows]) @ wf for rows in _row_chunks(len(sample), flat.shape[1])])
        sq.flags.writeable = False
    return sample._derived[key]


def _per_atom_pass(codebook: Codebook, sample: PathSample, reduce, n_bufs: int = 1) -> np.ndarray:
    """(n, N) reduce(|x - a_i|, *scratch) over flattened (N, d*m) rows, one atom at a time;
    |x - a_i| and n_bufs - 1 scratch buffers, made once per row chunk, may be overwritten."""
    _check_shape(codebook.space, sample.values, what="sample path")
    xf, af = sample.values.reshape(len(sample), -1), codebook.values.reshape(codebook.n, -1)
    out = np.empty((codebook.n, len(sample)))
    for rows in _row_chunks(len(sample), n_bufs * xf.shape[1] + codebook.n):
        buf, *scratch = np.empty((n_bufs,) + xf[rows].shape)
        for i, a in enumerate(af):
            out[i, rows] = reduce(np.abs(np.subtract(xf[rows], a, out=buf), out=buf), *scratch)
    return out


def pairwise_distances(codebook: Codebook, sample: PathSample) -> np.ndarray:
    """(N, n) distances from each sample path to each atom, in sample order: the
    transposed view of the (n, N) pass, a new array on every call."""
    space, wf = codebook.space, np.tile(codebook.space.weights, codebook.space.d)
    if space.p == np.inf:
        return _per_atom_pass(codebook, sample, lambda buf: buf.max(axis=1)).T
    if space.p != 2.0:
        p = space.p
        if not p.is_integer():
            acc = _per_atom_pass(codebook, sample, lambda buf: np.power(buf, p, out=buf) @ wf)
        else:
            def power_sum(buf, out):  # buf ** p by left-to-right binary powering, then @ wf
                res = buf
                for bit in bin(int(p))[3:]:
                    res = np.square(res, out=out)
                    if bit == "1":
                        np.multiply(res, buf, out=out)
                return res @ wf
            acc = _per_atom_pass(codebook, sample, power_sum, n_bufs=2)
        return np.power(acc, 1.0 / p, out=acc).T
    sample_sq = _weighted_sq_norms(space, sample)  # checks the sample's shape
    xf, af = sample.values.reshape(len(sample), -1), codebook.values.reshape(codebook.n, -1)
    aw, an, n = af * (-2.0 * wf), (af * af) @ wf, codebook.n  # the -2 of -2<x, a>: exact
    out = np.empty((n, len(sample))) if n <= _ATOM_ROWS_MAX else np.empty((len(sample), n)).T
    # rounding is monotone, so no entry's close bound below, 1e-13 (an_i + sq_j), exceeds cut
    cut = (an.max() + np.fmax.reduce(sample_sq)) * 1e-13
    for rows in _row_chunks(len(sample), 5 * n):  # scratch: < 5 (n, rows) floats
        d2, x = out[:, rows], xf[rows]
        np.add(an[:, None], sample_sq[rows], out=d2)  # the norms, then x @ aw.T at every n:
        np.add(d2, (x @ aw.T).T, out=d2)  # one BLAS orientation
        # the inner-product expansion cancels catastrophically for (near-)
        # coincident pairs; recompute those few entries directly so that
        # identical path/atom pairs come out at exactly zero
        if not np.minimum.reduce(d2, axis=None) > cut:  # else none is, nor NaN (inf - inf)
            close = ~(d2 > np.add(an[:, None], sample_sq[rows]) * 1e-13)  # NaN: recomputed
            paths, atoms = np.nonzero(close.T)  # path order: gemv bits move with row order
            diff = x[paths] - af[atoms]
            d2[atoms, paths] = (diff * diff) @ wf
    return np.sqrt(out, out=out).T  # each entry > 1e-13 norms >= 0, or a recomputed sum of squares


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
    def cell_index(self) -> np.ndarray:  # the lowest atom at the best distance, as np.argmin
        if self.dists.flags.c_contiguous:  # a path-major pass
            return np.argmin(self.dists, axis=1)
        # atom-major, by blocks of len(_RANKS) atom rows: a lower block, taken later, wins
        cells = None
        for lo in reversed(range(0, self.n_cells, len(_RANKS))):
            hits = (self.dists.T[lo:lo + len(_RANKS)] == self.best).view(np.uint8)
            hits *= _RANKS[-len(hits):]
            top = hits.max(axis=0)
            first = np.subtract(lo + len(hits), top, dtype=np.intp)
            cells = first if cells is None else np.where(top > 0, first, cells)
        return cells

    @cached_property
    def best(self) -> np.ndarray:  # (N,) distance from each path to its own atom
        d = self.dists
        return d[np.arange(len(d)), self.cell_index] if d.flags.c_contiguous else d.min(axis=1)

    @cached_property
    def tie_flags(self) -> np.ndarray:
        return (self.dists.T == self.best).sum(axis=0) > 1

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

    def _cell_distortion(self, r: float) -> np.ndarray:
        if not 0 < r < np.inf:
            raise FquantError(f"distortion order r must be finite and > 0, got {r}")
        return self.cell_sums(self.best ** r) / len(self.dists)

    def distortion_value(self, r: float) -> float:
        """distortion(r).value, without the rest of the report: an optimizer's score."""
        return float(self._cell_distortion(r).sum())

    def distortion(self, r: float) -> "DistortionReport":
        """Empirical mean of min_i ||x - a_i||^r over this pass, decomposed over its cells."""
        per_cell, N = self._cell_distortion(r), len(self.dists)
        stderr = float((self.best ** r).std(ddof=1) / np.sqrt(N)) if N > 1 else 0.0
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
        return _to_json(vars(self))

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
    p = space.p
    if not 1 <= r < np.inf or p == np.inf:
        raise FquantError(f"cross-exponent bounds need finite p and r >= 1, got p={p}, r={r}")
    mass = space.total_mass
    lo_exp, hi_exp = min(p, r), max(p, r)
    cb_lo = Codebook(space=space.with_p(lo_exp), values=codebook.values)
    cb_hi = Codebook(space=space.with_p(hi_exp), values=codebook.values)
    lower = mass ** (1.0 / p - 1.0 / lo_exp) * quant_error(cb_lo, sample, lo_exp)
    upper = mass ** (1.0 / p - 1.0 / hi_exp) * quant_error(cb_hi, sample, hi_exp)
    return lower, upper
