"""Codebook optimization: Lloyd fixed-point iteration, stochastic gradient
descent on the distortion differential, greedy splitting initialization, and
cartesian product quantizers.

Where each method runs is written only in ``_runs_at``, and each method's
default iteration budget only in ``DEFAULT_MAX_ITERS``.  Empty cells are
treated as bad iterates, not valid states: before each centroid update the
atom of an empty cell is re-split from the cell carrying the largest
distortion share.  Iterates are scored by distortion value alone (SGD's also by
its tol test, which reads diagnostics' one-node floor of the max residual first and runs the
stationarity kernel only where the floor is below tol); a run builds its reports once, from its
final pass, the stationarity one on first read, so splitting stages build no such report.
A Lloyd iteration makes its (n, N) pass, the pass's reductions and its two matrix products
new; the one-hot behind the cell sums is made once per run and rewritten where cells moved.
SGD steps run in blocks of max_iters // 25, one per evaluation, in buffers made once per run:
each ufunc takes its output positionally, each in-place power is the ufunc ``**=`` picks, the
sign one copysign (an atom's -0.0 under a path's +0.0 turns +0.0), the winner min() of norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .diagnostics import StationarityReport, _integrand_means, _stationarity_from, pass_scores
from .errors import DivergenceError, FquantError, OptimizeError
from .path_space import DiscretePathSpace, PathSample
from .quantize_core import (Codebook, DistortionReport, VoronoiAssignment, assign, distortion,
                            pairwise_distances)
from .rng import derive_rng

DEFAULT_MAX_ITERS = {"lloyd": 200, "sgd": 20_000}
PRODUCT_CAP = 4096  # most atoms product_quantizer builds


@dataclass(frozen=True)
class OptimizerConfig:
    method: str                     # a key of DEFAULT_MAX_ITERS
    max_iters: int
    tol: float = 1e-9               # relative distortion-improvement threshold
    sgd_c0: float | None = None     # step schedule c0 / (1 + decay * k)
    sgd_decay: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.method not in DEFAULT_MAX_ITERS:
            raise FquantError(f"unknown method {self.method!r}; "
                              f"use one of {tuple(DEFAULT_MAX_ITERS)}")
        if self.max_iters < 1:
            raise FquantError("max_iters must be >= 1")
        if not 0 < self.tol < np.inf:
            raise FquantError("tol must be finite and > 0")
        if self.sgd_c0 is not None and not 0 < self.sgd_c0 < np.inf:
            raise FquantError("sgd_c0 must be finite and > 0")
        if self.sgd_decay is not None and not 0 <= self.sgd_decay < np.inf:
            raise FquantError("sgd_decay must be finite and >= 0")


@dataclass
class OptimizeTrace:
    distortions: list[float] = field(default_factory=list)
    iterations: int = 0
    empty_cell_events: list[tuple[int, int]] = field(default_factory=list)
    exit_reason: str = ""
    final_distortion: DistortionReport | None = None  # of the last codebook scored
    _final_pass: VoronoiAssignment | None = field(default=None, repr=False, compare=False)

    def _end(self, reason: str, vor: VoronoiAssignment | None, r: float) -> None:
        """Record the exit; build the report of the last scored pass, if any, and keep it."""
        self.exit_reason = reason
        if vor is not None:
            self.final_distortion, self._final_pass = vor.distortion(r), vor

    @cached_property
    def final_stationarity(self) -> StationarityReport | None:
        """The last scored codebook's, from its kept pass on first read; None where r < p."""
        if self._final_pass is not None:
            return _stationarity_from(self._final_pass, self.final_distortion.r)

    @property
    def exit_residual(self) -> float:
        stat = self.final_stationarity
        return stat.max_residual if stat is not None else float("nan")

    def to_csv(self) -> str:
        lines = ["iteration,distortion,residual"]
        last = len(self.distortions) - 1
        for k, dv in enumerate(self.distortions):
            res = repr(self.exit_residual) if k == last else ""
            lines.append(f"{k},{dv!r},{res}")
        return "\n".join(lines) + "\n"


def _runs_at(method: str, p: float, r: float) -> bool:
    """Lloyd runs where the weighted-centroid fixed point exists, SGD where the norm is smooth."""
    return (p == 2.0 and r >= 2.0) if method == "lloyd" else (1.0 < p < np.inf and r >= 1.0)


def _split_toward_farthest(vor: VoronoiAssignment, donor: int) -> np.ndarray:
    """The donor atom moved halfway toward the farthest path in its cell."""
    in_donor = np.flatnonzero(vor.cell_index == donor)
    far = in_donor[int(np.argmax(vor.best[in_donor]))]
    if vor.best[far] <= 0:
        raise OptimizeError("cannot split: donor cell has zero radius "
                            "(fewer distinct paths than atoms?)")
    atom = vor.codebook.values[donor]
    return atom + 0.5 * (vor.sample.values[far] - atom)


def _repair_empty_cells(vor: VoronoiAssignment, r: float, events: list,
                        iteration: int) -> VoronoiAssignment:
    """Re-split each atom whose cell is empty from the cell of largest distortion
    share; returns the pass of the repaired codebook, redone whenever an atom moves."""
    for _ in range(vor.n_cells + 1):
        if vor.counts.all():
            return vor
        dead = int(np.argmin(vor.counts))  # the first empty cell
        events.append((iteration, dead))
        donor = int(np.argmax(vor.cell_sums(vor.best ** r)))
        values = vor.codebook.values.copy()
        values[dead] = _split_toward_farthest(vor, donor)
        vor = assign(vor.codebook.with_values(values), vor.sample)
    raise OptimizeError("empty-cell repair did not converge")


def _centroids(vor: VoronoiAssignment, r: float, work: dict | None = None) -> np.ndarray:
    """Cell centroids with path weights ||x - a_i||^(r-2), as one (n, N) @ (N, d*m)
    product.  At r = 2 work keeps the one-hot for the next call, which rewrites it only
    where a path's cell moved.  A cell of zero total weight holds only its atom's
    copies: kept."""
    values, cells = vor.codebook.values, vor.cell_index
    n, N = vor.n_cells, len(cells)
    weights = 1.0 if r == 2.0 else vor.best ** (r - 2.0)
    work = work if work is not None and r == 2.0 else {}
    onehot, held = work.get("onehot") or (np.zeros((n, N)), None)  # held: its cells
    moved = np.arange(N) if held is None else np.flatnonzero(cells != held)
    if held is not None:
        onehot[held[moved], moved] = 0.0
    onehot[cells[moved], moved] = weights
    work["onehot"] = onehot, cells
    sums = onehot @ vor.sample.values.reshape(N, -1)
    total = (vor.counts if r == 2.0 else vor.cell_sums(weights))[:, None]
    out = values.reshape(n, -1).copy()
    np.divide(sums, total, out=out, where=total > 0)
    return out.reshape(values.shape)


def lloyd_step(codebook: Codebook, sample: PathSample, r: float = 2.0,
               _events: list | None = None, _iteration: int = 0,
               _pass: VoronoiAssignment | None = None, _work: dict | None = None) -> Codebook:
    """One fixed-point update: each atom becomes its cell's weighted centroid.

    Cell weights are ||x - a_i||^(r-2); r = 2 gives the plain cell mean.  Only
    valid on p = 2 spaces with r >= 2, where the centroid condition is the
    stationarity equation in closed form.
    """
    space = codebook.space
    if not _runs_at("lloyd", space.p, r):
        raise OptimizeError(f"lloyd_step does not run at p={space.p}, r={r}")
    vor = _repair_empty_cells(_pass if _pass is not None else assign(codebook, sample), r,
                              _events if _events is not None else [], _iteration)
    return Codebook(space=space, values=_centroids(vor, r, _work))


def lloyd_run(config: OptimizerConfig, init: Codebook, sample: PathSample,
              r: float = 2.0) -> tuple[Codebook, OptimizeTrace]:
    """Iterate lloyd_step until the relative distortion improvement drops below tol.

    One distance pass per moving iteration, scored by its distortion value alone, is the
    next step's assignment and, at exit, the reports'.  An iteration makes that (n, N) pass,
    its reductions (best distances, cells, counts) and its two matrix products (the pass's
    cross term, the cell sums) new; the (n, N) one-hot is made once per run and rewritten
    only where cells moved.  The sample's norms are made once per sample.
    """
    trace, reason, work = OptimizeTrace(), "max_iters", {}
    vor = VoronoiAssignment(init, sample, pairwise_distances(init, sample))
    cur = vor.distortion_value(r)
    trace.distortions.append(cur)
    for k in range(config.max_iters):
        prev = cur
        nxt = lloyd_step(vor.codebook, sample, r, _events=trace.empty_cell_events,
                         _iteration=k, _pass=vor, _work=work)
        unchanged = np.array_equal(nxt.values, vor.codebook.values)
        if not unchanged:  # a fixed point keeps its pass and its score
            vor = VoronoiAssignment(nxt, sample, pairwise_distances(nxt, sample))
            cur = vor.distortion_value(r)
        trace.distortions.append(cur)
        trace.iterations = k + 1
        if unchanged or abs(prev - cur) <= config.tol * max(prev, 1e-300):
            reason = "fixed_point" if unchanged else "tol"
            break
    trace._end(reason, vor, r)
    return vor.codebook, trace


def _ipow(x: np.ndarray, e: float) -> tuple:
    """(ufunc, args): ufunc(*args) is ``x **= e`` bit for bit, by the ufunc __ipow__ picks."""
    fast = {0.5: np.sqrt, 1.0: np.positive, 2.0: np.square}.get(e)
    return (fast, (x, x)) if fast else (np.power, (x, e, x))


def sgd_run(config: OptimizerConfig, init: Codebook, sample: PathSample,
            r: float) -> tuple[Codebook, OptimizeTrace]:
    """Competitive-learning descent on the distortion differential.

    Each step draws one path x, finds its nearest atom a_i and moves it by
    -((step_k r) ||x - a_i||^(r-1)) grad||.||_p(a_i - x), the dual element's grid values.
    Exits on max_iters or when the max stationarity residual of a block's pass drops below tol.
    The test reads the residual's one-node floor first and runs the stationarity kernel only
    where the floor is below tol; a floor at or above tol proves the residual is too.
    """
    space, p = init.space, init.space.p
    if not _runs_at("sgd", p, r):
        raise OptimizeError(f"sgd_run does not run at p={p}, r={r}")
    rng, values, trace = derive_rng(config.seed, "sgd"), init.values.copy(), OptimizeTrace()
    vor, last = assign(init, sample), None  # last: the last accepted evaluation's pass
    d0 = vor.distortion_value(r)
    trace.distortions.append(d0)
    scale = d0 ** (1.0 / r) if d0 > 0 else 1.0
    if r == 1.0 and np.any(vor.best == 0.0):
        raise OptimizeError("r = 1 needs a sample with no path equal to an atom")
    c0 = config.sgd_c0 if config.sgd_c0 is not None else 0.1 * scale ** (2.0 - r)
    decay = config.sgd_decay if config.sgd_decay is not None else 1.0 / len(sample)
    eval_every = max(1, config.max_iters // 25)
    draws = rng.integers(len(sample), size=config.max_iters)  # same stream as one per step
    rates = c0 / (1.0 + decay * np.arange(config.max_iters)) * r  # step_k * r
    diff, absd, pw = np.empty((3,) + values.shape)  # x - a, |x - a|, |x - a|^p
    grad, sums = np.empty(values.shape[1:]), np.empty(values.shape[:2])
    norms = sums[:, 0] if space.d == 1 else np.empty(len(values))  # d = 1: no sum over d
    (root, root_at), (grow, grow_at) = _ipow(norms, 1.0 / p), _ipow(grad, p - 1.0)
    rows, rm1, xs, w = list(zip(values, diff, absd)), r - 1.0, sample.values, space.weights
    sub, absolute, matmul, power, mul = np.subtract, np.abs, np.matmul, np.power, np.multiply
    for start in range(0, config.max_iters, eval_every):  # one block per evaluation
        stop = min(start + eval_every, config.max_iters)
        for j, rate in zip(memoryview(draws)[start:stop], memoryview(rates)[start:stop]):
            sub(values, xs[j], diff)  # local ufuncs, outputs positional: each call costs less
            absolute(diff, absd)  # |x - a|, for the norm and for the gradient
            matmul(power(absd, p, pw), w, sums)
            if space.d > 1:
                np.add.reduce(sums, -1, None, norms)
            root(*root_at)  # norms **= 1 / p, as lp_norm_values' **
            near = norms.tolist()
            dist = min(near)  # argmin's atom, unless a NaN comes first
            if dist > 0.0:
                atom, dif, ab = rows[near.index(dist)]
                np.divide(ab, dist, grad)
                grow(*grow_at)  # grad **= p - 1
                np.copysign(grad, dif, grad)
                try:
                    mul(grad, rate * dist ** rm1, grad)
                except OverflowError:  # a float power raises where numpy's gives inf
                    mul(grad, np.inf, grad)
                sub(atom, grad, atom)
        trace.iterations = stop
        if not np.all(np.isfinite(values)):
            trace._end("diverged", last, r)
            raise DivergenceError(f"non-finite atoms at iteration {stop}", trace=trace)
        cb = Codebook(space=space, values=values.copy())  # frozen: values keeps moving
        vor, value, below_tol = pass_scores(cb, sample, r, config.tol)
        trace.distortions.append(value)
        if value > 10.0 * d0:
            trace._end("diverged", last, r)
            raise DivergenceError(
                f"distortion {value:.6g} exceeded 10x initial {d0:.6g}", trace=trace)
        last = vor
        if below_tol:
            trace._end("tol", vor, r)
            return cb, trace
    # the last iteration is always checked, so cb and its pass are current
    trace._end("max_iters", vor, r)
    return cb, trace


def distortion_differential(codebook: Codebook, sample: PathSample,
                            r: float) -> np.ndarray:
    """Gateaux differential of the empirical distortion at the codebook.

    Returns an (n, d, m) stack of dual elements; the derivative of the
    distortion in direction h_i (a perturbation of atom i alone) is the
    weighted grid pairing of differential[i] with h_i.  Entry-wise,

        diff[i] = (r / N) sum_{x in cell i, x != a_i}
                  ||x - a_i||_p^(r-p) |a_i - x|^(p-1) sign(a_i - x)

    which is r times the stationarity integrand mean.  Needs 1 < p < inf and an
    admissible codebook (no ties, and no coincident path when r = 1).
    """
    p = codebook.space.p
    if not _runs_at("sgd", p, r):  # SGD descends this differential
        raise OptimizeError(f"the distortion differential does not exist at p={p}, r={r}")
    return r * _integrand_means(assign(codebook, sample), r)


def optimize_codebook(config: OptimizerConfig, init: Codebook, sample: PathSample,
                      r: float) -> tuple[Codebook, OptimizeTrace]:
    if config.method == "lloyd":
        return lloyd_run(config, init, sample, r)
    return sgd_run(config, init, sample, r)


def default_config_for(space: DiscretePathSpace, r: float, seed: int = 0) -> OptimizerConfig:
    """The one place the method is chosen: Lloyd where it runs, SGD otherwise,
    with the method's DEFAULT_MAX_ITERS."""
    method = "lloyd" if _runs_at("lloyd", space.p, r) else "sgd"
    return OptimizerConfig(method=method, max_iters=DEFAULT_MAX_ITERS[method], seed=seed)


def splitting_init(sample: PathSample, space: DiscretePathSpace, n: int, r: float,
                   seed: int, config: OptimizerConfig | None = None,
                   return_stages: bool = False):
    """Grow a codebook 1, 2, ..., n, re-optimizing after each greedy split.

    The split clones the atom whose cell carries the largest distortion share,
    offset by a small multiple of a path drawn from the sample; if the split
    fails to strictly improve, it falls back to pushing the clone halfway
    toward the donor cell's farthest path, which always captures that path.
    """
    if n < 1:
        raise OptimizeError(f"n must be >= 1, got {n}")
    rng = derive_rng(seed, "splitting_init")
    mean_path = sample.values.mean(axis=0)
    cb = Codebook(space=space, values=mean_path[None])
    base = config or default_config_for(space, r, seed=seed)

    def optimized(start: Codebook) -> tuple[Codebook, DistortionReport]:
        out, trace = optimize_codebook(base, start, sample, r)
        return out, trace.final_distortion  # scored on out itself

    # for p = r = 2 the mean is already the exact one-point fixed point
    cb, rep = (cb, distortion(cb, sample, r)) if space.p == 2.0 and r == 2.0 else optimized(cb)
    stages, errors = [cb], [rep.value ** (1.0 / r)]
    for size in range(2, n + 1):
        donor = int(np.argmax(rep.per_cell_distortion))
        draw = sample.values[rng.integers(len(sample))]
        draw_norm = float(np.abs(draw).max())
        eps = 0.05 * errors[-1] / max(draw_norm, 1e-12)
        candidate = cb.values[donor] + eps * draw
        # a zero draw (or a zero error) leaves the clone on its donor: no split
        grown = (None if np.array_equal(candidate, cb.values[donor])
                 else optimized(_grow(cb, candidate)))
        if grown is None or grown[1].value ** (1.0 / r) >= errors[-1]:
            # deterministic fallback: capture the donor cell's farthest path
            candidate = _split_toward_farthest(assign(cb, sample), donor)
            grown = optimized(_grow(cb, candidate))
        cb, rep = grown
        stages.append(cb)
        errors.append(rep.value ** (1.0 / r))
    return stages if return_stages else cb


def _grow(cb: Codebook, new_atom: np.ndarray) -> Codebook:
    values = np.concatenate([cb.values, new_atom[None]], axis=0)
    return Codebook(space=cb.space, values=values)


def product_quantizer(marginal_codebooks: list[Codebook]) -> Codebook:
    """Cartesian product of single-coordinate codebooks.

    The product of marginal quantizers is the standard upper-bound construction
    for vector-valued processes: its distortion decomposes coordinatewise.
    """
    if not marginal_codebooks:
        raise FquantError("need at least one marginal codebook")
    if len(marginal_codebooks) == 1:
        return marginal_codebooks[0]
    ref = marginal_codebooks[0].space
    for cb in marginal_codebooks:
        sp = cb.space
        if sp.d != 1:
            raise FquantError("marginal codebooks must live on d=1 spaces")
        if not (np.array_equal(sp.grid, ref.grid) and np.array_equal(sp.weights, ref.weights)
                and sp.p == ref.p):
            raise FquantError("marginal codebooks must share grid, weights and p")
    sizes = [cb.n for cb in marginal_codebooks]
    total = int(np.prod(sizes))
    if total > PRODUCT_CAP:
        raise OptimizeError(f"product codebook size {total} exceeds cap {PRODUCT_CAP}")
    d = len(marginal_codebooks)
    m = ref.m
    values = np.empty((total, d, m))
    for flat, combo in enumerate(np.ndindex(*sizes)):
        for j, cj in enumerate(combo):
            values[flat, j] = marginal_codebooks[j].values[cj, 0]
    return Codebook(space=ref.with_d(d), values=values)
