"""Codebook optimization: Lloyd fixed-point iteration, stochastic gradient
descent on the distortion differential, greedy splitting initialization, and
cartesian product quantizers.

Lloyd is available exactly where the weighted-centroid fixed point exists
(p = 2, r >= 2); every other smooth (p, r) pair goes through SGD.  That rule
lives only in ``default_config_for``, and each method's default iteration
budget only in ``DEFAULT_MAX_ITERS``.  Empty cells are treated as bad iterates,
not valid states: before each centroid update the atom of an empty cell is
re-split from the cell carrying the largest distortion share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (StationarityReport, _integrand_means, _stationarity_from,
                          distortion_and_stationarity)
from .errors import DivergenceError, FquantError, OptimizeError
from .path_space import DiscretePathSpace, PathSample, _lp_norms
from .quantize_core import (Codebook, DistortionReport, VoronoiAssignment, _weighted_sq_norms,
                            assign, distortion, pairwise_distances)
from .rng import derive_rng

DEFAULT_MAX_ITERS = {"lloyd": 200, "sgd": 20_000}


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
        if not self.tol > 0:
            raise FquantError("tol must be > 0")
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
    final_distortion: DistortionReport | None = None      # of the last codebook scored
    final_stationarity: StationarityReport | None = None  # None where r < p

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
        empty = np.flatnonzero(vor.counts == 0)
        if empty.size == 0:
            return vor
        dead = int(empty[0])
        events.append((iteration, dead))
        donor = int(np.argmax(vor.cell_sums(vor.best ** r)))
        values = vor.codebook.values.copy()
        values[dead] = _split_toward_farthest(vor, donor)
        vor = assign(vor.codebook.with_values(values), vor.sample)
    raise OptimizeError("empty-cell repair did not converge")


def _centroids(vor: VoronoiAssignment, r: float) -> np.ndarray:
    """Cell centroids with path weights ||x - a_i||^(r-2), as one (n, N) @ (N, d*m)
    product.  A cell of zero total weight holds only its atom's copies: kept."""
    values = vor.codebook.values
    n, N = vor.n_cells, len(vor.dists)
    weights = np.ones(N) if r == 2.0 else vor.best ** (r - 2.0)
    onehot = np.zeros((n, N))
    onehot[vor.cell_index, np.arange(N)] = weights
    sums = onehot @ vor.sample.values.reshape(N, -1)
    total = vor.cell_sums(weights)[:, None]
    out = values.reshape(n, -1).copy()
    np.divide(sums, total, out=out, where=total > 0)
    return out.reshape(values.shape)


def lloyd_step(codebook: Codebook, sample: PathSample, r: float = 2.0,
               _events: list | None = None, _iteration: int = 0,
               _pass: VoronoiAssignment | None = None) -> Codebook:
    """One fixed-point update: each atom becomes its cell's weighted centroid.

    Cell weights are ||x - a_i||^(r-2); r = 2 gives the plain cell mean.  Only
    valid on p = 2 spaces with r >= 2, where the centroid condition is the
    stationarity equation in closed form.
    """
    space = codebook.space
    if space.p != 2.0:
        raise OptimizeError(f"lloyd_step requires a p=2 space, got p={space.p}")
    if r < 2.0:
        raise OptimizeError(f"lloyd_step requires r >= 2, got r={r}")
    vor = _repair_empty_cells(_pass if _pass is not None else assign(codebook, sample), r,
                              _events if _events is not None else [], _iteration)
    return Codebook(space=space, values=_centroids(vor, r))


def lloyd_run(config: OptimizerConfig, init: Codebook, sample: PathSample,
              r: float = 2.0) -> tuple[Codebook, OptimizeTrace]:
    """Iterate lloyd_step until the relative distortion improvement drops below tol.

    One distance pass per iteration: the pass scoring the new codebook is the next
    step's assignment and, at exit, the residual's.  Sample norms are taken once.
    """
    trace = OptimizeTrace()
    sq = _weighted_sq_norms(init.space, sample)
    vor = VoronoiAssignment(init, sample, pairwise_distances(init, sample, sample_sq=sq))
    trace.final_distortion = vor.distortion(r)
    prev = trace.final_distortion.value
    trace.distortions.append(prev)
    for k in range(config.max_iters):
        nxt = lloyd_step(vor.codebook, sample, r, _events=trace.empty_cell_events,
                         _iteration=k, _pass=vor)
        unchanged = np.array_equal(nxt.values, vor.codebook.values)
        vor = VoronoiAssignment(nxt, sample, pairwise_distances(nxt, sample, sample_sq=sq))
        trace.final_distortion = vor.distortion(r)
        cur = trace.final_distortion.value
        trace.distortions.append(cur)
        trace.iterations = k + 1
        if unchanged:
            trace.exit_reason = "fixed_point"
            break
        if abs(prev - cur) <= config.tol * max(prev, 1e-300):
            trace.exit_reason = "tol"
            break
        prev = cur
    else:
        trace.exit_reason = "max_iters"
    trace.final_stationarity = _stationarity_from(vor, r)
    return vor.codebook, trace


def sgd_run(config: OptimizerConfig, init: Codebook, sample: PathSample,
            r: float) -> tuple[Codebook, OptimizeTrace]:
    """Competitive-learning descent on the distortion differential.

    Each iteration draws one path x, finds its nearest atom a_i and moves that
    atom by -step_k * r ||x - a_i||^(r-1) grad||.||_p(a_i - x), using the dual
    element's grid values as the update direction.  Exits on max_iters or when
    the stationarity residual (checked periodically) drops below tol.  Each
    check scores the distortion and the residual from one distance pass.
    """
    space = init.space
    if space.p <= 1.0:
        raise OptimizeError(f"sgd_run requires p > 1, got p={space.p}")
    if r < 1.0:
        raise OptimizeError(f"sgd_run requires r >= 1, got r={r}")
    p = space.p
    rng = derive_rng(config.seed, "sgd")
    values = init.values.copy()
    trace = OptimizeTrace()

    vor = assign(init, sample)
    d0 = vor.distortion(r).value
    trace.distortions.append(d0)
    scale = d0 ** (1.0 / r) if d0 > 0 else 1.0
    if r == 1.0 and np.any(vor.best == 0.0):
        raise OptimizeError("r = 1 needs a sample with no path equal to an atom")
    c0 = config.sgd_c0 if config.sgd_c0 is not None else 0.1 * scale ** (2.0 - r)
    decay = config.sgd_decay if config.sgd_decay is not None else 1.0 / len(sample)
    eval_every = max(1, config.max_iters // 25)
    draws = rng.integers(len(sample), size=config.max_iters)  # same stream as one per step
    steps = c0 / (1.0 + decay * np.arange(config.max_iters))
    diff = np.empty_like(values)
    for k in range(config.max_iters):
        np.subtract(values, sample.values[draws[k]], out=diff)
        dist_all = _lp_norms(space, diff)
        i = dist_all.argmin()
        dist = dist_all[i]
        if dist > 0.0:
            g = diff[i]
            grad = (np.abs(g) / dist) ** (p - 1.0) * np.sign(g)
            values[i] -= steps[k] * r * dist ** (r - 1.0) * grad
        if (k + 1) % eval_every == 0 or k + 1 == config.max_iters:
            trace.iterations = k + 1
            if not np.all(np.isfinite(values)):
                trace.exit_reason = "diverged"
                raise DivergenceError(f"non-finite atoms at iteration {k + 1}", trace=trace)
            cb = Codebook(space=space, values=values.copy())  # frozen: values keeps moving
            rep, stat = distortion_and_stationarity(cb, sample, r)
            trace.distortions.append(rep.value)
            if rep.value > 10.0 * d0:
                trace.exit_reason = "diverged"
                raise DivergenceError(
                    f"distortion {rep.value:.6g} exceeded 10x initial {d0:.6g}", trace=trace)
            trace.final_distortion, trace.final_stationarity = rep, stat
            if trace.exit_residual < config.tol:
                trace.exit_reason = "tol"
                return cb, trace
    # the last iteration is always checked, so cb and its residual are current
    trace.exit_reason = "max_iters"
    return cb, trace


def distortion_differential(codebook: Codebook, sample: PathSample,
                            r: float) -> np.ndarray:
    """Gateaux differential of the empirical distortion at the codebook.

    Returns an (n, d, m) stack of dual elements; the derivative of the
    distortion in direction h_i (a perturbation of atom i alone) is the
    weighted grid pairing of differential[i] with h_i.  Entry-wise,

        diff[i] = (r / N) sum_{x in cell i, x != a_i}
                  ||x - a_i||_p^(r-p) |a_i - x|^(p-1) sign(a_i - x)

    which is r times the stationarity integrand mean.  Needs p > 1 and an
    admissible codebook (no ties, and no coincident path when r = 1).
    """
    space = codebook.space
    p = space.p
    if p <= 1.0:
        raise OptimizeError(f"the distortion differential needs p > 1, got p={p}")
    if r < 1.0:
        raise OptimizeError(f"r must be >= 1, got {r}")
    return r * _integrand_means(assign(codebook, sample), r)


def optimize_codebook(config: OptimizerConfig, init: Codebook, sample: PathSample,
                      r: float) -> tuple[Codebook, OptimizeTrace]:
    if config.method == "lloyd":
        return lloyd_run(config, init, sample, r)
    return sgd_run(config, init, sample, r)


def default_config_for(space: DiscretePathSpace, r: float, seed: int = 0) -> OptimizerConfig:
    """The one place the method is chosen: Lloyd where the closed-form centroid
    exists (p = 2, r >= 2), SGD otherwise, with the method's DEFAULT_MAX_ITERS."""
    method = "lloyd" if space.p == 2.0 and r >= 2.0 else "sgd"
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


def product_quantizer(marginal_codebooks: list[Codebook], cap: int = 4096) -> Codebook:
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
    if total > cap:
        raise OptimizeError(f"product codebook size {total} exceeds cap {cap}")
    d = len(marginal_codebooks)
    m = ref.m
    values = np.empty((total, d, m))
    for flat, combo in enumerate(np.ndindex(*sizes)):
        for j, cj in enumerate(combo):
            values[flat, j] = marginal_codebooks[j].values[cj, 0]
    return Codebook(space=ref.with_d(d), values=values)
