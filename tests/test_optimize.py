import dataclasses
import tracemalloc

import numpy as np
import pytest

from fquant import (Codebook, OptimizerConfig, PathSample, ProcessSpec, assign,
                    distortion, distortion_differential, dual_pairing,
                    lloyd_run, lloyd_step, product_quantizer, quant_error,
                    sample_paths, sgd_run, splitting_init, uniform_space)
from fquant import diagnostics, optimize, quantize_core, stationarity_residual
from fquant.errors import DivergenceError, OptimizeError
from fquant.optimize import default_config_for
from fquant.path_space import Path, exp_weighted_space, lp_norm_values
from fquant.quantize_core import VoronoiAssignment, _weighted_sq_norms, pairwise_distances
from fquant.rng import derive_rng


def constant_sample(space, levels):
    return PathSample(values=np.stack(
        [np.full((space.d, space.m), lv) for lv in levels]), seed=0, process_tag="c")


def constant_codebook(space, levels):
    return Codebook(space=space, values=np.stack(
        [np.full((space.d, space.m), lv) for lv in levels]))


def test_lloyd_step_single_cell_mean(unit_space, bm_sample):
    cb = constant_codebook(unit_space, [0.0])
    stepped = lloyd_step(cb, bm_sample, r=2.0)
    np.testing.assert_allclose(stepped.values[0], bm_sample.values.mean(axis=0),
                               rtol=0, atol=1e-15)


def test_lloyd_step_fixed_point_unchanged(unit_space, bm_sample):
    cb = constant_codebook(unit_space, [0.0])
    fixed = lloyd_step(cb, bm_sample, r=2.0)
    again = lloyd_step(fixed, bm_sample, r=2.0)
    np.testing.assert_allclose(again.values, fixed.values, atol=1e-12)


def test_lloyd_two_point_sample_one_step(unit_space):
    sample = constant_sample(unit_space, [-1.0, 1.0])
    init = constant_codebook(unit_space, [-0.5, 0.5])
    stepped = lloyd_step(init, sample, r=2.0)
    np.testing.assert_array_equal(stepped.values, sample.values)


def test_lloyd_step_requires_p2_and_r2(bm_sample, unit_space):
    cb = constant_codebook(unit_space, [0.0])
    with pytest.raises(OptimizeError):
        lloyd_step(Codebook(space=unit_space.with_p(3.0), values=cb.values),
                   bm_sample, r=2.0)
    with pytest.raises(OptimizeError):
        lloyd_step(cb, bm_sample, r=1.5)


def test_lloyd_weighted_centroid_r4(unit_space):
    sample = constant_sample(unit_space, [0.0, 1.0])
    cb = constant_codebook(unit_space, [0.25])
    stepped = lloyd_step(cb, sample, r=4.0)
    # weights ||x - a||^2: 0.25^2 for x=0, 0.75^2 for x=1 (constant paths, unit mass)
    w0, w1 = 0.25 ** 2, 0.75 ** 2
    np.testing.assert_allclose(stepped.values[0], w1 / (w0 + w1), rtol=1e-12)


def _per_cell_centroids(cb, sample, r):
    # reference: masked loop over the Voronoi cells, weights ||x - a_i||^(r-2)
    dists = pairwise_distances(cb, sample)
    idx = np.argmin(dists, axis=1)
    best = dists[np.arange(len(sample)), idx]
    out = cb.values.copy()
    for i in range(cb.n):
        w = best[idx == i] ** (r - 2.0)
        out[i] = np.tensordot(w, sample.values[idx == i], axes=(0, 0)) / w.sum()
    return out


@pytest.mark.parametrize("r", [2.0, 3.0, 4.0])
def test_lloyd_step_matches_per_cell_centroids(unit_space, bm_sample, r):
    cb = constant_codebook(unit_space, [-0.8, -0.2, 0.3, 0.9])
    assert np.all(assign(cb, bm_sample).cell_masses() > 0)   # no repair step
    np.testing.assert_allclose(lloyd_step(cb, bm_sample, r).values,
                               _per_cell_centroids(cb, bm_sample, r), rtol=1e-12, atol=1e-15)


def test_lloyd_r4_single_coincident_path_keeps_atom(unit_space):
    # atom 0's cell holds only the path equal to it: all its weights are 0
    sample = constant_sample(unit_space, [0.0, 1.0, 1.5])
    cb = constant_codebook(unit_space, [0.0, 1.2])
    stepped = lloyd_step(cb, sample, r=4.0)
    np.testing.assert_array_equal(stepped.values[0], cb.values[0])
    w1, w2 = 0.2 ** 2, 0.3 ** 2
    np.testing.assert_allclose(stepped.values[1], (w1 * 1.0 + w2 * 1.5) / (w1 + w2),
                               rtol=1e-12)


def _hand_iterated(init, sample, r, iterations):
    stages = [init]
    for _ in range(iterations):
        stages.append(lloyd_step(stages[-1], sample, r))
    return stages


@pytest.mark.parametrize("levels, r", [([-1.0, -0.3, 0.3, 1.0], 2.0),
                                       ([-0.8, 0.0, 0.8], 3.0),
                                       ([-0.3, 0.3, 50.0], 2.0),   # repairs an empty cell
                                       (list(np.linspace(-1.9, 1.9, 20)), 2.0),  # path rows
                                       ([-0.3, 0.3, 50.0], 4.0),   # repairs at r = 4
                                       ([-0.5, 7, 0.5], 2.0)])     # an atom equal to path 7
def test_lloyd_run_is_hand_iterated_lloyd_step(unit_space, bm_sample, levels, r):
    # constant atoms at the float levels; an int k stands for the sample's path k
    init = Codebook(space=unit_space, values=np.stack(
        [bm_sample.values[lv] if isinstance(lv, int) else np.full(unit_space.shape, lv)
         for lv in levels]))
    cfg = OptimizerConfig(method="lloyd", max_iters=30, tol=1e-12)
    cb, trace = lloyd_run(cfg, init, bm_sample, r=r)
    stages = _hand_iterated(init, bm_sample, r, trace.iterations)
    np.testing.assert_array_equal(cb.values, stages[-1].values)
    assert len(trace.distortions) == len(stages)
    for k, stage in enumerate(stages):
        assert trace.distortions[k] == distortion(stage, bm_sample, r).value


@pytest.mark.parametrize("levels", [[-0.8, 0.0, 0.8], [-1.0, -0.3, 0.3, 1.0]])
def test_lloyd_fixed_point_is_not_scored_again(unit_space, bm_sample, monkeypatch, levels):
    # one pass for the start and one per step that moves the codebook: the step that
    # returns the same atoms keeps the pass it was computed from
    passes = []

    def counted(codebook, sample, *args, **kwargs):
        passes.append(codebook.values.copy())
        return pairwise_distances(codebook, sample, *args, **kwargs)

    monkeypatch.setattr(quantize_core, "pairwise_distances", counted)
    monkeypatch.setattr(optimize, "pairwise_distances", counted)
    cfg = OptimizerConfig(method="lloyd", max_iters=200, tol=1e-12)
    cb, trace = lloyd_run(cfg, constant_codebook(unit_space, levels), bm_sample)
    assert trace.exit_reason == "fixed_point" and not trace.empty_cell_events
    assert len(passes) == trace.iterations
    assert not any(np.array_equal(a, b) for a, b in zip(passes, passes[1:]))
    np.testing.assert_array_equal(passes[-1], cb.values)
    assert trace.distortions[-1] == trace.distortions[-2] == trace.final_distortion.value


@pytest.mark.parametrize("r", [2.0, 3.0])
def test_lloyd_run_peak_memory_is_a_few_passes(r):
    # at lloyd_bm's size (n = 8, N = 4000, d m = 64) a run holds two passes, its scratch and
    # their reductions: under 6 (n, N) float arrays beyond the sample and its norms, which
    # are kept on the sample.  One (N, d m) temporary alone would be 8 of them
    space = uniform_space(1.0, 64)
    sample = sample_paths(ProcessSpec("brownian"), space, 4000, seed=5)
    init = Codebook(space=space, values=0.5 * sample.values[:8])
    _weighted_sq_norms(space, sample)
    tracemalloc.start()
    try:
        _, trace = lloyd_run(OptimizerConfig(method="lloyd", max_iters=20, tol=1e-300), init,
                             sample, r=r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.iterations == 20
    assert peak < 6 * init.n * len(sample) * 8


def test_lloyd_empty_cell_repair(unit_space, bm_sample):
    far = constant_codebook(unit_space, [-0.3, 0.3, 50.0])
    stepped = lloyd_step(far, bm_sample, r=2.0)
    masses = assign(stepped, bm_sample).cell_masses()
    assert np.all(masses > 0)


def test_lloyd_run_monotone_distortion(unit_space, bm_sample):
    cfg = OptimizerConfig(method="lloyd", max_iters=60, tol=1e-12)
    init = constant_codebook(unit_space, [-1.0, -0.3, 0.3, 1.0])
    cb, trace = lloyd_run(cfg, init, bm_sample, r=2.0)
    diffs = np.diff(trace.distortions)
    assert np.all(diffs <= 1e-12)
    assert trace.exit_reason in ("fixed_point", "tol")
    assert trace.exit_residual < 1e-10


def test_lloyd_run_monotone_r3(unit_space, bm_sample):
    cfg = OptimizerConfig(method="lloyd", max_iters=40, tol=1e-12)
    init = constant_codebook(unit_space, [-0.8, 0.0, 0.8])
    cb, trace = lloyd_run(cfg, init, bm_sample, r=3.0)
    assert np.all(np.diff(trace.distortions) <= 1e-10)


def test_lloyd_residual_shrinks_with_tol(unit_space, bm_sample):
    init = constant_codebook(unit_space, [-1.0, -0.3, 0.3, 1.0])
    residuals = []
    for tol in (1e-2, 1e-4, 1e-8):
        cfg = OptimizerConfig(method="lloyd", max_iters=100, tol=tol)
        _, trace = lloyd_run(cfg, init, bm_sample, r=2.0)
        residuals.append(trace.exit_residual)
    assert residuals[2] <= residuals[0] + 1e-15


def test_sgd_quadratic_update_direction(unit_space, bm_sample):
    # p = r = 2: the per-draw update direction is 2 (a - x)
    a = np.zeros((1, 1, unit_space.m))
    cb = Codebook(space=unit_space, values=a)
    diff = distortion_differential(cb, bm_sample, 2.0)
    manual = 2.0 * (a[0] - bm_sample.values).mean(axis=0)
    np.testing.assert_allclose(diff[0], manual, atol=1e-12)
    # the differential vanishes exactly at the sample mean
    at_mean = Codebook(space=unit_space,
                       values=bm_sample.values.mean(axis=0)[None])
    np.testing.assert_allclose(distortion_differential(at_mean, bm_sample, 2.0),
                               0.0, atol=1e-13)


@pytest.mark.parametrize("p, r", [(2.5, 2.5), (3.0, 2.0), (2.5, 1.5), (4.0, 1.5)])
def test_differential_matches_finite_differences(unit_space, rng, p, r):
    # Gateaux differential against central differences on a small empirical law, r < p too
    space = unit_space.with_p(p)
    sample = sample_paths(ProcessSpec("brownian"), space, 50, seed=3)
    cb, _ = sgd_run(OptimizerConfig(method="sgd", max_iters=400, tol=1e-14, seed=5),
                    Codebook(space=space, values=sample.values[:3] * 0.8),
                    sample, r=r)
    diff = distortion_differential(cb, sample, r)
    g = np.random.default_rng(11)
    for i in range(cb.n):
        h = g.normal(size=(1, space.m))
        direction = Path(values=h)
        pairing = dual_pairing(space, Path(values=diff[i]), direction)
        eps = 1e-6
        up, dn = cb.values.copy(), cb.values.copy()
        up[i] += eps * h
        dn[i] -= eps * h
        fd = (distortion(Codebook(space=space, values=up), sample, r).value
              - distortion(Codebook(space=space, values=dn), sample, r).value) / (2 * eps)
        assert fd == pytest.approx(pairing, rel=1e-4)


def test_sgd_scaled_problem_reproduces_iterates(unit_space, bm_sample):
    # doubling sample and init (p = r = 2) doubles every iterate exactly
    cfg = OptimizerConfig(method="sgd", max_iters=200, tol=1e-30, seed=9,
                          sgd_c0=0.05, sgd_decay=1e-3)
    init = Codebook(space=unit_space, values=bm_sample.values[:3].copy())
    out1, _ = sgd_run(cfg, init, bm_sample, r=2.0)
    doubled = PathSample(values=2.0 * bm_sample.values, seed=0, process_tag="x2")
    init2 = Codebook(space=unit_space, values=2.0 * bm_sample.values[:3])
    out2, _ = sgd_run(cfg, init2, doubled, r=2.0)
    np.testing.assert_array_equal(out2.values, 2.0 * out1.values)


def _per_step_sgd(cfg, init, sample, r, split=None):
    """sgd_run written one step at a time: one draw, a fresh difference, the public norm,
    np.argmin and a Python-float step, and an evaluation after every max_iters // 25 steps
    and the last.  Returns the atoms and the trace; appends to split each step at which
    min() over the norms as a list picks another atom than np.argmin."""
    space, p = init.space, init.space.p
    rng, values = derive_rng(cfg.seed, "sgd"), init.values.copy()
    d0 = distortion(init, sample, r).value
    trace, every = optimize.OptimizeTrace(distortions=[d0]), max(1, cfg.max_iters // 25)
    for k in range(cfg.max_iters):
        x = sample.values[int(rng.integers(len(sample)))]
        diff = values - x[None]
        dist_all = lp_norm_values(space, diff)
        i = int(np.argmin(dist_all))
        listed = dist_all.tolist()
        if split is not None and listed.index(min(listed)) != i:
            split.append(k)
        dist = dist_all[i]
        if dist > 0.0:
            g = diff[i]
            grad = (np.abs(g) / dist) ** (p - 1.0) * np.sign(g)
            step = cfg.sgd_c0 / (1.0 + cfg.sgd_decay * k)
            values[i] -= step * r * dist ** (r - 1.0) * grad
        if (k + 1) % every == 0 or k + 1 == cfg.max_iters:
            trace.iterations = k + 1
            if not np.all(np.isfinite(values)):
                trace.exit_reason = "diverged"
                raise DivergenceError(f"non-finite atoms at iteration {k + 1}", trace=trace)
            trace.distortions.append(distortion(Codebook(space=space, values=values.copy()),
                                                sample, r).value)
            if trace.distortions[-1] > 10.0 * d0:
                trace.exit_reason = "diverged"
                raise DivergenceError(f"distortion {trace.distortions[-1]:.6g} exceeded 10x "
                                      f"initial {d0:.6g}", trace=trace)
    trace.exit_reason = "max_iters"
    return values, trace


@pytest.mark.parametrize("p, r, d, steps", [
    (1.5, 2.0, 1, 300), (3.0, 3.0, 1, 300), (2.5, 2.5, 2, 300),
    (2.0, 2.0, 1, 300), (2.5, 4.5, 1, 300), (4.0, 1.5, 1, 300),
    (1.5, 3.0, 2, 300), (2.0, 1.5, 2, 300), (3.0, 4.5, 2, 300), (4.0, 4.0, 2, 300),
    (3.0, 3.0, 1, 7), (2.0, 2.0, 2, 7), (1.5, 2.0, 1, 1003), (2.5, 2.5, 2, 1003),
], ids=["1.5-2.0", "3.0-3.0", "2.5-2.5-d2",
        "2.0-2.0", "2.5-4.5", "4.0-1.5",
        "1.5-3.0-d2", "2.0-1.5-d2", "3.0-4.5-d2", "4.0-4.0-d2",
        "3.0-3.0-7steps", "2.0-2.0-d2-7steps", "1.5-2.0-1003steps", "2.5-2.5-d2-1003steps"])
def test_sgd_step_loop_matches_per_step_reference(bm_sample, p, r, d, steps):
    # sgd_run must give the per-step reference's atoms and evaluations bit for bit: its
    # powers take sqrt (p = 1.5, 2), positive (p = 2) or square (p = 3) where the
    # reference's ** does; 7 steps evaluate after each step, and 1003 end on a block of 3.
    # At d = 2 the norm sums over coordinates, on a weighted grid
    if d == 1:
        space = uniform_space(1.0, bm_sample.m, p=p)
    else:
        space = exp_weighted_space(1.0, 33, 1.5, p=p, d=d)
        bm_sample = sample_paths(ProcessSpec("brownian"), space, 300, seed=23)
    cfg = OptimizerConfig(method="sgd", max_iters=steps, tol=1e-30, seed=4,
                          sgd_c0=0.02, sgd_decay=1e-3)
    init = Codebook(space=space, values=bm_sample.values[:3].copy())
    cb, trace = sgd_run(cfg, init, bm_sample, r)
    values, ref = _per_step_sgd(cfg, init, bm_sample, r)
    assert trace.exit_reason == ref.exit_reason == "max_iters"
    assert not np.array_equal(values, init.values)
    np.testing.assert_array_equal(cb.values, values)
    assert (trace.distortions, trace.iterations) == (ref.distortions, ref.iterations)


@pytest.mark.parametrize("e", [0.25, 1 / 3, 0.4, 0.5, 2 / 3, 1.0, 1.5, 2.0, 3.0])
def test_ipow_is_inplace_power(e):
    # the step's one-call power gives x **= e bit for bit, at 0, subnormals, large values,
    # inf and nan, and at negative ones
    x = np.array([0.0, -0.0, 5e-324, 1e-310, 1e-300, 0.3, 1.0, 7.5, 1e150, 1e300, 1.7e308,
                  np.inf, np.nan, -np.nan, -2.0, -np.inf])
    want, got = x.copy(), x.copy()
    with np.errstate(all="ignore"):
        want **= e
        ufunc, args = optimize._ipow(got, e)
        ufunc(*args)
    assert got.tobytes() == want.tobytes()


def test_sgd_nan_atom_mid_block_ends_as_per_step_reference(bm_sample):
    # the atoms are three of the paths, so only the far path moves one.  It pulls atom 1,
    # its nearest, by a step whose float power overflows: the atom turns NaN where it
    # equals that path (0 * inf) while atoms 0 and 2 stay finite.  From there np.argmin
    # picks the NaN atom and min() a finite one, so the two loops can move different atoms
    # for the rest of the block; the run must still end in the reference's
    # DivergenceError, with its message, iteration and trace
    space = uniform_space(1.0, bm_sample.m, p=3.0)
    paths = bm_sample.values[:3].copy()
    paths[[0, 2], 0, 32] = -4e67  # atoms 0 and 2 twice as far from the far path as atom 1
    far = paths[1].copy()
    far[0, 32] = 4e67  # ||far - atom 1||_3 = 1e67: its r = 4.5 distortion is finite
    sample = PathSample(values=np.concatenate([np.tile(paths, (66, 1, 1)), far[None]]),
                        seed=0, process_tag="far")
    init = Codebook(space=space, values=paths)
    cfg = OptimizerConfig(method="sgd", max_iters=1000, tol=1e-30, seed=5, sgd_c0=1e80,
                          sgd_decay=0.0)
    split = []
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError) as ref:
            _per_step_sgd(cfg, init, sample, 4.5, split)
        with pytest.raises(DivergenceError) as got:
            sgd_run(cfg, init, sample, 4.5)
    draws = derive_rng(cfg.seed, "sgd").integers(len(sample), size=cfg.max_iters)
    first_far = int(np.flatnonzero(draws == len(sample) - 1)[0])
    end = (first_far // 40 + 1) * 40  # the block's evaluation: 40 steps per block
    assert 40 < first_far < end - 2 and split and min(split) > first_far
    assert str(got.value) == str(ref.value) == f"non-finite atoms at iteration {end}"
    for t in (got.value.trace, ref.value.trace):
        assert (t.exit_reason, t.iterations, len(t.distortions)) == ("diverged", end, end // 40)
    assert got.value.trace.distortions == ref.value.trace.distortions


def test_sgd_divergence_carries_trace(unit_space, bm_sample):
    cfg = OptimizerConfig(method="sgd", max_iters=500, tol=1e-30, seed=2,
                          sgd_c0=1e4, sgd_decay=0.0)
    init = Codebook(space=unit_space, values=bm_sample.values[:2].copy())
    with pytest.raises(DivergenceError) as err:
        sgd_run(cfg, init, bm_sample, r=2.0)
    assert err.value.trace is not None
    assert len(err.value.trace.distortions) >= 1


def test_sgd_non_finite_iterate_is_divergence(bm_sample):
    # an absurd step sends the atoms past the float range before the first
    # evaluation; that is a divergence, not an invalid codebook
    space = uniform_space(1.0, bm_sample.m, p=3.0)
    cfg = OptimizerConfig(method="sgd", max_iters=200, tol=1e-30, seed=2, sgd_c0=1e200)
    init = Codebook(space=space, values=bm_sample.values[:2].copy())
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        sgd_run(cfg, init, bm_sample, r=3.0)
    assert err.value.trace.exit_reason == "diverged"
    assert len(err.value.trace.distortions) == 1


@pytest.mark.parametrize("tol, evals", [(1e-30, 25), (1e3, 1)])
def test_sgd_run_one_pass_per_evaluation(bm_sample, monkeypatch, tol, evals):
    # one distance pass for init, then one per evaluation serving both the
    # distortion and the residual; the exit residual is the final codebook's
    space = uniform_space(1.0, bm_sample.m, p=3.0)
    calls = []

    def counted(codebook, sample, *args, **kwargs):
        calls.append(codebook.values.copy())
        return pairwise_distances(codebook, sample, *args, **kwargs)

    monkeypatch.setattr(quantize_core, "pairwise_distances", counted)
    cfg = OptimizerConfig(method="sgd", max_iters=100, tol=tol, seed=3, sgd_c0=0.01)
    init = Codebook(space=space, values=bm_sample.values[:3].copy())
    cb, trace = sgd_run(cfg, init, bm_sample, r=3.0)
    assert len(trace.distortions) == evals + 1
    assert len(calls) == evals + 1
    np.testing.assert_array_equal(calls[0], init.values)
    np.testing.assert_array_equal(calls[-1], cb.values)
    assert trace.exit_reason == ("tol" if evals == 1 else "max_iters")
    assert trace.exit_residual == stationarity_residual(cb, bm_sample, 3.0).max_residual
    assert trace.distortions[-1] == distortion(cb, bm_sample, 3.0).value


@pytest.mark.parametrize("exit_by", ["max_iters", "tol"])
@pytest.mark.parametrize("p, r, d", [(3.0, 3.0, 1), (2.5, 3.5, 1), (1.5, 2.0, 1), (2.5, 2.5, 2)])
def test_sgd_residual_floor_changes_no_output(monkeypatch, p, r, d, exit_by):
    # with the floor at 0 the exact residual decides every block's exit test: nothing moves
    space = uniform_space(1.0, 17, p=p, d=d)
    sample = sample_paths(ProcessSpec("brownian"), space, 200, seed=11)
    init = Codebook(space=space, values=sample.values[:3].copy())
    cfg = OptimizerConfig(method="sgd", max_iters=500, tol=1e-30, seed=3, sgd_c0=0.01)
    if exit_by == "tol":  # tol just above the 10th evaluation's residual: a mid-run exit
        seen, score = [], optimize.pass_scores
        monkeypatch.setattr(optimize, "pass_scores",
                            lambda cb, *args: seen.append(cb) or score(cb, *args))
        sgd_run(cfg, init, sample, r)
        monkeypatch.undo()
        tenth = stationarity_residual(seen[9], sample, r).max_residual
        cfg = dataclasses.replace(cfg, tol=float(np.nextafter(tenth, np.inf)))
    runs = []
    for floor in (None, 0.0):
        if floor is not None:
            monkeypatch.setattr(diagnostics, "_residual_floor", lambda vor, r: floor)
        cb, trace = sgd_run(cfg, init, sample, r)
        runs.append((cb.values.tobytes(), trace.distortions, trace.iterations, trace.exit_reason,
                     trace.final_distortion.to_json(), trace.final_stationarity.to_json(),
                     trace.to_csv()))
    assert runs[0] == runs[1]
    assert runs[0][3] == exit_by and (runs[0][2] < cfg.max_iters) == (exit_by == "tol")


def test_sgd_runs_the_stationarity_kernel_only_for_its_report(bm_sample, monkeypatch):
    # at tol = 1e-30 the floor decides every block; final_stationarity takes the kernel once
    calls = []
    means = diagnostics._integrand_means
    monkeypatch.setattr(diagnostics, "_integrand_means",
                        lambda vor, r: calls.append(vor) or means(vor, r))
    space = uniform_space(1.0, bm_sample.m, p=3.0)
    cfg = OptimizerConfig(method="sgd", max_iters=100, tol=1e-30, seed=3, sgd_c0=0.01)
    init = Codebook(space=space, values=bm_sample.values[:3].copy())
    cb, trace = sgd_run(cfg, init, bm_sample, r=3.0)
    assert trace.exit_reason == "max_iters" and calls == []
    stat = trace.final_stationarity
    assert len(calls) == 1 and calls[0] is trace._final_pass
    assert stat.to_json() == stationarity_residual(cb, bm_sample, 3.0).to_json()


def test_sgd_evaluation_codebooks_are_frozen(bm_sample, monkeypatch):
    # each evaluation's codebook keeps the atoms it was scored on
    space = uniform_space(1.0, bm_sample.m, p=3.0)
    seen = []

    def recorded(codebook, sample, r, tol):
        seen.append((codebook, codebook.values.copy()))
        return score(codebook, sample, r, tol)

    score = optimize.pass_scores
    monkeypatch.setattr(optimize, "pass_scores", recorded)
    cfg = OptimizerConfig(method="sgd", max_iters=100, tol=1e-30, seed=3, sgd_c0=0.01)
    init = Codebook(space=space, values=bm_sample.values[:3].copy())
    cb, _ = sgd_run(cfg, init, bm_sample, r=3.0)
    assert len(seen) == 25 and seen[-1][0] is cb
    for book, scored in seen[:-1]:
        assert not np.shares_memory(book.values, cb.values)
        np.testing.assert_array_equal(book.values, scored)


def test_lloyd_exit_residual_is_final_codebooks(unit_space, bm_sample):
    cfg = OptimizerConfig(method="lloyd", max_iters=30, tol=1e-12)
    init = constant_codebook(unit_space, [-0.8, 0.0, 0.8])
    cb, trace = lloyd_run(cfg, init, bm_sample, r=3.0)
    assert trace.exit_residual == stationarity_residual(cb, bm_sample, 3.0).max_residual


def test_sgd_requires_smooth_norm(unit_space, bm_sample):
    cfg = OptimizerConfig(method="sgd", max_iters=10)
    for p in (1.0, np.inf):
        cb = Codebook(space=unit_space.with_p(p), values=bm_sample.values[:2].copy())
        with pytest.raises(OptimizeError):
            sgd_run(cfg, cb, bm_sample, r=2.0)


def test_distortion_differential_requires_smooth_norm(unit_space, bm_sample):
    for p in (1.0, np.inf):
        cb = Codebook(space=unit_space.with_p(p), values=bm_sample.values[:2].copy())
        with pytest.raises(OptimizeError):
            distortion_differential(cb, bm_sample, 2.0)


def test_sgd_r1_rejects_coincident_paths(unit_space, bm_sample):
    cfg = OptimizerConfig(method="sgd", max_iters=10)
    cb = Codebook(space=unit_space, values=bm_sample.values[:2].copy())
    with pytest.raises(OptimizeError):
        sgd_run(cfg, cb, bm_sample, r=1.0)


def test_splitting_init_size_one_is_mean(unit_space, bm_sample):
    cb = splitting_init(bm_sample, unit_space, 1, 2.0, seed=4)
    np.testing.assert_allclose(cb.values[0], bm_sample.values.mean(axis=0),
                               atol=1e-12)


def test_splitting_init_two_point_support(unit_space):
    sample = constant_sample(unit_space, [-1.0, 1.0])
    cb = splitting_init(sample, unit_space, 2, 2.0, seed=4)
    got = sorted(cb.values[:, 0, 0].tolist())
    assert got == [-1.0, 1.0]
    assert quant_error(cb, sample, 2.0) == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_splitting_init_zero_draw_falls_back(unit_space, seed):
    # the level-0 path is the zero path: a split along it leaves the clone on its donor
    sample = constant_sample(unit_space, [0.0, 1.0, 2.0])
    cb = splitting_init(sample, unit_space, 2, 2.0, seed=seed)
    assert cb.n == 2
    assert np.unique(cb.values.reshape(2, -1), axis=0).shape[0] == 2


def test_splitting_init_strictly_decreasing(unit_space, bm_sample):
    stages = splitting_init(bm_sample, unit_space, 5, 2.0, seed=4, return_stages=True)
    errs = [quant_error(cb, bm_sample, 2.0) for cb in stages]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert [cb.n for cb in stages] == [1, 2, 3, 4, 5]
    # optimized codebooks keep n distinct atoms with every cell populated
    final = stages[-1]
    assert np.unique(final.values.reshape(final.n, -1), axis=0).shape[0] == final.n
    assert np.all(assign(final, bm_sample).cell_masses() > 0)


@pytest.mark.parametrize("p, scored", [(2.0, 1), (3.0, 0)])
def test_splitting_init_reads_stage_reports_from_the_optimizer(bm_sample, monkeypatch,
                                                               p, scored):
    # each optimized stage's report comes from its trace; only the p = r = 2
    # mean, which no optimizer runs on, is scored by splitting_init itself
    calls = []

    def counted(codebook, smp, r):
        calls.append(codebook.n)
        return distortion(codebook, smp, r)

    monkeypatch.setattr(optimize, "distortion", counted)
    space = uniform_space(1.0, bm_sample.m, p=p)
    cfg = OptimizerConfig(method="sgd", max_iters=200, seed=1, sgd_c0=0.01) if p == 3.0 else None
    stages = splitting_init(bm_sample, space, 4, p, seed=2, config=cfg, return_stages=True)
    assert calls == [1] * scored and [cb.n for cb in stages] == [1, 2, 3, 4]


@pytest.mark.parametrize("seed, N", [(0, 400), (3, 1000), (11, 4000)])
def test_sgd_batched_draws_equal_per_step_draws(seed, N):
    # sgd_run draws its path indices in one call; that must be the stream of one draw per step
    batched = derive_rng(seed, "sgd").integers(N, size=2000)
    per_step = derive_rng(seed, "sgd")
    assert batched.tolist() == [int(per_step.integers(N)) for _ in range(2000)]


def _fallback_sample():
    """Paths 1000 + v with v orthogonal to constants: the greedy clone of the mean
    moves along the mean and captures no path, and SGD steps too small to change
    that (FALLBACK_SGD) leave the split no better, so the fallback fires."""
    space = uniform_space(1.0, 16)
    bm = sample_paths(ProcessSpec("brownian"), space, 200, seed=5)
    v = bm.values - ((bm.values @ space.weights) / space.total_mass)[..., None]
    return space, PathSample(values=1000.0 + v, seed=0, process_tag="offset")


FALLBACK_SGD = OptimizerConfig(method="sgd", max_iters=25, seed=1, sgd_c0=1e-9)


def test_splitting_fallback_makes_one_pass(monkeypatch):
    space, sample = _fallback_sample()
    events = []

    def counted(codebook, smp, *args, **kwargs):
        events.append(("pass", codebook.n))
        return pairwise_distances(codebook, smp, *args, **kwargs)

    def fallback(vor, donor):
        events.append(("fallback", vor.codebook.n))
        return split(vor, donor)

    def optimized(config, start, smp, r):
        events.append(("optimize", start))
        return optimize_codebook(config, start, smp, r)

    optimize_codebook, split = optimize.optimize_codebook, optimize._split_toward_farthest
    monkeypatch.setattr(quantize_core, "pairwise_distances", counted)
    monkeypatch.setattr(optimize, "_split_toward_farthest", fallback)
    monkeypatch.setattr(optimize, "optimize_codebook", optimized)
    splitting_init(sample, space, 2, 2.0, seed=1, config=FALLBACK_SGD)
    k = events.index(("fallback", 1))
    rejected = max(i for i in range(k) if events[i][0] == "optimize")
    # after the rejected split's optimizer: exactly one pass, on the donor codebook,
    # then the fallback split and the re-optimization
    assert events[rejected:k].count(("pass", 1)) == 1 and events[k - 1] == ("pass", 1)
    assert events[k + 1][0] == "optimize"
    grown = events[k + 1][1]
    # the parent arithmetic: donor + 0.5 * (farthest path in its cell - donor)
    cb = Codebook(space=space, values=grown.values[:1])
    best = pairwise_distances(cb, sample)[:, 0]
    far = sample.values[int(np.argmax(best))]
    np.testing.assert_array_equal(grown.values[1], cb.values[0] + 0.5 * (far - cb.values[0]))


def test_every_pass_is_the_pass_of_its_own_codebook(unit_space, bm_sample, monkeypatch):
    # each VoronoiAssignment built holds the distances of the codebook and sample it carries
    built, splits = [], []
    construct, split = VoronoiAssignment.__init__, optimize._split_toward_farthest

    def spy(self, codebook, sample, dists):
        construct(self, codebook, sample, dists)
        built.append(self)

    def counted_split(vor, donor):
        splits.append(donor)
        return split(vor, donor)

    def check(name):
        assert built, name
        for vor in built:
            np.testing.assert_array_equal(vor.dists, pairwise_distances(vor.codebook, vor.sample),
                                          err_msg=name)
        built.clear()
        splits.clear()

    monkeypatch.setattr(VoronoiAssignment, "__init__", spy)
    monkeypatch.setattr(optimize, "_split_toward_farthest", counted_split)
    lloyd = OptimizerConfig(method="lloyd", max_iters=30, tol=1e-12)
    _, trace = lloyd_run(lloyd, constant_codebook(unit_space, [-0.3, 0.3, 50.0]), bm_sample)
    assert trace.empty_cell_events
    check("lloyd_run, repairing an empty cell")
    p3 = uniform_space(1.0, bm_sample.m, p=3.0)
    sgd = OptimizerConfig(method="sgd", max_iters=100, seed=3, sgd_c0=0.01)
    sgd_run(sgd, Codebook(space=p3, values=bm_sample.values[:3].copy()), bm_sample, r=3.0)
    check("sgd_run, p = 3")
    space, offset = _fallback_sample()
    splitting_init(offset, space, 2, 2.0, seed=1, config=FALLBACK_SGD)
    assert splits
    check("splitting_init, falling back")
    stationarity_residual(Codebook(space=p3, values=bm_sample.values[:3]), bm_sample, 3.0)
    check("stationarity_residual")
    distortion(constant_codebook(unit_space.with_p(np.inf), [-0.5, 0.5]), bm_sample, 2.0)
    check("distortion, p = inf")


def test_optimizer_trace_carries_final_reports(unit_space, bm_sample):
    init = constant_codebook(unit_space, [-0.8, 0.0, 0.8])
    lloyd = OptimizerConfig(method="lloyd", max_iters=30, tol=1e-12)
    sgd = OptimizerConfig(method="sgd", max_iters=100, seed=3, sgd_c0=0.01)
    for cfg in (lloyd, sgd):
        cb, trace = optimize.optimize_codebook(cfg, init, bm_sample, 3.0)
        assert trace.final_distortion.to_json() == distortion(cb, bm_sample, 3.0).to_json()
        assert (trace.final_stationarity.to_json()
                == stationarity_residual(cb, bm_sample, 3.0).to_json())
        assert trace.distortions[-1] == trace.final_distortion.value


@pytest.mark.parametrize("method, p, r, kwargs, reason", [
    ("lloyd", 2.0, 2.0, dict(max_iters=200, tol=1e-12), "fixed_point"),
    ("lloyd", 2.0, 3.0, dict(max_iters=200, tol=1e-3), "tol"),
    ("lloyd", 2.0, 2.0, dict(max_iters=2, tol=1e-12), "max_iters"),
    ("sgd", 3.0, 3.0, dict(max_iters=100, tol=1e3, seed=3, sgd_c0=0.01), "tol"),
    ("sgd", 3.0, 3.0, dict(max_iters=100, tol=1e-30, seed=3, sgd_c0=0.01), "max_iters"),
    ("sgd", 3.0, 2.0, dict(max_iters=100, tol=1e-30, seed=3, sgd_c0=0.01), "max_iters"),
], ids=["lloyd_fixed_point", "lloyd_tol", "lloyd_max_iters", "sgd_tol", "sgd_max_iters",
        "sgd_r_below_p"])
def test_trace_reports_are_the_eager_reports(bm_sample, method, p, r, kwargs, reason):
    # iterates are scored by value; the reports built at exit equal the public functions'
    space = uniform_space(1.0, bm_sample.m, p=p)
    init = (constant_codebook(space, [-0.8, 0.0, 0.8]) if method == "lloyd"
            else Codebook(space=space, values=bm_sample.values[:3].copy()))
    cfg = OptimizerConfig(method=method, **kwargs)
    cb, trace = optimize.optimize_codebook(cfg, init, bm_sample, r)
    assert trace.exit_reason == reason
    rep = distortion(cb, bm_sample, r)
    assert trace.final_distortion.to_json() == rep.to_json()
    assert trace.distortions[-1] == rep.value
    if r < p:
        assert trace.final_stationarity is None
    else:
        stat = stationarity_residual(cb, bm_sample, r)
        assert trace.final_stationarity.to_json() == stat.to_json()
        assert trace.exit_residual == stat.max_residual


def test_sgd_divergence_trace_carries_last_accepted_reports(bm_sample, monkeypatch):
    # the third evaluation reads as diverged; the trace keeps the second one's reports
    space = uniform_space(1.0, bm_sample.m, p=3.0)
    seen = []

    def third_blows_up(codebook, sample, r, tol):
        seen.append(codebook)
        vor, value, below_tol = score(codebook, sample, r, tol)
        return vor, (value if len(seen) < 3 else 1e300), below_tol

    score = optimize.pass_scores
    monkeypatch.setattr(optimize, "pass_scores", third_blows_up)
    cfg = OptimizerConfig(method="sgd", max_iters=100, tol=1e-30, seed=3, sgd_c0=0.01)
    init = Codebook(space=space, values=bm_sample.values[:3].copy())
    with pytest.raises(DivergenceError) as err:
        sgd_run(cfg, init, bm_sample, r=3.0)
    trace = err.value.trace
    assert trace.exit_reason == "diverged" and len(seen) == 3
    assert trace.distortions[-1] == 1e300 and len(trace.distortions) == 4
    rep, stat = distortion(seen[1], bm_sample, 3.0), stationarity_residual(seen[1], bm_sample, 3.0)
    assert trace.final_distortion.to_json() == rep.to_json()
    assert trace.final_stationarity.to_json() == stat.to_json()


def test_lloyd_splitting_init_takes_no_residual(unit_space, bm_sample, monkeypatch):
    # splitting stages read only the distortion report: no stationarity kernel runs
    calls = []
    means = diagnostics._integrand_means
    monkeypatch.setattr(diagnostics, "_integrand_means",
                        lambda vor, r: calls.append(vor) or means(vor, r))
    stages = splitting_init(bm_sample, unit_space, 5, 2.0, seed=1, return_stages=True)
    assert len(stages) == 5 and calls == []


def test_product_quantizer_identity_and_sizes(unit_space, rng):
    cb1 = Codebook(space=unit_space, values=rng.normal(size=(2, 1, unit_space.m)))
    assert product_quantizer([cb1]) is cb1
    cb2 = Codebook(space=unit_space, values=rng.normal(size=(3, 1, unit_space.m)))
    prod = product_quantizer([cb1, cb2])
    assert prod.n == 6
    assert prod.space.d == 2
    # atom (i, j) stacks atom i of the first marginal over atom j of the second
    np.testing.assert_array_equal(prod.values[1 * 3 + 2, 0], cb1.values[1, 0])
    np.testing.assert_array_equal(prod.values[1 * 3 + 2, 1], cb2.values[2, 0])


def test_product_quantizer_cap_and_grid_checks(unit_space, rng, monkeypatch):
    monkeypatch.setattr(optimize, "PRODUCT_CAP", 4)
    cb1 = Codebook(space=unit_space, values=rng.normal(size=(3, 1, unit_space.m)))
    with pytest.raises(OptimizeError):
        product_quantizer([cb1, cb1.with_values(cb1.values + 1.0)])
    other = uniform_space(2.0, unit_space.m)
    cb_other = Codebook(space=other, values=rng.normal(size=(2, 1, other.m)))
    with pytest.raises(Exception):
        product_quantizer([cb1, cb_other])


def test_product_distortion_additivity():
    # p = 2, d = 2: product-codebook distortion equals the sum of marginal ones
    space = uniform_space(1.0, 65, d=2)
    sample = sample_paths(ProcessSpec("brownian"), space, 2000, seed=17)
    msp = space.with_d(1)
    marginals = []
    parts = []
    for j in range(2):
        sub = sample.coordinate(j)
        cb = splitting_init(sub, msp, 2, 2.0, seed=20 + j)
        marginals.append(cb)
        parts.append(distortion(cb, sub, 2.0).value)
    prod = product_quantizer(marginals)
    total = distortion(prod, sample, 2.0).value
    assert total == pytest.approx(sum(parts), rel=1e-12)


def test_default_config_dispatch(unit_space):
    assert default_config_for(unit_space, 2.0).method == "lloyd"
    assert default_config_for(unit_space.with_p(2.5), 2.5).method == "sgd"
    assert default_config_for(unit_space, 1.5).method == "sgd"
    assert default_config_for(unit_space, 2.0).max_iters == 200
    assert default_config_for(unit_space, 1.5).max_iters == 20_000
