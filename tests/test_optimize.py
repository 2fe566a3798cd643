import numpy as np
import pytest

from fquant import (Codebook, OptimizerConfig, PathSample, ProcessSpec, assign,
                    distortion, distortion_differential, dual_pairing,
                    lloyd_run, lloyd_step, product_quantizer, quant_error,
                    sample_paths, sgd_run, splitting_init, uniform_space)
from fquant import optimize, quantize_core, stationarity_residual
from fquant.diagnostics import distortion_and_stationarity
from fquant.errors import DivergenceError, OptimizeError
from fquant.optimize import default_config_for
from fquant.path_space import Path, lp_norm_values
from fquant.quantize_core import (VoronoiAssignment, pairwise_distances, sup_distortion,
                                  sup_pairwise_distances)
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
                                       ([-0.3, 0.3, 50.0], 2.0)])   # repairs an empty cell
def test_lloyd_run_is_hand_iterated_lloyd_step(unit_space, bm_sample, levels, r):
    init = constant_codebook(unit_space, levels)
    cfg = OptimizerConfig(method="lloyd", max_iters=30, tol=1e-12)
    cb, trace = lloyd_run(cfg, init, bm_sample, r=r)
    stages = _hand_iterated(init, bm_sample, r, trace.iterations)
    np.testing.assert_array_equal(cb.values, stages[-1].values)
    assert len(trace.distortions) == len(stages)
    for k, stage in enumerate(stages):
        assert trace.distortions[k] == distortion(stage, bm_sample, r).value


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


def test_differential_matches_finite_differences(unit_space, rng):
    # Gateaux differential against central differences on a small empirical law
    space = unit_space.with_p(2.5)
    sample = sample_paths(ProcessSpec("brownian"), space, 50, seed=3)
    cb, _ = sgd_run(OptimizerConfig(method="sgd", max_iters=400, tol=1e-14, seed=5),
                    Codebook(space=space, values=sample.values[:3] * 0.8),
                    sample, r=2.5)
    diff = distortion_differential(cb, sample, 2.5)
    g = np.random.default_rng(11)
    for i in range(cb.n):
        h = g.normal(size=(1, space.m))
        direction = Path(values=h)
        pairing = dual_pairing(space, Path(values=diff[i]), direction)
        eps = 1e-6
        up, dn = cb.values.copy(), cb.values.copy()
        up[i] += eps * h
        dn[i] -= eps * h
        fd = (distortion(Codebook(space=space, values=up), sample, 2.5).value
              - distortion(Codebook(space=space, values=dn), sample, 2.5).value) / (2 * eps)
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


@pytest.mark.parametrize("p, r", [(1.5, 2.0), (3.0, 3.0)])
def test_sgd_step_loop_matches_per_step_reference(bm_sample, p, r):
    # the step loop written one step at a time: one draw, a fresh difference,
    # the public norm, np.argmin and a Python-float step; sgd_run must give the
    # same atoms bit for bit
    space = uniform_space(1.0, bm_sample.m, p=p)
    c0, decay, seed, steps = 0.02, 1e-3, 4, 300
    cfg = OptimizerConfig(method="sgd", max_iters=steps, tol=1e-30, seed=seed,
                          sgd_c0=c0, sgd_decay=decay)
    init = Codebook(space=space, values=bm_sample.values[:3].copy())
    cb, trace = sgd_run(cfg, init, bm_sample, r)
    assert trace.exit_reason == "max_iters"
    rng = derive_rng(seed, "sgd")
    values = init.values.copy()
    for k in range(steps):
        x = bm_sample.values[int(rng.integers(len(bm_sample)))]
        diff = values - x[None]
        dist_all = lp_norm_values(space, diff)
        i = int(np.argmin(dist_all))
        dist = dist_all[i]
        if dist > 0.0:
            g = diff[i]
            grad = (np.abs(g) / dist) ** (p - 1.0) * np.sign(g)
            step = c0 / (1.0 + decay * k)
            values[i] -= step * r * dist ** (r - 1.0) * grad
    assert not np.array_equal(values, init.values)
    np.testing.assert_array_equal(cb.values, values)


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


def test_sgd_evaluation_codebooks_are_frozen(bm_sample, monkeypatch):
    # each evaluation's codebook keeps the atoms it was scored on
    space = uniform_space(1.0, bm_sample.m, p=3.0)
    seen = []

    def recorded(codebook, sample, r):
        seen.append((codebook, codebook.values.copy()))
        return score(codebook, sample, r)

    score = optimize.distortion_and_stationarity
    monkeypatch.setattr(optimize, "distortion_and_stationarity", recorded)
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
    cb = Codebook(space=unit_space.with_p(1.0), values=bm_sample.values[:2].copy())
    with pytest.raises(OptimizeError):
        sgd_run(cfg, cb, bm_sample, r=2.0)


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

    def check(name, dist=pairwise_distances):
        assert built, name
        for vor in built:
            np.testing.assert_array_equal(vor.dists, dist(vor.codebook, vor.sample), err_msg=name)
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
    distortion_and_stationarity(Codebook(space=p3, values=bm_sample.values[:3]), bm_sample, 3.0)
    check("distortion_and_stationarity")
    sup_distortion(constant_codebook(unit_space, [-0.5, 0.5]), bm_sample, 2.0)
    check("sup_distortion", sup_pairwise_distances)


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


def test_product_quantizer_cap_and_grid_checks(unit_space, rng):
    cb1 = Codebook(space=unit_space, values=rng.normal(size=(3, 1, unit_space.m)))
    with pytest.raises(OptimizeError):
        product_quantizer([cb1, cb1.with_values(cb1.values + 1.0)], cap=4)
    other = uniform_space(2.0, unit_space.m)
    cb_other = Codebook(space=other, values=rng.normal(size=(2, 1, other.m)))
    with pytest.raises(Exception):
        product_quantizer([cb1, cb_other])


def test_product_distortion_additivity():
    # p = 2, d = 2: product-codebook distortion equals the sum of marginal ones
    space = uniform_space(1.0, 65, d=2)
    sample = sample_paths(ProcessSpec("brownian"), space, 2000, seed=17)
    msp = space.marginal()
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
