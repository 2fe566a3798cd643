import tracemalloc
import warnings

import numpy as np
import pytest

from fquant import (Codebook, OptimizerConfig, PathSample, ProcessSpec, assign,
                    boundary_pinning, distortion_differential, holder_fit, lloyd_run,
                    monotonicity_check, quant_error, sample_paths, stationarity_residual,
                    uniform_space)
from fquant import quantize_core
from fquant.diagnostics import _integrand_means
from fquant.errors import FquantError


def constant_codebook(space, levels):
    return Codebook(space=space, values=np.stack(
        [np.full((space.d, space.m), lv) for lv in levels]))


def test_stationarity_zero_at_sample_mean(unit_space, bm_sample):
    mean_cb = Codebook(space=unit_space,
                       values=bm_sample.values.mean(axis=0)[None])
    rep = stationarity_residual(mean_cb, bm_sample, r=2.0)
    assert rep.max_residual < 1e-12
    assert rep.admissible
    assert rep.cell_masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationarity_zero_at_lloyd_fixed_point(unit_space, bm_sample):
    cfg = OptimizerConfig(method="lloyd", max_iters=100, tol=1e-13)
    init = constant_codebook(unit_space, [-1.0, -0.3, 0.3, 1.0])
    cb, trace = lloyd_run(cfg, init, bm_sample, r=2.0)
    assert trace.exit_reason == "fixed_point"
    rep = stationarity_residual(cb, bm_sample, r=2.0)
    assert rep.max_residual < 1e-10


def test_stationarity_displaced_atom_linear_response(unit_space, bm_sample):
    # n = 1, p = r = 2: shifting the mean atom by delta gives residual
    # delta * || 1 ||_{L^2} exactly
    delta = 1e-3
    shifted = Codebook(space=unit_space,
                       values=bm_sample.values.mean(axis=0)[None] + delta)
    rep = stationarity_residual(shifted, bm_sample, r=2.0)
    expected = delta * np.sqrt(unit_space.total_mass)
    assert rep.residuals[0, 0] == pytest.approx(expected, rel=1e-10)


def test_stationarity_requires_r_at_least_p(unit_space, bm_sample):
    cb = constant_codebook(unit_space, [0.0])
    with pytest.raises(FquantError):
        stationarity_residual(Codebook(space=unit_space.with_p(3.0), values=cb.values),
                              bm_sample, r=2.0)


def test_stationarity_p1_uses_sign_and_sup(unit_space):
    space = unit_space.with_p(1.0)
    values = np.stack([np.full((1, space.m), v) for v in (-1.0, 0.0, 2.0)])
    sample = PathSample(values=values, seed=0, process_tag="c")
    # atom at the weighted median of its (single) cell: sign kernel means cancel
    cb = Codebook(space=space, values=np.full((1, 1, space.m), 0.0))
    rep = stationarity_residual(cb, sample, r=1.0)
    # signs: sign(0 - (-1)) + sign(0 - 0) + sign(0 - 2) = 1 + 0 - 1 = 0
    assert rep.max_residual == 0.0


@pytest.mark.parametrize("r", [1.0, 1.5])
def test_stationarity_p1_matches_sign_reference_on_brownian(unit_space, bm_sample, r):
    # atoms are sample paths, so each atom's own path drops out of its cell
    space = unit_space.with_p(1.0)
    cb = Codebook(space=space, values=bm_sample.values[[0, 1, 2, 3]])
    vor = assign(cb, bm_sample)
    means = np.zeros_like(cb.values)
    for i in range(cb.n):
        sel = (vor.cell_index == i) & (vor.best > 0.0)
        kernel = np.sign(cb.values[i][None] - bm_sample.values[sel])
        if r != 1.0:
            kernel *= (vor.best[sel] ** (r - 1.0))[:, None, None]
        means[i] = kernel.sum(axis=0) / len(bm_sample)
    rep = stationarity_residual(cb, bm_sample, r=r)
    assert np.array_equal(rep.residuals, np.abs(means).max(axis=2))
    assert rep.max_residual > 0.0


def _per_cell_integrand_means(cb, sample, vor, r):
    """Reference: the integrand means one masked cell at a time, with the scale
    sum |w phi| / N of each entry."""
    p = cb.space.p
    means, scale = np.zeros_like(cb.values), np.zeros_like(cb.values)
    for i in range(cb.n):
        sel = (vor.cell_index == i) & (vor.best > 0.0)
        diff = cb.values[i][None] - sample.values[sel]   # a_i - x
        kernel = np.abs(diff) ** (p - 1.0) * np.sign(diff)
        if r != p:
            kernel *= (vor.best[sel] ** (r - p))[:, None, None]
        means[i] = kernel.sum(axis=0) / len(sample)
        scale[i] = np.abs(kernel).sum(axis=0) / len(sample)
    return means, scale


@pytest.mark.parametrize("chunk_rows", [None, 7])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0])
def test_integrand_means_match_per_cell_reference(p, chunk_rows, monkeypatch):
    # d = 2; atom 0 is a sample path (a path equal to its atom); atom 3 is far
    # from every path (an empty cell)
    space = uniform_space(1.0, 33, p=p, d=2)
    sample = sample_paths(ProcessSpec("brownian"), space, 301, seed=5)
    values = np.stack([sample.values[0], sample.values[1] + 0.1,
                       sample.values[2] - 0.2, np.full((2, 33), 50.0)])
    cb = Codebook(space=space, values=values)
    vor = assign(cb, sample)
    assert vor.best[0] == 0.0 and vor.counts[3] == 0
    if chunk_rows is not None:
        monkeypatch.setattr(quantize_core, "_CHUNK_BUDGET",
                            chunk_rows * (3 * 2 * space.m + cb.n))
    cases = [(r, False) for r in (p, p + 1.0)]
    if p > 1.0:
        cases.append((p - 0.5 if p > 1.5 else 1.0, True))   # r < p: the differential
    for r, differential in cases:
        means, scale = _per_cell_integrand_means(cb, sample, vor, r)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if differential:
                got = distortion_differential(cb, sample, r) / r
            else:
                got = _integrand_means(vor, r)
        assert np.all(np.abs(got - means) <= 1e-12 * scale), (r, np.abs(got - means).max())
        assert np.all(got[3] == 0.0)


def test_first_order_condition_memory_is_bounded_by_the_chunk(monkeypatch):
    # a 2 MiB chunk budget against a 41 MB sample: neither call may copy the sample
    monkeypatch.setattr(quantize_core, "_CHUNK_BUDGET", 2 ** 18)
    space = uniform_space(1.0, 256)
    sample = sample_paths(ProcessSpec("brownian"), space, 20_000, seed=9)
    cb = Codebook(space=space, values=sample.values.mean(axis=0)[None] + 0.01)
    limit = 0.1 * sample.values.nbytes
    for call in (stationarity_residual, quant_error):
        tracemalloc.start()
        try:
            call(cb, sample, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit, f"{call.__name__}: traced peak {peak} B > {limit:.0f} B"


def test_stationarity_tie_and_hit_mass(unit_space):
    values = np.stack([np.full((1, unit_space.m), v) for v in (-1.0, 0.0, 1.0)])
    sample = PathSample(values=values, seed=0, process_tag="c")
    cb = constant_codebook(unit_space, [-1.0, 1.0])
    rep = stationarity_residual(cb, sample, r=2.0)
    assert rep.tie_mass == pytest.approx(1.0 / 3.0)
    assert rep.atom_hit_mass[0] == pytest.approx(1.0 / 3.0)
    assert not rep.admissible  # tie mass far above the threshold
    assert '"residuals"' in rep.to_json()


def test_monotonicity_two_point_support(unit_space):
    values = np.stack([np.full((1, unit_space.m), v) for v in (-1.0, 1.0)])
    sample = PathSample(values=values, seed=0, process_tag="c")
    cb1 = constant_codebook(unit_space, [0.25])
    cb2 = constant_codebook(unit_space, [-1.0, 1.0])
    rep = monotonicity_check([cb1, cb2], sample, r=2.0)
    (n1, e1, _), (n2, e2, _) = rep.entries
    assert (n1, n2) == (1, 2)
    assert e2 == 0.0 < e1
    assert rep.strictly_decreasing
    assert rep.flagged == []


def test_monotonicity_flags_equal_values(unit_space, bm_sample):
    cb2 = constant_codebook(unit_space, [-0.5, 0.5])
    # a third atom too far away to capture anything: identical error
    cb3 = constant_codebook(unit_space, [-0.5, 0.5, 60.0])
    rep = monotonicity_check([cb2, cb3], bm_sample, r=2.0)
    assert rep.flagged == [(2, 3)]


def test_monotonicity_requires_increasing_sizes(unit_space, bm_sample):
    cb = constant_codebook(unit_space, [-0.5, 0.5])
    with pytest.raises(FquantError):
        monotonicity_check([cb, cb], bm_sample, r=2.0)


def test_holder_fit_linear_slope_one():
    space = uniform_space(1.0, 257)
    cb = Codebook(space=space, values=space.grid[None, None, :].copy())
    fit = holder_fit(cb)
    assert fit.beta[0, 0] == pytest.approx(1.0, abs=1e-6)
    assert fit.r_squared[0, 0] > 0.999999


def test_holder_fit_sqrt_slope_half():
    space = uniform_space(1.0, 257)
    cb = Codebook(space=space, values=np.sqrt(space.grid)[None, None, :].copy())
    dt = space.grid[1] - space.grid[0]
    fit = holder_fit(cb, lag_range=(dt, 0.25))
    assert fit.beta[0, 0] == pytest.approx(0.5, abs=0.02)


def test_holder_fit_constant_atom_flagged():
    space = uniform_space(1.0, 129)
    cb = Codebook(space=space, values=np.full((1, 1, space.m), 3.0))
    fit = holder_fit(cb)
    assert np.isinf(fit.beta[0, 0])


def test_holder_fit_affine_invariance():
    space = uniform_space(1.0, 257)
    base = np.abs(np.sin(7.0 * space.grid)) + 0.1 * space.grid
    cb1 = Codebook(space=space, values=base[None, None, :].copy())
    cb5 = Codebook(space=space, values=(5.0 * base)[None, None, :].copy())
    f1, f5 = holder_fit(cb1), holder_fit(cb5)
    assert f5.beta[0, 0] == pytest.approx(f1.beta[0, 0], abs=1e-12)
    assert f5.intercept[0, 0] == pytest.approx(f1.intercept[0, 0] + np.log(5.0),
                                               abs=1e-12)


def test_holder_fit_validation():
    tiny = uniform_space(1.0, 33)
    cb = Codebook(space=tiny, values=np.zeros((1, 1, 33)) + tiny.grid)
    with pytest.raises(FquantError):
        holder_fit(cb)
    space = uniform_space(1.0, 257)
    cb = Codebook(space=space, values=space.grid[None, None, :].copy())
    with pytest.raises(FquantError):
        holder_fit(cb, lag_range=(space.grid[1], 0.9))  # beyond span / 4


def test_holder_fit_csv_shape():
    space = uniform_space(1.0, 129)
    cb = Codebook(space=space, values=space.grid[None, None, :].copy())
    fit = holder_fit(cb)
    lines = fit.to_csv().strip().splitlines()
    assert lines[0] == "atom,coord,lag,max_increment"
    assert len(lines) == 1 + fit.lags.size


def test_boundary_pinning_brownian_time_zero(unit_space, bm_sample):
    cfg = OptimizerConfig(method="lloyd", max_iters=60, tol=1e-12)
    init = Codebook(space=unit_space, values=bm_sample.values[:4].copy())
    cb, _ = lloyd_run(cfg, init, bm_sample, r=2.0)
    assert boundary_pinning(cb, ([0], 0.0)) < 1e-6


def test_boundary_pinning_bridge_endpoint(unit_space):
    sample = sample_paths(ProcessSpec("bridge"), unit_space, 500, seed=23)
    cfg = OptimizerConfig(method="lloyd", max_iters=60, tol=1e-12)
    init = Codebook(space=unit_space, values=sample.values[:3].copy())
    cb, _ = lloyd_run(cfg, init, sample, r=2.0)
    assert boundary_pinning(cb, ([0, unit_space.m - 1], 0.0)) < 1e-6


def test_boundary_pinning_reports_unpinned_value(unit_space):
    cb = constant_codebook(unit_space, [0.7])
    assert boundary_pinning(cb, ([0], 0.0)) == pytest.approx(0.7)
    with pytest.raises(FquantError):
        boundary_pinning(cb, ([unit_space.m + 5], 0.0))
