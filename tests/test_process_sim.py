import tracemalloc

import numpy as np
import pytest
from scipy import stats

from fquant import (PathSample, ProcessSpec, exp_weighted_space, moment_check,
                    sample_paths, uniform_space)
from fquant.errors import FquantError, SimulationError
from fquant import process_sim
from fquant.process_sim import (_bridge_values, _brownian_values, _compound_poisson_increments,
                                _ou_values, standard_stable)
from fquant.rng import derive_rng


def test_spec_validation():
    with pytest.raises(FquantError):
        ProcessSpec("levy_flight")
    with pytest.raises(FquantError):
        ProcessSpec("fbm", params={"H": 1.2})
    with pytest.raises(FquantError):
        ProcessSpec("stable_levy", params={"rho": 2.0})
    with pytest.raises(FquantError):
        ProcessSpec("compound_poisson", params={"lam": -1.0})
    with pytest.raises(FquantError):
        ProcessSpec("gamma", params={})
    with pytest.raises(FquantError):
        ProcessSpec("bridge", x0=1.0)  # bridge is pinned at zero


@pytest.mark.parametrize("kind, x0", [("brownian", np.inf), ("brownian", (0.0, -np.inf)),
                                      ("diffusion_euler", np.nan)],
                         ids=["brownian_inf", "brownian_per_coordinate", "diffusion_nan"])
def test_x0_must_be_finite(kind, x0):
    # a non-finite start would sample non-finite paths
    params = {"drift": np.multiply, "diffusion": np.multiply} if kind == "diffusion_euler" else {}
    with pytest.raises(FquantError, match="^x0 must be finite, got"):
        ProcessSpec(kind, params=params, x0=x0)


def test_unknown_jump_law_rejected_at_spec():
    with pytest.raises(FquantError, match="unknown jump law 'foo'"):
        ProcessSpec("compound_poisson", params={"lam": 1.0, "jump_law": "foo"})
    ProcessSpec("compound_poisson", params={"lam": 1.0, "jump_law": "uniform"})
    ProcessSpec("compound_poisson", params={"lam": 1.0,
                                            "jump_law": lambda rng, size: rng.normal(size=size)})


def test_tags_are_pinned():
    # a tag names the sample's RNG stream: a new tag would change every sample of its kind
    def jumps(rng, size):
        return rng.standard_normal(size)

    def drift(t, x):
        return -x

    cases = [(ProcessSpec("brownian", x0=0.5), "brownian"), (ProcessSpec("bridge"), "bridge"),
             (ProcessSpec("ou", {"c": 1.5}), "ou(c=1.5)"),
             (ProcessSpec("fbm", {"H": 0.75}), "fbm(H=0.75)"),
             (ProcessSpec("diffusion_euler", {"drift": drift, "diffusion": drift}),
              "diffusion_euler"),
             (ProcessSpec("gamma", {"a": 2}), "gamma(a=2)"),
             (ProcessSpec("compound_poisson", {"lam": 3.0}),
              "compound_poisson(lam=3,jumps=normal)"),
             (ProcessSpec("compound_poisson", {"lam": 0.25, "jump_law": "uniform"}),
              "compound_poisson(lam=0.25,jumps=uniform)"),
             (ProcessSpec("compound_poisson", {"lam": 1.0, "jump_law": jumps}),
              "compound_poisson(lam=1,jumps=jumps)"),
             (ProcessSpec("stable_levy", {"rho": 1.5}), "stable_levy(rho=1.5)")]
    assert [spec.tag for spec, _ in cases] == [tag for _, tag in cases]
    assert {spec.kind for spec, _ in cases} == set(process_sim.KINDS)


def test_seed_determinism(unit_space):
    spec = ProcessSpec("brownian")
    a = sample_paths(spec, unit_space, 50, seed=42)
    b = sample_paths(spec, unit_space, 50, seed=42)
    np.testing.assert_array_equal(a.values, b.values)
    c = sample_paths(spec, unit_space, 50, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_brownian_covariance_oracle():
    # Cov(W_s, W_t) = min(s, t)
    space = uniform_space(1.0, 129)
    sample = sample_paths(ProcessSpec("brownian"), space, 100_000, seed=7)
    i_half = 64
    x = sample.values[:, 0, i_half]
    y = sample.values[:, 0, -1]
    cov = np.cov(np.stack([x, y]))
    np.testing.assert_allclose(cov, [[0.5, 0.5], [0.5, 1.0]], atol=2e-2)


def test_brownian_starts_at_zero_and_x0_shift(unit_space):
    sample = sample_paths(ProcessSpec("brownian"), unit_space, 20, seed=1)
    np.testing.assert_array_equal(sample.values[:, :, 0], 0.0)
    shifted = sample_paths(ProcessSpec("brownian", x0=2.5), unit_space, 20, seed=1)
    np.testing.assert_allclose(shifted.values[:, :, 0], 2.5)


def test_bridge_pins_final_node_exactly(unit_space):
    sample = sample_paths(ProcessSpec("bridge"), unit_space, 500, seed=11)
    assert np.all(sample.values[:, :, -1] == 0.0)
    assert np.all(sample.values[:, :, 0] == 0.0)


def test_bridge_variance_profile():
    # Var B_t = t (1 - t) on [0, 1]
    space = uniform_space(1.0, 65)
    sample = sample_paths(ProcessSpec("bridge"), space, 50_000, seed=12)
    mid = sample.values[:, 0, 32]
    assert mid.var() == pytest.approx(0.25, rel=0.05)


def test_ou_stationary_covariance():
    space = exp_weighted_space(4.0, 129, b=1.0)
    sample = sample_paths(ProcessSpec("ou", params={"c": 1.0}), space, 50_000, seed=13)
    x = sample.values[:, 0, :]
    assert x[:, 0].var() == pytest.approx(1.0, rel=0.05)
    assert x[:, -1].var() == pytest.approx(1.0, rel=0.05)
    lag = space.grid[40] - space.grid[8]
    emp = np.mean(x[:, 8] * x[:, 40])
    assert emp == pytest.approx(np.exp(-lag), abs=0.02)


def test_ou_blocked_recursion_matches_strided_loop(monkeypatch):
    space = exp_weighted_space(4.0, 33, b=1.0, d=2)
    c, n_paths = 1.5, 7
    # 3 path rows per block: the 14 rows of (n_paths * d, m) end in a partial block
    monkeypatch.setattr(process_sim, "_OU_BLOCK", 3 * space.m)
    out = _ou_values(np.random.default_rng(5), n_paths, space, ProcessSpec("ou", {"c": c}))
    ref = np.random.default_rng(5).standard_normal((n_paths, space.d, space.m))
    phi = np.exp(-c * np.diff(space.grid))
    sig = np.sqrt(1.0 - phi * phi)
    for k in range(space.m - 1):
        ref[..., k + 1] = phi[k] * ref[..., k] + sig[k] * ref[..., k + 1]
    np.testing.assert_array_equal(out, ref)


def test_bridge_blocked_pinning_matches_whole_product(monkeypatch):
    space = exp_weighted_space(4.0, 33, b=1.0, d=2)
    # 3 path rows per block: the 14 rows of (n_paths * d, m) end in a partial block
    monkeypatch.setattr(process_sim, "_OU_BLOCK", 3 * space.m)
    out = _bridge_values(np.random.default_rng(5), 7, space, ProcessSpec("bridge"))
    ref = _brownian_values(np.random.default_rng(5), 7, space)
    ref -= ref[..., -1:] * (space.grid / space.grid[-1])
    ref[..., -1] = 0.0
    np.testing.assert_array_equal(out, ref)


@pytest.mark.parametrize("kind", ["brownian", "bridge"])
def test_sampler_memory_is_the_sample(kind):
    # a 41 MB sample: the bridge's pinning may not hold a second copy of it
    space = uniform_space(1.0, 256)
    tracemalloc.start()
    try:
        sample = sample_paths(ProcessSpec(kind), space, 20_000, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    limit = 1.1 * sample.values.nbytes
    assert peak <= limit, f"{kind}: traced peak {peak} B > {limit:.0f} B"


def test_fbm_half_matches_brownian_increments():
    space = uniform_space(1.0, 101)
    sample = sample_paths(ProcessSpec("fbm", params={"H": 0.5}), space, 100, seed=21)
    inc = np.diff(sample.values[:, 0, :], axis=1).reshape(-1)
    dt = space.grid[1] - space.grid[0]
    stat = stats.kstest(inc / np.sqrt(dt), "norm")
    assert stat.pvalue > 0.01


def test_fbm_variance_scaling():
    space = uniform_space(1.0, 65)
    H = 0.75
    sample = sample_paths(ProcessSpec("fbm", params={"H": H}), space, 30_000, seed=22)
    for idx in (16, 32, 64):
        t = space.grid[idx]
        assert sample.values[:, 0, idx].var() == pytest.approx(t ** (2 * H), rel=0.06)


def test_brownian_self_similarity_ks():
    # (1/2) W(4 s) has the law of W(s)
    wide = sample_paths(ProcessSpec("brownian"), uniform_space(4.0, 129), 20_000, seed=31)
    unit = sample_paths(ProcessSpec("brownian"), uniform_space(1.0, 129), 20_000, seed=32)
    for idx in (32, 64, 128):
        scaled = 0.5 * wide.values[:, 0, idx]
        stat = stats.ks_2samp(scaled, unit.values[:, 0, idx])
        assert stat.pvalue > 0.01


def test_gamma_marginal_moments():
    space = uniform_space(1.0, 65)
    a = 2.0
    sample = sample_paths(ProcessSpec("gamma", params={"a": a}), space, 50_000, seed=41)
    end = sample.values[:, 0, -1]
    assert end.mean() == pytest.approx(1.0 / a, rel=0.03)     # E X_1 = 1/a
    assert end.var() == pytest.approx(1.0 / a ** 2, rel=0.06)  # Var X_1 = 1/a^2
    assert np.all(np.diff(sample.values[:, 0, :], axis=1) >= 0.0)


def test_compound_poisson_jump_count():
    space = uniform_space(1.0, 65)
    lam = 2.0
    rng = derive_rng(51, "counts")
    steps = np.diff(np.concatenate(([0.0], space.grid)))
    _, counts = _compound_poisson_increments(
        rng, lam, steps, 100_000, lambda g, size: g.standard_normal(size))
    mean_jumps = counts.sum(axis=1).mean()
    assert mean_jumps == pytest.approx(lam * space.grid[-1], rel=0.02)


def test_compound_poisson_second_moment():
    # E X_t^2 = lam * t * E U^2 for centered jumps
    space = uniform_space(1.0, 65)
    lam = 2.0
    spec = ProcessSpec("compound_poisson", params={"lam": lam})
    sample = sample_paths(spec, space, 100_000, seed=52)
    assert (sample.values[:, 0, -1] ** 2).mean() == pytest.approx(lam, rel=0.03)


def test_stable_levy_rho2_is_gaussian():
    rng = derive_rng(61, "stable")
    draws = standard_stable(rng, 2.0, 50_000)
    stat = stats.kstest(draws / np.sqrt(2.0), "norm")
    assert stat.pvalue > 0.01


def test_stable_levy_heavy_tail_tagging():
    space = uniform_space(1.0, 65)
    spec = ProcessSpec("stable_levy", params={"rho": 1.5})
    sample = sample_paths(spec, space, 20_000, seed=62)
    low = moment_check(sample, space.with_p(1.0), r=0.5)
    assert low.finite and low.stable and low.tag is None
    high = moment_check(sample, space.with_p(1.0), r=1.5)
    assert high.tag == "heavy-tail: r >= rho"


def test_near_equal_parameters_get_distinct_tags():
    # a tag keeps the short :g text only where it reads back as the same value
    space = uniform_space(1.0, 65)
    specs = [ProcessSpec("stable_levy", params={"rho": rho}) for rho in (1.5, 1.5000001)]
    assert [spec.tag for spec in specs] == ["stable_levy(rho=1.5)", "stable_levy(rho=1.5000001)"]
    samples = [sample_paths(spec, space, 2000, seed=5) for spec in specs]
    assert not np.array_equal(samples[0].values, samples[1].values)
    assert moment_check(samples[0], space, r=1.5).tag == "heavy-tail: r >= rho"
    assert moment_check(samples[1], space, r=1.5).tag is None
    # a value that needs more than 6 significant digits is tagged in full: its tag, and so
    # its sample, differ from those of the :g text it shared before
    assert ProcessSpec("fbm", params={"H": 0.7071067811865476}).tag == "fbm(H=0.7071067811865476)"


def test_levy_kinds_reject_multidimensional():
    space = uniform_space(1.0, 65, d=2)
    with pytest.raises(SimulationError):
        sample_paths(ProcessSpec("gamma", params={"a": 1.0}), space, 5, seed=1)


def test_diffusion_euler_matches_exact_decay(unit_space):
    spec = ProcessSpec("diffusion_euler",
                       params={"drift": lambda t, x: -x,
                               "diffusion": lambda t, x: 0.0},
                       x0=1.0)
    sample = sample_paths(spec, unit_space, 3, seed=71)
    # zero-noise Euler on dX = -X dt: X_{k+1} = X_k (1 - dt)
    dt = unit_space.grid[1] - unit_space.grid[0]
    expected = (1.0 - dt) ** np.arange(unit_space.m)
    np.testing.assert_allclose(sample.values[0, 0], expected, rtol=1e-12)


def test_diffusion_euler_step_halving_convergence():
    # weak error of Euler on dX = -X dt + dW shrinks with the step
    errs = []
    for m in (9, 17, 33):
        space = uniform_space(1.0, m)
        spec = ProcessSpec("diffusion_euler",
                           params={"drift": lambda t, x: -x,
                                   "diffusion": lambda t, x: 1.0})
        sample = sample_paths(spec, space, 200_000, seed=72)
        var_exact = (1.0 - np.exp(-2.0)) / 2.0  # stationary OU variance ramp at t=1
        errs.append(abs(sample.values[:, 0, -1].var() - var_exact))
    assert errs[2] < errs[0]


def test_moment_check_oracles():
    space = uniform_space(1.0, 257)
    bm = sample_paths(ProcessSpec("brownian"), space, 100_000, seed=91)
    chk = moment_check(bm, space, r=2.0)
    assert chk.value == pytest.approx(0.5, rel=0.02)  # E int W^2 = int t dt
    assert chk.stable and chk.finite
    assert float(chk) == chk.value

    bridge = sample_paths(ProcessSpec("bridge"), space, 100_000, seed=92)
    chk = moment_check(bridge, space, r=2.0)
    assert chk.value == pytest.approx(1.0 / 6.0, rel=0.03)  # int t(1-t) dt

    zero = PathSample(values=np.zeros((10, 1, space.m)), seed=0, process_tag="zero")
    assert moment_check(zero, space, r=2.0).value == 0.0


def test_sample_paths_rejects_bad_inputs(unit_space):
    with pytest.raises(SimulationError):
        sample_paths(ProcessSpec("brownian"), unit_space, 0, seed=1)
