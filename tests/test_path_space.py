import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fquant import (DiscretePathSpace, Path, PathSample, dual_pairing, exp_weighted_space,
                    lp_dist, lp_norm, norm_gradient, uniform_space)
from fquant.errors import (DimensionMismatchError, FquantError,
                           NonSmoothNormError, ZeroPathError)
from fquant.oracles import bump_function_values, step_function_values, sup_example_grid
from fquant.path_space import (_to_json, load_sample, pack_paths, paths_to_csv,
                               save_sample, unpack_paths)


def test_space_invariants_rejected():
    with pytest.raises(FquantError):
        uniform_space(1.0, 1)  # m < 2
    with pytest.raises(FquantError):
        DiscretePathSpace(grid=[0.0, 1.0], weights=[0.5, -0.5], p=2.0)
    with pytest.raises(FquantError):
        DiscretePathSpace(grid=[0.0, 0.0], weights=[0.5, 0.5], p=2.0)
    with pytest.raises(FquantError):
        DiscretePathSpace(grid=[0.0, 1.0], weights=[0.5, 0.5], p=0.5)
    with pytest.raises(FquantError):
        DiscretePathSpace(grid=[0.0, 1.0], weights=[0.5, 0.5], p=np.nan)
    assert DiscretePathSpace(grid=[0.0, 1.0], weights=[0.5, 0.5], p=np.inf).p == np.inf


def test_uniform_space_total_mass():
    space = uniform_space(3.0, 257)
    assert space.total_mass == pytest.approx(3.0, rel=1e-12)


def test_lp_norm_constant_one_unit_mass(unit_space):
    f = Path.constant(unit_space, 1.0)
    assert lp_norm(unit_space, f) == pytest.approx(1.0, rel=1e-12)


def test_lp_norm_zero(unit_space):
    assert lp_norm(unit_space, Path.zero(unit_space)) == 0.0


def test_lp_norm_linear_function_closed_form():
    # integral of t^2 on [0,1] is 1/3
    space = uniform_space(1.0, 1025, p=2.0)
    f = Path.from_function(space, lambda t: t)
    assert lp_norm(space, f) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-4)


def test_lp_norm_dimension_mismatch(unit_space):
    bad = Path(values=np.zeros((1, unit_space.m + 1)))
    with pytest.raises(DimensionMismatchError) as err:
        lp_norm(unit_space, bad)
    assert str(unit_space.shape) in str(err.value)


def test_lp_dist_trivials(unit_space):
    f = Path.from_function(unit_space, lambda t: np.sin(t))
    assert lp_dist(unit_space, f, f) == 0.0
    one = Path.constant(unit_space, 1.0)
    zero = Path.zero(unit_space)
    for p in (1.0, 2.0, 3.5):
        sp = unit_space.with_p(p)
        assert lp_dist(sp, one, zero) == pytest.approx(1.0, rel=1e-12)


def test_lp_dist_symmetry(unit_space, rng):
    for _ in range(5):
        f = Path(values=rng.normal(size=(1, unit_space.m)))
        g = Path(values=rng.normal(size=(1, unit_space.m)))
        assert lp_dist(unit_space, f, g) == lp_dist(unit_space, g, f)


def test_sup_norm_trivials():
    assert lp_norm(uniform_space(1.0, 8, p=np.inf, d=2), Path(values=np.zeros((2, 8)))) == 0.0
    vals = np.random.default_rng(3).uniform(-0.9, 0.9, size=(2, 16))
    vals[1, 5] = -3.0
    assert lp_norm(uniform_space(1.0, 16, p=np.inf, d=2), Path(values=vals)) == 3.0


def test_sup_norm_bump_minus_step_is_half():
    # the C([0,1]) family: every bump sits exactly 1/2 away from the step
    grid = sup_example_grid(6)
    space = DiscretePathSpace(grid=grid, weights=np.ones_like(grid), p=np.inf)
    h = step_function_values(grid)
    for n in range(1, 7):
        f = bump_function_values(n, grid)
        assert lp_norm(space, Path(values=(f - h)[None, :])) == 0.5


@pytest.mark.parametrize("p", [1.0, 2.0, 8.0, 64.0])
def test_sup_norm_is_the_limit_of_the_family(rng, p):
    # w_min^(1/p) ||f||_inf <= ||f||_p <= (d T)^(1/p) ||f||_inf, T the total mass,
    # so ||f||_p -> ||f||_inf as p -> inf on a grid with strictly positive weights
    space = exp_weighted_space(2.0, 33, b=1.5, p=p, d=2)
    for _ in range(20):
        f = Path(values=rng.normal(size=(2, 33)) * rng.exponential(size=(2, 33)))
        sup = lp_norm(space.with_p(np.inf), f)
        norm = lp_norm(space, f)
        assert space.weights.min() ** (1.0 / p) * sup <= norm * (1 + 1e-12)
        assert norm <= (2 * space.total_mass) ** (1.0 / p) * sup * (1 + 1e-12)


def test_norm_gradient_p2_identity_on_sphere(unit_space, rng):
    f = Path(values=rng.normal(size=(1, unit_space.m)))
    f = Path(values=f.values / lp_norm(unit_space, f))
    g = norm_gradient(unit_space, f)
    np.testing.assert_allclose(g.values, f.values, rtol=1e-12)


def test_norm_gradient_norming_identity(unit_space, rng):
    for p in (1.5, 2.0, 3.0, 4.0):
        sp = unit_space.with_p(p)
        f = Path(values=rng.normal(size=(1, sp.m)))
        g = norm_gradient(sp, f)
        assert dual_pairing(sp, g, f) == pytest.approx(lp_norm(sp, f), rel=1e-12)


def test_norm_gradient_p3_constant_two():
    space = uniform_space(1.0, 65, p=3.0)
    f = Path.constant(space, 2.0)
    g = norm_gradient(space, f)
    np.testing.assert_allclose(g.values, 1.0, rtol=1e-12)


def test_norm_gradient_errors(unit_space):
    with pytest.raises(ZeroPathError):
        norm_gradient(unit_space, Path.zero(unit_space))
    with pytest.raises(NonSmoothNormError):
        norm_gradient(unit_space.with_p(1.0), Path.constant(unit_space, 1.0))
    with pytest.raises(NonSmoothNormError):
        norm_gradient(unit_space.with_p(np.inf), Path.constant(unit_space, 1.0))


def test_norm_gradient_finite_difference(unit_space, rng):
    # directional derivative of the norm matches the dual pairing
    for p in (1.5, 2.0, 3.0):
        sp = unit_space.with_p(p)
        f = Path(values=rng.normal(size=(1, sp.m)) + 0.1)
        h = Path(values=rng.normal(size=(1, sp.m)))
        g = norm_gradient(sp, f)
        eps = 1e-6
        fd = (lp_norm(sp, Path(values=f.values + eps * h.values))
              - lp_norm(sp, Path(values=f.values - eps * h.values))) / (2 * eps)
        assert fd == pytest.approx(dual_pairing(sp, g, h), rel=1e-5)


@given(c=st.one_of(st.just(0.0),
                   st.floats(min_value=1e-6, max_value=100.0),
                   st.floats(min_value=-100.0, max_value=-1e-6)),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_homogeneity(c, p, seed):
    space = uniform_space(1.0, 33, p=p)
    f = Path(values=np.random.default_rng(seed).normal(size=(1, 33)))
    lhs = lp_norm(space, Path(values=c * f.values))
    rhs = abs(c) * lp_norm(space, f)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@given(p=st.sampled_from([1.0, 1.5, 2.0, 4.0, np.inf]),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_triangle_inequality(p, seed):
    space = uniform_space(1.0, 33, p=p)
    g = np.random.default_rng(seed)
    f1 = Path(values=g.normal(size=(2, 33)))
    f2 = Path(values=g.normal(size=(2, 33)))
    sp = space.with_d(2)
    lhs = lp_norm(sp, Path(values=f1.values + f2.values))
    assert lhs <= lp_norm(sp, f1) + lp_norm(sp, f2) + 1e-12


def test_grid_refinement_quadratic_convergence():
    # trapezoid error on a fixed smooth integrand decays like m^-2
    exact = 1.0 / np.sqrt(3.0)
    errs = []
    for m in (65, 129, 257):
        space = uniform_space(1.0, m, p=2.0)
        f = Path.from_function(space, lambda t: t)
        errs.append(abs(lp_norm(space, f) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


def test_binary_roundtrip(tmp_path, bm_sample):
    blob = pack_paths(bm_sample.values, seed=bm_sample.seed)
    values, seed = unpack_paths(blob)
    assert seed == bm_sample.seed
    np.testing.assert_array_equal(values, bm_sample.values)

    target = tmp_path / "sample.bin"
    save_sample(target, bm_sample)
    loaded = load_sample(target, process_tag=bm_sample.process_tag)
    np.testing.assert_array_equal(loaded.values, bm_sample.values)
    assert loaded.seed == bm_sample.seed


def test_binary_header_layout():
    values = np.arange(12.0).reshape(2, 2, 3)
    blob = pack_paths(values, seed=7)
    header = np.frombuffer(blob[:32], dtype="<i8")
    np.testing.assert_array_equal(header, [2, 3, 2, 7])  # d, m, N, seed
    np.testing.assert_array_equal(np.frombuffer(blob[32:], dtype="<f8"),
                                  values.reshape(-1))


@pytest.mark.parametrize("blob", [b"xx", b"", pack_paths(np.zeros((1, 1, 2)), seed=1)[:31]],
                         ids=["two_bytes", "empty", "header_less_one"])
def test_short_payload_is_a_fquant_error(blob):
    with pytest.raises(FquantError, match="header"):
        unpack_paths(blob)


def test_csv_roundtrip_small(unit_space):
    vals = np.random.default_rng(5).normal(size=(2, 1, unit_space.m))
    text = paths_to_csv(unit_space, vals)
    rows = text.strip().splitlines()
    assert rows[0] == "t,path0_c0,path1_c0"
    assert len(rows) == unit_space.m + 1
    back = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    np.testing.assert_array_equal(back[:, 0], unit_space.grid)
    np.testing.assert_array_equal(back[:, 1], vals[0, 0])


def test_path_sample_invariants():
    with pytest.raises(FquantError):
        PathSample(values=np.zeros((0, 1, 4)), seed=0, process_tag="x")
    with pytest.raises(FquantError):
        Path(values=np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_path_sample_refuses_non_finite_values(bad):
    # a NaN path would land in cell n, which does not exist, in an atom-major pass
    values = np.zeros((3, 2, 5))
    values[1, 1, 3] = bad
    with pytest.raises(FquantError, match="^sample values must be finite$"):
        PathSample(values=values, seed=0, process_tag="x")
    values[1, 1, 3] = np.finfo(float).max  # the largest finite values still load
    values[0, 0, 0] = -np.finfo(float).max
    assert PathSample(values=values, seed=0, process_tag="x").values[1, 1, 3] == values[1, 1, 3]


def _refuse(constant):
    raise ValueError(f"not RFC 8259 JSON: {constant}")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_LEAVES = st.none() | st.booleans() | st.integers() | _FINITE | st.text(max_size=4)
_ARRAYS = st.lists(_FINITE, max_size=6).map(np.array) | st.lists(
    st.lists(_FINITE, min_size=2, max_size=2), max_size=3).map(np.array)
_BODIES = st.dictionaries(st.text(max_size=4), st.recursive(
    _LEAVES | _ARRAYS, lambda kids: st.lists(kids, max_size=3) | st.lists(kids, max_size=3).map(
        tuple) | st.dictionaries(st.text(max_size=4), kids, max_size=3), max_leaves=12),
    max_size=5)


@given(_BODIES)
def test_to_json_is_json_dumps_on_finite_bodies(body):
    # the old writers' text: json.dumps with sorted keys, each array as its tolist()
    text = _to_json(body)
    assert text == json.dumps(body, sort_keys=True, default=np.ndarray.tolist)
    json.loads(text, parse_constant=_refuse)


def test_to_json_writes_non_finite_floats_as_null():
    body = {"b": [np.inf, -np.inf, np.nan, 1.5], "a": np.array([[np.inf], [2.0]]),
            "c": (np.float64(-np.inf), {"d": np.nan, "e": 0}), "f": np.float64(np.nan)}
    text = _to_json(body)
    assert text == ('{"a": [[null], [2.0]], "b": [null, null, null, 1.5], '
                    '"c": [null, {"d": null, "e": 0}], "f": null}')
    assert json.loads(text, parse_constant=_refuse)["b"] == [None, None, None, 1.5]


def test_path_sample_values_are_read_only():
    # a sample keeps what it derives from its paths (the p = 2 norms), so its values
    # refuse writes; the caller's array it wraps without a copy stays writeable
    own = np.full((3, 1, 4), 2.0)
    sample = PathSample(values=own, seed=0, process_tag="x")
    with pytest.raises(ValueError):
        sample.values[:] = 0.0
    assert own.flags.writeable and np.shares_memory(sample.values, own)
