import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fquant import (Codebook, Path, PathSample, ProcessSpec, VoronoiAssignment, assign,
                    codebook_from_paths, cross_exponent_bounds, distortion,
                    exp_weighted_space, lp_dist, quant_error, quantize_paths,
                    sample_paths, stationarity_residual, sup_distortion, sup_norm,
                    uniform_space)
from fquant import quantize_core
from fquant.errors import FquantError
from fquant.quantize_core import (_weighted_sq_norms, pairwise_distances,
                                  sup_pairwise_distances)


def constant_codebook(space, levels):
    return Codebook(space=space, values=np.stack(
        [np.full((space.d, space.m), lv) for lv in levels]))


def constant_sample(space, levels, tag="constants"):
    return PathSample(values=np.stack(
        [np.full((space.d, space.m), lv) for lv in levels]), seed=0, process_tag=tag)


def test_codebook_rejects_duplicates(unit_space):
    with pytest.raises(FquantError):
        constant_codebook(unit_space, [1.0, 1.0])


def _first_duplicate_pair(values):
    # reference: the lowest i with a later copy, and its first copy j
    flat = values.reshape(len(values), -1)
    for i in range(len(flat)):
        for j in range(i + 1, len(flat)):
            if np.array_equal(flat[i], flat[j]):
                return i, j


@pytest.mark.parametrize("rows", [[0, 1, 2, 3, 2, 1, 1],    # two duplicate groups
                                  [4, 3, 3, 4, 0, 0],
                                  [0, 1, 2, 0, 1, 2]])
def test_codebook_duplicate_message_names_lowest_pair(unit_space, rng, rows):
    values = rng.normal(size=(5, 2, unit_space.m))[rows]
    i, j = _first_duplicate_pair(values)
    with pytest.raises(FquantError, match=rf"duplicate atoms at indices {i} and {j}$"):
        Codebook(space=unit_space.with_d(2), values=values)


def test_codebook_signed_zero_atoms_are_duplicates(unit_space):
    values = np.zeros((3, 1, unit_space.m))
    values[1] = 1.0
    values[2] = -0.0
    with pytest.raises(FquantError, match="duplicate atoms at indices 0 and 2$"):
        Codebook(space=unit_space, values=values)


def _lexsort_duplicate_pair(values):
    # reference: a stable row sort groups equal atoms in index order; the lowest pair
    flat = values.reshape(len(values), -1)
    order = np.lexsort(flat.T[::-1])
    same = np.all(flat[order[1:]] == flat[order[:-1]], axis=1)
    if not np.any(same):
        return None
    heads = np.flatnonzero(same & ~np.r_[False, same[:-1]])
    g = heads[np.argmin(order[heads])]
    return order[g], order[g + 1]


_DUPLICATE_POOL = np.random.default_rng(7).normal(size=(6, 1, 65))
_DUPLICATE_POOL[0, 0, :3] = 0.0
_DUPLICATE_POOL[1] = _DUPLICATE_POOL[0]
_DUPLICATE_POOL[1, 0, :3] = -0.0     # equal to atom 0 as floats, not as bytes
_DUPLICATE_POOL[4] = _DUPLICATE_POOL[2]
_DUPLICATE_POOL[4, 0, 9] = np.nextafter(_DUPLICATE_POOL[2, 0, 9], np.inf)  # distinct by 1 ulp


@given(st.lists(st.integers(0, 5), min_size=2, max_size=12))
def test_codebook_duplicate_check_matches_lexsort_reference(unit_space, rows):
    values = _DUPLICATE_POOL[rows]
    pair = _lexsort_duplicate_pair(values)
    if pair is None:
        Codebook(space=unit_space, values=values)
    else:
        with pytest.raises(FquantError, match=rf"duplicate atoms at indices {pair[0]} and {pair[1]}$"):
            Codebook(space=unit_space, values=values)


def test_codebook_binary_roundtrip(unit_space, rng):
    cb = Codebook(space=unit_space, values=rng.normal(size=(3, 1, unit_space.m)))
    back = Codebook.from_binary(cb.to_binary(), unit_space)
    np.testing.assert_array_equal(back.values, cb.values)
    header = cb.to_csv().splitlines()[0]
    assert header == "t," + ",".join(f"atom{i}_c0" for i in range(3))


def test_pairwise_distances_match_lp_dist(unit_space, rng):
    # the chunked kernel (matmul fast path at p=2) against per-pair evaluation
    for p in (1.5, 2.0, 3.0):
        space = unit_space.with_p(p)
        sample = PathSample(values=rng.normal(size=(7, 1, space.m)), seed=0,
                            process_tag="t")
        cb = Codebook(space=space, values=rng.normal(size=(3, 1, space.m)))
        fast = pairwise_distances(cb, sample)
        slow = np.array([[lp_dist(space, sample.path(i), cb.atom(j))
                          for j in range(cb.n)] for i in range(len(sample))])
        np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)


def test_p2_gemm_distances_match_direct_on_weighted_space(rng):
    # flattened d = 2 rows, non-uniform weights; coincident pairs are exactly 0
    space = exp_weighted_space(2.0, 33, b=1.5, d=2)
    x = rng.normal(size=(40, 2, space.m))
    atoms = np.concatenate([x[[3, 17]], rng.normal(size=(4, 2, space.m))])
    sample = PathSample(values=x, seed=0, process_tag="t")
    cb = Codebook(space=space, values=atoms)
    fast = pairwise_distances(cb, sample)
    diff = x[:, None] - atoms[None]
    direct = np.sqrt(((diff * diff) @ space.weights).sum(axis=2))
    np.testing.assert_allclose(fast, direct, rtol=1e-12, atol=0.0)
    assert fast[3, 0] == 0.0 and fast[17, 1] == 0.0
    assert np.count_nonzero(fast == 0.0) == 2
    given = pairwise_distances(cb, sample, sample_sq=_weighted_sq_norms(space, sample))
    np.testing.assert_array_equal(given, fast)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0])
def test_general_p_distances_match_direct_across_chunks(rng, monkeypatch, p):
    # flattened d = 2 rows, non-uniform weights, row chunks of 3 paths (1 path
    # at integral p, whose pass holds a second buffer; the last chunk ragged);
    # coincident pairs are exactly 0
    space = exp_weighted_space(2.0, 33, b=1.5, p=p, d=2)
    x = rng.normal(size=(40, 2, space.m))
    atoms = np.concatenate([x[[3, 17]], rng.normal(size=(4, 2, space.m))])
    sample = PathSample(values=x, seed=0, process_tag="t")
    cb = Codebook(space=space, values=atoms)
    monkeypatch.setattr(quantize_core, "_CHUNK_BUDGET", 3 * (2 * space.m + cb.n))
    fast = pairwise_distances(cb, sample)
    direct = np.array([[(np.abs(xi - a) ** p @ space.weights).sum() ** (1.0 / p)
                        for a in atoms] for xi in x])
    np.testing.assert_allclose(fast, direct, rtol=1e-12, atol=0.0)
    assert fast[3, 0] == 0.0 and fast[17, 1] == 0.0
    assert np.count_nonzero(fast == 0.0) == 2


@pytest.mark.parametrize("p", [1.0, 2.5, 3.0, 4.0, 5.0])
def test_general_p_pass_matches_np_power_reference(monkeypatch, p):
    # Brownian paths on an exp-weighted d = 2 grid, so no |x - a| is dyadic.
    # The reference raises the same flattened rows by np.power and reduces them
    # by the same matrix-vector product, so only the power differs: binary
    # powering at integral p, np.power's own bits elsewhere
    space = exp_weighted_space(1.0, 37, b=1.5, p=p, d=2)
    sample = sample_paths(ProcessSpec("brownian"), space, 300, seed=3)
    atoms = np.concatenate([sample.values[[5]], 0.5 * sample.values[[40, 41, 200]]])
    cb = Codebook(space=space, values=atoms)
    xf = sample.values.reshape(len(sample), -1)
    wf = np.tile(space.weights, space.d)
    ref = np.stack([(np.power(np.abs(xf - a), p) @ wf) ** (1.0 / p)
                    for a in atoms.reshape(cb.n, -1)], axis=1)
    fast = pairwise_distances(cb, sample)
    if p.is_integer():
        np.testing.assert_allclose(fast, ref, rtol=1e-14, atol=0.0)
    else:
        np.testing.assert_array_equal(fast, ref)
    np.testing.assert_array_equal(VoronoiAssignment(cb, sample, fast).cell_index,
                                  VoronoiAssignment(cb, sample, ref).cell_index)
    assert fast[5, 0] == 0.0 and np.count_nonzero(fast == 0.0) == 1
    # chunks of that many paths (about twice that at p = 2.5, which keeps no
    # scratch buffer), the last one ragged.  No entry's power depends on the
    # chunk, but BLAS sums a matrix-vector product in row blocks, so a row's
    # last bits can move with the chunk size (up to 3 ulp here)
    for rows in (1, 7, 64):
        monkeypatch.setattr(quantize_core, "_CHUNK_BUDGET", rows * (2 * xf.shape[1] + cb.n))
        chunked = pairwise_distances(cb, sample)
        np.testing.assert_allclose(chunked, fast, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(chunked.argmin(axis=1), fast.argmin(axis=1))


def test_assign_single_atom(unit_space, bm_sample):
    cb = constant_codebook(unit_space, [0.0])
    va = assign(cb, bm_sample)
    assert np.all(va.cell_index == 0)
    assert not va.tie_flags.any()


def test_assign_tie_goes_to_lowest_index(unit_space):
    cb = constant_codebook(unit_space, [-1.0, 1.0])
    sample = constant_sample(unit_space, [0.0])
    va = assign(cb, sample)
    assert va.cell_index[0] == 0
    assert va.tie_flags[0]
    assert va.tie_mass == 1.0


def test_assign_constant_levels(unit_space):
    cb = constant_codebook(unit_space, [-1.0, 1.0])
    sample = constant_sample(unit_space, [-0.9, 0.2, 0.8])
    va = assign(cb, sample)
    np.testing.assert_array_equal(va.cell_index, [0, 1, 1])


@pytest.mark.parametrize("norm", ["p2", "p3", "sup"])
def test_voronoi_assignment_matches_per_pair_reference(unit_space, norm):
    # constant paths at dyadic levels: exact ties (0.25 between 0 and 0.5, ...)
    # and paths equal to atoms (all of the atoms, one of them twice)
    space = unit_space.with_p(3.0 if norm == "p3" else 2.0)
    atoms = [-0.5, 0.0, 0.5, 1.0]
    levels = [-1.0, -0.5, -0.25, 0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.0, 1.5, -0.375]
    cb, sample = constant_codebook(space, atoms), constant_sample(space, levels)
    if norm == "sup":
        vor = VoronoiAssignment(cb, sample, sup_pairwise_distances(cb, sample))
        ref = [[sup_norm(Path(x - a)) for a in cb.values] for x in sample.values]
    else:
        vor = assign(cb, sample)
        ref = [[lp_dist(space, Path(x), Path(a)) for a in cb.values] for x in sample.values]
    cells = [row.index(min(row)) for row in ref]
    np.testing.assert_array_equal(vor.dists, ref)
    np.testing.assert_array_equal(vor.cell_index, cells)
    np.testing.assert_array_equal(vor.best, [min(row) for row in ref])
    np.testing.assert_array_equal(vor.tie_flags, [row.count(min(row)) > 1 for row in ref])
    np.testing.assert_array_equal(vor.counts, [cells.count(i) for i in range(cb.n)])
    assert vor.tie_flags.sum() == 3 and np.count_nonzero(vor.best == 0.0) == 5
    assert vor.tie_mass == 3 / len(levels)
    np.testing.assert_array_equal(vor.cell_masses(), vor.counts / len(levels))
    if norm == "sup":
        rep = sup_distortion(cb, sample, 2.0)
        np.testing.assert_array_equal(rep.per_cell_mass, vor.cell_masses())
        return
    r = space.p
    np.testing.assert_array_equal(distortion(cb, sample, r).per_cell_mass, vor.cell_masses())
    stat = stationarity_residual(cb, sample, r)
    np.testing.assert_array_equal(stat.cell_masses, vor.cell_masses())
    assert stat.tie_mass == vor.tie_mass
    np.testing.assert_array_equal(stat.atom_hit_mass,
                                  [np.sum(vor.best[vor.cell_index == i] == 0.0) / len(levels)
                                   for i in range(cb.n)])


def test_distortion_perfect_cover_is_zero(unit_space, rng):
    values = rng.normal(size=(4, 1, unit_space.m))
    sample = PathSample(values=values, seed=0, process_tag="t")
    cb = Codebook(space=unit_space, values=values.copy())
    rep = distortion(cb, sample, 2.0)
    assert rep.value == 0.0
    assert quant_error(cb, sample, 2.0) == 0.0


def test_distortion_brownian_zero_atom():
    space = uniform_space(1.0, 257)
    sample = sample_paths(ProcessSpec("brownian"), space, 100_000, seed=5)
    cb = constant_codebook(space, [0.0])
    rep = distortion(cb, sample, 2.0)
    assert rep.value == pytest.approx(0.5, rel=0.02)   # E int W^2 dt = 1/2
    assert quant_error(cb, sample, 2.0) == pytest.approx(np.sqrt(0.5), rel=0.01)


def test_distortion_cell_decomposition_identity(unit_space, bm_sample):
    cb = constant_codebook(unit_space, [-0.5, 0.0, 0.7])
    rep = distortion(cb, bm_sample, 2.0)
    assert rep.per_cell_mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert rep.value == pytest.approx(rep.per_cell_distortion.sum(), abs=1e-12)
    payload = rep.to_json()
    assert '"value"' in payload and '"per_cell_mass"' in payload


def test_distortion_scale_equivariance_exact(unit_space, bm_sample, rng):
    # x -> c x + u applied to paths and atoms multiplies the value by c^r
    cb = Codebook(space=unit_space, values=rng.normal(size=(3, 1, unit_space.m)))
    u = np.sin(unit_space.grid)[None, None, :]
    c = 3.0
    moved = PathSample(values=c * bm_sample.values + u, seed=0, process_tag="aff")
    cb_moved = Codebook(space=unit_space, values=c * cb.values + u)
    for r in (1.0, 2.0, 3.0):
        v0 = distortion(cb, bm_sample, r).value
        v1 = distortion(cb_moved, moved, r).value
        assert v1 == pytest.approx(c ** r * v0, rel=1e-12)
    np.testing.assert_array_equal(assign(cb, bm_sample).cell_index,
                                  assign(cb_moved, moved).cell_index)


def test_distortion_lipschitz_coupled_perturbation(unit_space, bm_sample, rng):
    # | D_X^{1/r} - D_Y^{1/r} | <= ( mean ||x_i - y_i||^r )^{1/r}
    cb = Codebook(space=unit_space, values=rng.normal(size=(4, 1, unit_space.m)))
    for r in (1.0, 2.0, 3.0):
        for _ in range(20):
            bump = rng.normal(scale=rng.uniform(0.01, 0.5),
                              size=bm_sample.values.shape)
            other = PathSample(values=bm_sample.values + bump, seed=0, process_tag="y")
            dx = distortion(cb, bm_sample, r).value ** (1.0 / r)
            dy = distortion(cb, other, r).value ** (1.0 / r)
            coupling = (np.mean([lp_dist(unit_space, bm_sample.path(i), other.path(i)) ** r
                                 for i in range(len(bm_sample))])) ** (1.0 / r)
            assert abs(dx - dy) <= coupling + 1e-12


def test_quantize_paths_properties(unit_space, bm_sample):
    cb = constant_codebook(unit_space, [-0.5, 0.0, 0.7])
    quantized = quantize_paths(cb, bm_sample)
    uniq = np.unique(quantized.values.reshape(len(quantized), -1), axis=0)
    assert uniq.shape[0] <= cb.n
    again = quantize_paths(cb, quantized)
    np.testing.assert_array_equal(again.values, quantized.values)

    single = constant_codebook(unit_space, [0.1])
    q1 = quantize_paths(single, bm_sample)
    assert np.all(q1.values == 0.1)


def test_quant_error_monotone_in_refinement(unit_space, bm_sample, rng):
    values = rng.normal(size=(4, 1, unit_space.m))
    small = Codebook(space=unit_space, values=values[:3])
    big = Codebook(space=unit_space, values=values)
    for r in (1.0, 2.0, 2.5):
        assert quant_error(big, bm_sample, r) <= quant_error(small, bm_sample, r)


def test_cross_exponent_bounds_collapse(unit_space, bm_sample, rng):
    cb = Codebook(space=unit_space, values=rng.normal(size=(3, 1, unit_space.m)))
    lower, upper = cross_exponent_bounds(bm_sample, unit_space, cb, r=2.0)
    value = quant_error(cb, bm_sample, 2.0)
    assert lower == value == upper


def test_cross_exponent_bounds_sandwich(unit_space, bm_sample, rng):
    cb = Codebook(space=unit_space, values=rng.normal(size=(4, 1, unit_space.m)))
    r = 4.0
    lower, upper = cross_exponent_bounds(bm_sample, unit_space, cb, r)
    value = quant_error(cb, bm_sample, r)
    assert lower <= value * (1 + 1e-12)
    assert value <= upper * (1 + 1e-12)
    assert unit_space.total_mass == pytest.approx(1.0, rel=1e-12)


def test_cross_exponent_bounds_nonunit_mass(rng):
    space = uniform_space(3.0, 65, p=3.0)
    sample = PathSample(values=rng.normal(size=(50, 1, 65)), seed=0, process_tag="t")
    cb = Codebook(space=space, values=rng.normal(size=(3, 1, 65)))
    for r in (1.5, 4.0):
        lower, upper = cross_exponent_bounds(sample, space, cb, r)
        value = quant_error(cb, sample, r)
        assert lower <= value * (1 + 1e-12)
        assert value <= upper * (1 + 1e-12)


def test_sup_distances_exact_across_chunks(rng, monkeypatch):
    space = uniform_space(1.0, 17, d=2)
    x = rng.normal(size=(25, 2, 17))
    atoms = np.concatenate([x[[4]], rng.normal(size=(3, 2, 17))])
    cb = Codebook(space=space, values=atoms)
    monkeypatch.setattr(quantize_core, "_CHUNK_BUDGET", 4 * (2 * 17 + cb.n))
    dists = sup_pairwise_distances(cb, PathSample(values=x, seed=0, process_tag="t"))
    manual = np.abs(x[:, None] - atoms[None]).max(axis=(2, 3))
    np.testing.assert_array_equal(dists, manual)
    assert dists[4, 0] == 0.0


def test_sup_distortion_matches_manual(unit_space, bm_sample):
    cb = constant_codebook(unit_space, [-0.5, 0.0, 0.7])
    dists = sup_pairwise_distances(cb, bm_sample)
    manual = np.abs(bm_sample.values[:, None] - cb.values[None]).max(axis=(2, 3))
    np.testing.assert_array_equal(dists, manual)
    rep = sup_distortion(cb, bm_sample, 2.0)
    assert rep.value == pytest.approx((manual.min(axis=1) ** 2).mean(), rel=1e-12)


@given(n_atoms=st.integers(min_value=1, max_value=5),
       n_paths=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_assignment_is_argmin_property(n_atoms, n_paths, seed):
    space = uniform_space(1.0, 17)
    g = np.random.default_rng(seed)
    cb = Codebook(space=space, values=g.normal(size=(n_atoms, 1, 17)))
    sample = PathSample(values=g.normal(size=(n_paths, 1, 17)), seed=0, process_tag="t")
    va = assign(cb, sample)
    dists = pairwise_distances(cb, sample)
    for i in range(n_paths):
        assert dists[i, va.cell_index[i]] == dists[i].min()


def test_empty_codebook_error(unit_space, bm_sample):
    with pytest.raises(FquantError):
        Codebook(space=unit_space, values=np.zeros((0, 1, unit_space.m)))
    with pytest.raises(FquantError):
        distortion(constant_codebook(unit_space, [0.0]), bm_sample, r=0.0)


def test_codebook_from_paths(unit_space):
    paths = [Path.constant(unit_space, v) for v in (0.0, 1.0)]
    cb = codebook_from_paths(unit_space, paths)
    assert cb.n == 2 and cb.values.shape == (2, 1, unit_space.m)
