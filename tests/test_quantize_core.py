import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fquant import (Codebook, Path, PathSample, ProcessSpec, VoronoiAssignment, assign,
                    distortion, exp_weighted_space, lp_dist, quant_error, sample_paths,
                    stationarity_residual, uniform_space)
from fquant import quantize_core
from fquant.errors import FquantError
from fquant.quantize_core import _weighted_sq_norms, pairwise_distances


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
    # the norms are kept on the sample, and a later pass reads them to the same bits
    assert _weighted_sq_norms(space, sample) is _weighted_sq_norms(space, sample)
    np.testing.assert_array_equal(pairwise_distances(cb, sample), fast)


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


def _path_major_p2_pass(cb, sample, chunk):
    # the (N, n) p = 2 arithmetic the atom-major pass replaces, chunk rows at a time
    space = cb.space
    wf = np.tile(space.weights, space.d)
    xf, af = sample.values.reshape(len(sample), -1), cb.values.reshape(cb.n, -1)
    xn = _weighted_sq_norms(space, sample)
    out = np.empty((len(sample), cb.n))
    for lo in range(0, len(sample), chunk):
        x = xf[lo:lo + chunk]
        norms = np.add.outer(xn[lo:lo + chunk], (af * af) @ wf)
        d2 = norms - 2.0 * (x @ (af * wf).T)
        rows, cols = np.nonzero(d2 <= 1e-13 * norms)
        diff = x[rows] - af[cols]
        d2[rows, cols] = (diff * diff) @ wf
        out[lo:lo + chunk] = np.sqrt(np.maximum(d2, 0.0))
    return out


def _tie_sample(space, n_brownian):
    # Brownian paths, copies of five of them, two paths equal to atoms, and zero paths
    # at exactly the same distance from the constant atoms +-0.05
    bm = sample_paths(ProcessSpec("brownian"), space, n_brownian, seed=17).values
    atoms = np.concatenate([0.5 * bm[[10, 20, 30, 40]], np.full((2,) + space.shape, 0.05)])
    atoms[-1] *= -1.0
    x = np.concatenate([bm, bm[:5], atoms[[0, 2]], np.zeros((3,) + space.shape)])
    return Codebook(space=space, values=atoms), PathSample(values=x, seed=0, process_tag="t")


@pytest.mark.parametrize("chunk", [None, 7], ids=["default_chunk", "chunk_7"])
@pytest.mark.parametrize("p, rows_max", [(1.0, None), (2.0, None), (2.0, 0), (2.5, None),
                                         (3.0, None), (np.inf, None)],
                         ids=["1", "2", "2-path_rows", "2.5", "3", "inf"])
def test_distance_pass_matches_path_major_reference(monkeypatch, p, rows_max, chunk):
    space = exp_weighted_space(1.0, 33, b=1.5, p=p, d=2)
    cb, sample = _tie_sample(space, 200)
    N = len(sample)
    if rows_max is not None:  # a p = 2 pass of path rows, as for codebooks past 16 atoms
        monkeypatch.setattr(quantize_core, "_ATOM_ROWS_MAX", rows_max)
    if chunk is not None:
        monkeypatch.setattr(quantize_core, "_row_chunks",
                            lambda n_rows, per_row: (slice(lo, lo + chunk)
                                                     for lo in range(0, n_rows, chunk)))
    dists = pairwise_distances(cb, sample)
    assert dists.shape == (N, cb.n)
    assert (dists if rows_max == 0 else dists.T).flags.c_contiguous
    if p == 2.0:
        ref = _path_major_p2_pass(cb, sample, chunk or N)
        np.testing.assert_array_equal(dists, ref)
    cells = np.argmin(dists, axis=1)
    best = dists[np.arange(N), cells]
    ties = (dists == best[:, None]).sum(axis=1) > 1
    for given in (np.ascontiguousarray(dists), np.asfortranarray(dists)):  # either layout
        vor = VoronoiAssignment(cb, sample, given)
        np.testing.assert_array_equal(vor.cell_index, cells)
        np.testing.assert_array_equal(vor.best, best)
        np.testing.assert_array_equal(vor.tie_flags, ties)
    assert np.count_nonzero(best == 0.0) == 2 and np.all(cells[-5:-3] == [0, 2])
    assert np.all(ties[-3:]) and np.all(cells[-3:] == 4)
    np.testing.assert_array_equal(cells[200:205], cells[:5])


@pytest.mark.parametrize("m, d, n, N", [(33, 2, 13, 300), (33, 2, 12, 250), (17, 1, 16, 1500),
                                        (65, 1, 64, 500)])
def test_wide_p2_pass_is_the_path_major_pass(rng, m, d, n, N):
    # codebooks of 12 or more atoms, where BLAS blocks an (n, N) product apart from the
    # (N, n) one: the pass takes the (N, n) product in either layout, bit for bit
    space = exp_weighted_space(1.0, m, b=1.5, d=d)
    sample = sample_paths(ProcessSpec("brownian"), space, N, seed=19)
    cb = Codebook(space=space, values=0.5 * rng.permutation(sample.values)[:n])
    np.testing.assert_array_equal(pairwise_distances(cb, sample),
                                  _path_major_p2_pass(cb, sample, len(sample)))


def _always_close_p2_pass(cb, sample):
    # the p = 2 pass as it was before its close test got a prefilter: -2<x, a> scaled after
    # the product, and every entry tested for cancellation; one chunk of rows
    space = cb.space
    wf = np.tile(space.weights, space.d)
    xf, af = sample.values.reshape(len(sample), -1), cb.values.reshape(cb.n, -1)
    aw, an, n, N = af * wf, (af * af) @ wf, cb.n, len(sample)
    out = np.empty((n, N)) if n <= 16 else np.empty((N, n)).T
    np.multiply((xf @ aw.T).T, -2.0, out=out)
    norms = np.add(an[:, None], _weighted_sq_norms(space, sample))
    out += norms
    close = out <= norms * 1e-13
    paths, atoms = np.nonzero(close.T)
    diff = xf[paths] - af[atoms]
    out[atoms, paths] = (diff * diff) @ wf
    return np.sqrt(out).T


@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([1, 2, 3, 8, 16, 17, 20]),
       n_paths=st.integers(1, 40), d=st.sampled_from([1, 2]), equal=st.sampled_from([0, 2]),
       near=st.sampled_from([0.0, 1e-12, 1e-8, 3e-7, 1e-6]),
       edge=st.sampled_from([0.5, 0.9, 0.99, 1.01, 1.1, 2.0]))
def test_p2_pass_prefilter_skips_no_close_entry(seed, n, n_paths, d, equal, near, edge):
    # paths equal to atoms, near-coincident ones, +-0.0 on the grid's first node, and a last
    # path at edge times the close bound 1e-13 (||x||^2 + ||a||^2) from the atom of largest
    # norm, where the prefilter's cut is tightest; in both layouts (atom rows up to 16 atoms,
    # path rows past them): bit for bit, with the sign of zero
    rng = np.random.default_rng(seed)
    space = exp_weighted_space(1.0, 9, b=1.5, d=d)
    wf = np.tile(space.weights, d)
    atoms = rng.normal(size=(n,) + space.shape)
    atoms[-1] *= 4.0
    x = rng.normal(size=(n_paths,) + space.shape)
    picks = rng.integers(n, size=n_paths)
    x[:equal] = atoms[picks[:equal]]
    x[equal:2 * equal] = atoms[picks[equal:2 * equal]] * (1.0 + near * rng.normal(size=space.shape))
    u = rng.normal(size=space.shape)
    x[-1] = atoms[-1] + u * np.sqrt(edge * 2e-13 * (atoms[-1].ravel() ** 2 @ wf)
                                    / (u.ravel() ** 2 @ wf))
    for values in (atoms, x):
        values[..., 0] = np.where(rng.random(values.shape[:-1]) < 0.5, -0.0, 0.0)
    cb = Codebook(space=space, values=atoms)
    sample = PathSample(values=x, seed=0, process_tag="t")
    ref = _always_close_p2_pass(cb, sample).view(np.uint64)
    dists = pairwise_distances(cb, sample)
    assert n_paths == 1 or dists.T.flags.c_contiguous == (n <= 16)
    np.testing.assert_array_equal(dists.view(np.uint64), ref)


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


@pytest.mark.parametrize("p, n", [(2.0, 1), (2.0, 2), (2.0, 16), (3.0, 17), (3.0, 40),
                                  (np.inf, 40)])
def test_cell_index_matches_argmin_on_a_path_major_copy(p, n):
    # exact ties: the zero path between the constant atoms +-1/64 (first and last atom,
    # in different 16-row blocks past 16 atoms) and, past 32 atoms, the dyadic levels
    # 4 and 8 between their atoms +-1/64 (15 | 16 and 17 | 33, across block edges);
    # and paths equal to atoms
    space = uniform_space(1.0, 9, p=p)
    bm = sample_paths(ProcessSpec("brownian"), space, 300, seed=29).values
    atoms = 0.5 * bm[:n]
    pairs = [(0, n - 1, 0.0)] + [(15, 16, 4.0), (17, 33, 8.0)] * (n > 32)
    if n > 1:
        for lo, hi, level in pairs:
            atoms[lo], atoms[hi] = level + 1 / 64, level - 1 / 64
    levels = np.array([level for *_, level in pairs])[:, None, None] + np.zeros(space.shape)
    x = np.concatenate([bm[n:], levels, atoms[:n:3]])
    sample = PathSample(values=x, seed=0, process_tag="t")
    vor = assign(Codebook(space=space, values=atoms), sample)
    assert vor.dists.T.flags.c_contiguous  # the atom-major pass
    dists = np.ascontiguousarray(vor.dists)
    best = dists.min(axis=1)
    np.testing.assert_array_equal(vor.cell_index, np.argmin(dists, axis=1))
    np.testing.assert_array_equal(vor.best, best)
    np.testing.assert_array_equal(vor.tie_flags, (dists == best[:, None]).sum(axis=1) > 1)
    at = len(bm) - n + np.arange(len(pairs))
    assert np.all(vor.tie_flags[at] == (n > 1))
    np.testing.assert_array_equal(vor.cell_index[at], [lo for lo, *_ in pairs] if n > 1 else 0)
    assert np.all(vor.best[at[-1] + 1:] == 0.0)


@pytest.mark.parametrize("norm", ["p2", "p3", "sup"])
def test_voronoi_assignment_matches_per_pair_reference(unit_space, norm):
    # constant paths at dyadic levels: exact ties (0.25 between 0 and 0.5, ...)
    # and paths equal to atoms (all of the atoms, one of them twice)
    space = unit_space.with_p({"p2": 2.0, "p3": 3.0, "sup": np.inf}[norm])
    atoms = [-0.5, 0.0, 0.5, 1.0]
    levels = [-1.0, -0.5, -0.25, 0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.0, 1.5, -0.375]
    cb, sample = constant_codebook(space, atoms), constant_sample(space, levels)
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
        rep = distortion(cb, sample, 2.0)
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


def test_quant_error_monotone_in_refinement(unit_space, bm_sample, rng):
    values = rng.normal(size=(4, 1, unit_space.m))
    small = Codebook(space=unit_space, values=values[:3])
    big = Codebook(space=unit_space, values=values)
    for r in (1.0, 2.0, 2.5):
        assert quant_error(big, bm_sample, r) <= quant_error(small, bm_sample, r)


def test_sup_distances_exact_across_chunks(rng, monkeypatch):
    space = uniform_space(1.0, 17, d=2).with_p(np.inf)
    x = rng.normal(size=(25, 2, 17))
    atoms = np.concatenate([x[[4]], rng.normal(size=(3, 2, 17))])
    cb = Codebook(space=space, values=atoms)
    monkeypatch.setattr(quantize_core, "_CHUNK_BUDGET", 4 * (2 * 17 + cb.n))
    dists = pairwise_distances(cb, PathSample(values=x, seed=0, process_tag="t"))
    manual = np.abs(x[:, None] - atoms[None]).max(axis=(2, 3))
    np.testing.assert_array_equal(dists, manual)
    assert dists[4, 0] == 0.0


def test_sup_distortion_matches_manual(unit_space, bm_sample):
    cb = constant_codebook(unit_space.with_p(np.inf), [-0.5, 0.0, 0.7])
    dists = pairwise_distances(cb, bm_sample)
    manual = np.abs(bm_sample.values[:, None] - cb.values[None]).max(axis=(2, 3))
    np.testing.assert_array_equal(dists, manual)
    rep = distortion(cb, bm_sample, 2.0)
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
    for r in (0.0, np.inf, np.nan):
        with pytest.raises(FquantError):
            distortion(constant_codebook(unit_space, [0.0]), bm_sample, r=r)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing expansion warns
@pytest.mark.parametrize("n", [2, 18], ids=["atom_rows", "path_rows"])
def test_overflowing_p2_expansion_is_recomputed(n):
    # a path and an atom both at 1e200: ||x||^2 + ||a||^2 - 2<x, a> is inf + inf - inf = NaN,
    # which the close test must send to the direct recompute like a cancelled entry
    space = uniform_space(1.0, 5, p=2.0, d=1)
    atoms = np.concatenate([np.full((1, 1, 5), 1e200), np.zeros((1, 1, 5)),
                            np.arange(10.0, 10.0 + n - 2)[:, None, None] * np.ones((1, 1, 5))])
    paths = np.stack([np.full((1, 5), 1e200), np.ones((1, 5)), np.full((1, 5), 1e200)])
    sample = PathSample(values=paths, seed=0, process_tag="overflow")
    vor = assign(Codebook(space=space, values=atoms), sample)
    assert not np.isnan(vor.dists).any()
    np.testing.assert_array_equal(vor.dists[:, :2], [[0.0, np.inf], [np.inf, 1.0], [0.0, np.inf]])
    np.testing.assert_array_equal(vor.best, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(vor.cell_index, [0, 1, 0])
    np.testing.assert_array_equal(vor.counts, [2, 1] + [0] * (n - 2))
