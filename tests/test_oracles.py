import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fquant import oracles
from fquant.errors import OracleError
from fquant.oracles import (AtomicLaw, bump_function_values,
                            c0_example, closed_form_errors, coordinate_median_minimize,
                            default_constraint, default_probs, l1_center_lp,
                            l1_hyperplane_example, linf_center_lp, lp_certificate,
                            sharp_constant_example, sharp_constant_examples,
                            step_function_values,
                            sup_counterexample, sup_example_grid)


def test_default_probs_constraints():
    for M in (3, 8, 16, 32):
        p = default_probs(M)
        assert p.shape == (M,)
        assert np.all(p > 0) and np.all(p < 0.5)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)


def test_default_constraint_shape():
    c = default_constraint(16)
    assert np.all(c[:3] == 1.0)
    assert np.all(np.diff(c[2:]) > 0)
    assert c.max() > 3.0


def test_atomic_law_validation():
    with pytest.raises(OracleError):
        AtomicLaw(atoms=np.eye(3), probs=np.array([0.5, 0.6, -0.1]))
    with pytest.raises(OracleError):
        AtomicLaw(atoms=np.zeros((2, 3)), probs=np.array([0.5, 0.5]))


@pytest.mark.parametrize("atoms", [[[0.0, 1.0], [-0.0, 1.0]], [[-0.0, 1.0], [0.0, 1.0]],
                                   [[0.0, -0.0], [-0.0, 0.0]], [[-0.0, -0.0], [-0.0, -0.0]]],
                         ids=["second_neg", "first_neg", "mixed", "both_neg"])
def test_atomic_law_refuses_a_point_repeated_with_negative_zero(atoms):
    # -0.0 == 0.0, so these rows are one point twice
    with pytest.raises(OracleError, match="law atoms must be distinct"):
        AtomicLaw(atoms=np.array(atoms), probs=np.array([0.5, 0.5]))


def test_atomic_law_keeps_negative_zero_of_distinct_points():
    law = AtomicLaw(atoms=np.array([[-0.0, 1.0], [0.0, 2.0]]), probs=np.array([0.5, 0.5]))
    assert np.signbit(law.atoms[0, 0]) and not np.signbit(law.atoms[1, 0])


def test_c0_example_all_checks_pass():
    rep = c0_example(M=16)
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed == []
    assert rep.best_value == pytest.approx(0.5, abs=1e-9)


def test_c0_sequence_closed_form():
    M = 12
    rep = c0_example(M=M)
    p = rep.probs
    for m in range(1, M + 1):
        expected = 0.5 * p[:m].sum() + p[m:].sum()
        assert rep.sequence_values[m - 1] == pytest.approx(expected, abs=1e-15)


def test_c0_truncation_stability():
    # doubling the truncation moves shared sequence entries by at most the
    # aggregated tail mass
    M = 10
    rep1, rep2 = c0_example(M=M), c0_example(M=2 * M)
    tail = (1.0 / 3.0) * 2.0 ** (3 - M)
    shared = np.abs(rep1.sequence_values[:M - 1] - rep2.sequence_values[:M - 1])
    assert shared.max() <= tail
    assert abs(rep1.best_value - rep2.best_value) <= 1e-9


def test_l1_hyperplane_all_checks_pass():
    rep = l1_hyperplane_example(M=16)
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed == []
    assert rep.e_plane == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert rep.e_full == pytest.approx(1.0, abs=1e-12)
    u1 = np.zeros(16)
    u1[0] = 1.0
    np.testing.assert_allclose(rep.minimizer_full, u1, atol=1e-9)


def test_l1_hyperplane_candidate_values():
    M = 16
    rep = l1_hyperplane_example(M=M)
    ks = np.arange(4, M + 1)
    np.testing.assert_allclose(rep.candidate_values, 1.0 + 1.0 / rep.c[ks - 1],
                               rtol=0, atol=1e-15)
    assert rep.e_hyperplane_upper < 4.0 / 3.0


def test_l1_hyperplane_truncation_stability():
    rep1, rep2 = l1_hyperplane_example(M=10), l1_hyperplane_example(M=20)
    assert rep1.e_plane == pytest.approx(rep2.e_plane, abs=1e-12)
    assert rep1.e_full == pytest.approx(rep2.e_full, abs=1e-12)
    assert rep2.e_hyperplane_upper <= rep1.e_hyperplane_upper


def test_l1_hyperplane_needs_room():
    with pytest.raises(OracleError):
        l1_hyperplane_example(M=4)


def test_sharp_constant_known_ratios():
    assert sharp_constant_example(2).ratio == pytest.approx(1.0, abs=1e-9)
    assert sharp_constant_example(10).ratio == pytest.approx(1.8, abs=1e-9)
    with pytest.raises(OracleError):
        sharp_constant_example(1)


def test_sharp_constant_monotone_below_two():
    ratios = [sharp_constant_example(m).ratio for m in range(2, 11)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r <= 2.0 for r in ratios)


def test_sup_counterexample_all_checks_pass():
    rep = sup_counterexample(n_funcs=8)
    failed = [c.name for c in rep.checks if not c.passed]
    assert failed == []
    assert np.all(rep.sup_dists == 0.5)
    assert set(rep.lr_values) == {1.0, 2.0, 4.0}


def test_sup_counterexample_matches_direct_sup_norms():
    # the scratch-buffer distances equal the direct |f_n - g| maxima bit for bit
    n_funcs = 12
    rep = sup_counterexample(n_funcs)
    grid = sup_example_grid(n_funcs)
    p = default_probs(n_funcs)
    bumps = np.stack([bump_function_values(n, grid) for n in range(1, n_funcs + 1)])
    direct = np.abs(bumps - step_function_values(grid)[None, :]).max(axis=1)
    assert np.array_equal(rep.sup_dists, direct)
    best = min(float(p @ np.abs(bumps - np.polyval(c, grid)[None, :]).max(axis=1))
               for c in oracles.PROBE_POLYS)
    assert rep.best_probe == best


def test_sup_counterexample_peak_memory_near_two_bump_arrays():
    # the bumps plus one scratch buffer; a fresh (n_funcs, m) temporary per
    # distance would push the peak past three bump arrays
    import tracemalloc
    n_funcs = 12
    bump_bytes = n_funcs * len(sup_example_grid(n_funcs)) * 8
    tracemalloc.start()
    try:
        sup_counterexample(n_funcs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * bump_bytes, peak / bump_bytes


def _full_grid_bumps(n_funcs):
    grid = sup_example_grid(n_funcs)
    return np.stack([bump_function_values(n, grid) for n in range(1, n_funcs + 1)])


def _oracle_sup_dists(n_funcs, g):
    # the report's sup_dists are the distances to step_function_values(grid): swap in g
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "step_function_values", lambda t: g)
        return sup_counterexample(n_funcs).sup_dists


def _assert_same_bits(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes(), (got, want)


@pytest.mark.parametrize("probe", ["h"] + list(range(len(oracles.PROBE_POLYS))))
@pytest.mark.parametrize("n_funcs", [3, 4, 5, 8, 12])
def test_sup_dists_to_each_probe_match_full_grid(monkeypatch, n_funcs, probe):
    # each distance, not just the probes' minimum, equals the full-grid |f_n - g| maximum
    grid = sup_example_grid(n_funcs)
    p = default_probs(n_funcs)
    coeffs = None if probe == "h" else oracles.PROBE_POLYS[probe]
    g = step_function_values(grid) if coeffs is None else np.polyval(coeffs, grid)
    direct = np.abs(_full_grid_bumps(n_funcs) - g[None, :]).max(axis=1)
    _assert_same_bits(_oracle_sup_dists(n_funcs, g), direct)
    if coeffs is not None:
        monkeypatch.setattr(oracles, "PROBE_POLYS", (coeffs,))
        assert sup_counterexample(n_funcs).best_probe == float(p @ direct)


def _piece_ends(n_funcs):
    # the first and last node of each bump's two pieces, from their definition
    grid = sup_example_grid(n_funcs)
    ends = []
    for n in range(1, n_funcs + 1):
        lo, hi = 0.5 - 2.0 ** (-n), 0.5 - 2.0 ** (-(n + 1))
        u = np.where(grid <= 0.5, grid, 1.0 - grid)
        for side in (grid <= 0.5, grid > 0.5):
            nodes = np.flatnonzero(side & (lo <= u) & (u <= hi))
            ends += [nodes[0], nodes[-1]]
    return sorted(set(ends))


_SPECIAL = [0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 3.0, -3.0,
            np.inf, -np.inf, np.nan]


@given(data=st.data())
def test_sup_dists_match_full_grid_on_arbitrary_g(data):
    # g with +-0.0 entries, entries equal to a bump's value, and a largest |f_n - g| or
    # |g| on a piece's first or last node, next to one, or deep in a gap
    n_funcs = data.draw(st.sampled_from([3, 4, 5]), label="n_funcs")
    bumps = _full_grid_bumps(n_funcs)
    m = bumps.shape[1]
    base = data.draw(st.sampled_from(["zero", "neg_zero", "bump", "neg_bump", "noise"]))
    if base in ("zero", "neg_zero"):
        g = np.full(m, 0.0 if base == "zero" else -0.0)
    elif base in ("bump", "neg_bump"):
        g = bumps[data.draw(st.integers(0, n_funcs - 1))] * (1.0 if base == "bump" else -1.0)
    else:
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        g = np.random.default_rng(seed).uniform(-0.6, 0.6, m)
    ends = _piece_ends(n_funcs)
    near = sorted({min(max(i + d, 0), m - 1) for i in ends for d in (-1, 0, 1)})
    node = st.sampled_from(near) | st.integers(0, m - 1)
    value = (st.sampled_from(_SPECIAL) | st.floats(-4.0, 4.0, width=64)
             | st.tuples(st.integers(0, n_funcs - 1), st.sampled_from([1.0, -1.0])))
    for i, v in data.draw(st.lists(st.tuples(node, value), max_size=8), label="edits"):
        g[i] = v if not isinstance(v, tuple) else bumps[v[0], i] * v[1]
    _assert_same_bits(_oracle_sup_dists(n_funcs, g), np.abs(bumps - g[None, :]).max(axis=1))


@pytest.mark.parametrize("n_funcs", [3, 8, 12, 14])
def test_sup_oracle_evaluates_each_bump_only_where_it_is_nonzero(monkeypatch, n_funcs):
    calls = []

    def spy(n, t):
        calls.append((n, np.array(t)))
        return bump_function_values(n, t)

    monkeypatch.setattr(oracles, "bump_function_values", spy)
    sup_counterexample(n_funcs)
    grid = sup_example_grid(n_funcs)
    assert [n for n, _ in calls] == list(range(1, n_funcs + 1))
    for n, t in calls:
        full = bump_function_values(n, grid)
        on = np.isin(grid, t)
        assert on.sum() == t.size                       # each node once, in grid order
        assert np.array_equal(grid[on], t)
        assert np.all(full[~on] == 0.0)                 # +0.0 or -0.0 off the pieces
        assert t.size == (grid.size - 1) * 2 ** -n + 2  # two pieces of 2^-(n+1), ends included
        assert bump_function_values(n, t).tobytes() == full[on].tobytes()


def test_sup_counterexample_peak_memory_a_few_grid_arrays():
    # no (n_funcs, m) array: the piece values, the grid and a probe with its temporaries
    import tracemalloc
    grid_bytes = len(sup_example_grid(12)) * 8
    tracemalloc.start()
    try:
        sup_counterexample(12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * grid_bytes, peak / grid_bytes


@pytest.mark.parametrize("n_funcs", [0, 1, 2])
def test_sup_counterexample_needs_three_bumps(n_funcs):
    with pytest.raises(OracleError, match=f"n_funcs >= 3, got {n_funcs}"):
        sup_counterexample(n_funcs=n_funcs)


def test_bump_functions_shape():
    grid = sup_example_grid(6)
    h = step_function_values(grid)
    assert h[0] == 0.5 and h[-1] == -0.5
    for n in range(1, 7):
        f = bump_function_values(n, grid)
        assert f.max() == 1.0          # the peak is a grid node
        assert f.min() == -1.0         # mirrored trough
        assert f[0] == 0.0 and f[-1] == 0.0
        k_half = (grid.size - 1) // 2
        assert f[k_half] == 0.0        # flat at the midpoint


def test_bumps_mutual_sup_distance_one():
    grid = sup_example_grid(6)
    for n in range(1, 6):
        f_n = bump_function_values(n, grid)
        f_m = bump_function_values(n + 1, grid)
        assert np.abs(f_n - f_m).max() == 1.0


def test_closed_form_registry():
    assert closed_form_errors("brownian", 1, 2, 2) == pytest.approx(np.sqrt(0.5))
    assert closed_form_errors("bridge", 1, 2, 2) == pytest.approx(np.sqrt(1 / 6))
    ou = closed_form_errors("ou(c=1)", 1, 2, 2, {"b": 1.0, "t_end": 4.0})
    assert ou == pytest.approx(np.sqrt(1.0 - np.exp(-4.0)))
    assert closed_form_errors("fbm(H=0.7)", 3, 2, 2) is None
    assert closed_form_errors("brownian", 2, 2, 2) is None
    assert closed_form_errors("brownian", 1, 3, 2) is None


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       k=st.integers(min_value=2, max_value=6),
       dim=st.integers(min_value=2, max_value=5))
def test_median_matches_lp_on_random_laws(seed, k, dim):
    g = np.random.default_rng(seed)
    atoms = np.round(g.normal(size=(k, dim)), 3)
    if len({a.tobytes() for a in atoms}) < k:
        return
    w = g.uniform(0.1, 1.0, size=k)
    law = AtomicLaw(atoms=atoms, probs=w / w.sum())
    _, v_med = coordinate_median_minimize(law)
    _, v_lp, _ = l1_center_lp(law)
    assert v_med == pytest.approx(v_lp, abs=1e-9)


def _median_by_columns(law):
    # the per-column loop coordinate_median_minimize replaced: a stable sort of column j,
    # and the first atom where the cumulative weight reaches 1/2
    out = np.empty(law.atoms.shape[1])
    for j in range(out.size):
        order = np.argsort(law.atoms[:, j], kind="stable")
        out[j] = law.atoms[order, j][int(np.searchsorted(np.cumsum(law.probs[order]), 0.5))]
    return out


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       k=st.integers(min_value=2, max_value=14),
       dim=st.integers(min_value=1, max_value=19))
def test_coordinate_median_is_the_per_column_loop(seed, k, dim):
    # integer atoms and weights: repeated values in a column and cumulative weights of
    # exactly 1/2 are common
    g = np.random.default_rng(seed)
    atoms = g.integers(-3, 4, size=(k, dim)).astype(np.float64)
    w = g.integers(1, 5, size=k).astype(np.float64)
    if len({a.tobytes() for a in atoms}) < k or abs((w / w.sum()).sum() - 1.0) > 1e-15:
        return
    law = AtomicLaw(atoms=atoms, probs=w / w.sum())
    center, value = coordinate_median_minimize(law)
    assert center.tobytes() == _median_by_columns(law).tobytes()
    assert value == law.mean_norm_to(center, "l1")


def test_linf_lp_on_simple_law():
    # two points 0 and 2 on the line: best mean sup-distance is 1, attained on
    # the whole segment between them
    law = AtomicLaw(atoms=np.array([[0.0, 0.0], [2.0, 0.0]]), probs=np.array([0.5, 0.5]))
    center, value, _ = linf_center_lp(law)
    assert value == pytest.approx(1.0, abs=1e-9)
    assert law.mean_norm_to(center, "linf") == pytest.approx(value, abs=1e-9)


def _random_law(g, k, dim):
    # rounded atoms give exact ties in the |diff| argmax and zero signs
    atoms = np.round(g.normal(size=(k, dim)), 1)
    if len({a.tobytes() for a in atoms + 0.0}) < k:  # -0.0 and 0.0 are one atom to AtomicLaw
        return None
    w = g.uniform(0.1, 1.0, size=k)
    return AtomicLaw(atoms=atoms, probs=w / w.sum())


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       k=st.integers(min_value=2, max_value=6),
       dim=st.integers(min_value=2, max_value=5))
def test_center_lps_certify_on_random_laws(seed, k, dim):
    law = _random_law(np.random.default_rng(seed), k, dim)
    if law is None:
        return
    _, v_l1, cert_l1 = l1_center_lp(law)
    _, _, cert_linf = linf_center_lp(law)
    assert cert_l1 <= 1e-12 and cert_linf <= 1e-12
    assert v_l1 == pytest.approx(coordinate_median_minimize(law)[1], abs=1e-9)


def _highs_spy(monkeypatch) -> list:
    """Record each HiGHS call's arguments (what, c, A, row_lower, row_upper, bounds,
    lower_duals) and result (x, row_dual, lam, fun) in the returned list, and under
    "primal" whether its rows are all "A x <= row_upper" (c0's l-infinity primal) rather
    than equalities (an l1 box dual)."""
    calls = []
    highs = oracles._highs

    def spy(what, c, A, row_lower, row_upper, bounds, lower_duals=False):
        out = highs(what, c, A, row_lower, row_upper, bounds, lower_duals)
        calls.append(dict(what=what, c=c, A=A, row_lower=row_lower, row_upper=row_upper,
                          bounds=bounds, lower_duals=lower_duals,
                          primal=bool(np.isneginf(row_lower).all()),
                          **dict(zip(("x", "row_dual", "lam", "fun"), out))))
        return out

    monkeypatch.setattr(oracles, "_highs", spy)
    return calls


def _csc_array(A):
    """scipy's csc_array of the compressed-column matrix A (its data, indices, indptr, shape):
    the oracles build theirs in numpy, so scipy.sparse appears only in the tests."""
    from scipy.sparse import csc_array
    return csc_array((A.data, A.indices, A.indptr), shape=A.shape)


def _captured_lp(monkeypatch, solve) -> dict:
    """Run solve() and return the last HiGHS call's arguments, with its constraint matrix
    A dense, and its result.  The sparse matrix must store no explicit zero."""
    calls = _highs_spy(monkeypatch)
    solve()
    seen = dict(calls[-1])
    A = _csc_array(seen["A"])
    assert np.count_nonzero(A.data) == A.nnz
    seen["A"] = A.toarray()
    return seen


def _certified_spy(monkeypatch) -> list:
    """Record each _certificates call's arguments in the returned list: the stacked primal
    system (c, A, b, free) and the solution (x, y, lam, values) that it certifies, with the
    blocks' offsets (x_at, y_at)."""
    calls = []
    certificates = oracles._certificates

    def spy(*args):
        calls.append(dict(zip(("c", "A", "b", "free", "x", "y", "lam", "values", "x_at", "y_at"),
                              args)))
        return certificates(*args)
    monkeypatch.setattr(oracles, "_certificates", spy)
    return calls


def test_first_lp_in_a_fresh_process_is_certified(fresh_python):
    # the LP loads scipy's HiGHS binding on its first call; that call must solve and certify
    # as any other.  A whole `oracle --all` loads neither the scipy.optimize package nor
    # scipy.sparse, and a later import of scipy.optimize reuses the oracles' binding.
    out = fresh_python(
        "import contextlib, io, sys\n"
        "from fquant import cli, oracles\n"
        "assert 'scipy' not in sys.modules\n"
        "_, value, cert = oracles.l1_center_lp(oracles._l1_three_point_law(16))\n"
        "print(repr(value), repr(cert))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['oracle', '--all', '--m', '10', '--out', 'o'])\n"
        "print(rc, sorted(m for m in sys.modules\n"
        "                 if m == 'scipy.optimize' or m.split('.')[:2] == ['scipy', 'sparse']))\n"
        "used = sys.modules['scipy.optimize._highspy._core']\n"
        "import scipy.optimize\n"
        "res = scipy.optimize.linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0],\n"
        "                             method='highs')\n"
        "from scipy.optimize._highspy import _core\n"
        "print(res.status, res.x.tolist(), _core is used is oracles._highs_binding())\n")
    first, after_oracles, after_linprog = out.splitlines()
    value, cert = map(float, first.split())
    assert cert <= 1e-12
    assert value == pytest.approx(l1_center_lp(oracles._l1_three_point_law(16))[1], abs=1e-12)
    assert after_oracles == "0 []"
    assert after_linprog == "0 [1.0, 0.0] True"


def test_missing_highs_binding_raises_without_a_fallback(monkeypatch):
    import importlib.machinery
    import sys
    name = "scipy.optimize._highspy._core"
    monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", lambda *args: None)
    with pytest.raises(ImportError, match=f"^no {name} in "):
        oracles._highs_binding()
    assert name not in sys.modules


def _assert_csc_is_scipys(vals, rows, cols, shape, A, g):
    """A = oracles._csc(vals, rows, cols, shape) holds scipy's csc_array of the triplets, with
    its dtypes, and A @ x and A.T @ y are scipy's products bit for bit."""
    from scipy.sparse import csc_array
    assert np.unique(np.c_[rows, cols], axis=0).shape[0] == vals.size  # no (row, col) repeats
    want = csc_array((vals, (rows, cols)), shape=shape)
    assert A.shape == want.shape
    for got, ref in ((A.indptr, want.indptr), (A.indices, want.indices), (A.data, want.data)):
        assert got.dtype == ref.dtype
        np.testing.assert_array_equal(got, ref)
    x, y = g.normal(size=shape[1]), g.normal(size=shape[0])
    x[::3], y[::3] = -0.0, 0.0  # a sum of signed zeros keeps scipy's sign too
    _assert_same_bits(A @ x, want @ x)
    _assert_same_bits(A.T @ y, want.T @ y)


@pytest.mark.parametrize("batch_rows", [None, 64], ids=["default", "split"])
@pytest.mark.parametrize("run", ["oracle_all_m10", "sharp2_m20"])
def test_numpy_csc_is_scipys_on_every_batch(monkeypatch, run, batch_rows):
    if batch_rows is not None:
        monkeypatch.setattr(oracles, "_LP_BATCH_ROWS", batch_rows)
    built, csc = [], oracles._csc

    def spy(vals, rows, cols, shape):
        built.append((vals, rows, cols, shape, csc(vals, rows, cols, shape)))
        return built[-1][-1]
    monkeypatch.setattr(oracles, "_csc", spy)
    calls = _highs_spy(monkeypatch)
    _all_center_lps() if run == "oracle_all_m10" else sharp_constant_examples(range(2, 21))
    if batch_rows is None:
        assert len(calls) == (3 if run == "oracle_all_m10" else 2)
    # each batch builds its stacked primal; a box dual's A_eq is built next and goes to HiGHS
    assert len(built) == len(calls) + sum(not call["primal"] for call in calls)
    assert {id(call["A"]) for call in calls} <= {id(b[-1]) for b in built}
    g = np.random.default_rng(5)
    for args in built:
        _assert_csc_is_scipys(*args, g)


def test_numpy_csc_is_scipys_with_empty_rows_and_columns():
    g = np.random.default_rng(3)
    # unsorted triplets of a 5 x 6 matrix whose rows 1 and 4 and columns 0 and 5 are empty;
    # rows 0, 2 and 3 and columns 1 and 3 hold three or four terms, so a sum out of order shows
    rows = np.array([3, 0, 2, 0, 2, 3, 2, 0, 3, 3])
    cols = np.array([4, 1, 1, 4, 3, 2, 2, 3, 1, 3])
    vals = g.normal(size=rows.size)
    A = oracles._csc(vals, rows, cols, (5, 6))
    for _ in range(20):  # fresh x and y each time
        _assert_csc_is_scipys(vals, rows, cols, (5, 6), A, g)


@pytest.mark.parametrize("case", ["c0", "l1_plane", "l1_full", "sharp2_m5"])
def test_lp_certificate_rejects_perturbed_solutions(monkeypatch, case):
    M = 16
    solve = {
        "c0": lambda: linf_center_lp(AtomicLaw(atoms=np.eye(M), probs=default_probs(M))),
        "l1_plane": lambda: l1_center_lp(oracles._l1_three_point_law(M),
                                         basis=oracles._plane_basis(M)),
        "l1_full": lambda: l1_center_lp(oracles._l1_three_point_law(M)),
        "sharp2_m5": lambda: sharp_constant_example(5),
    }[case]
    # the primal system and the (x, y, lam) certified on it: HiGHS's own for c0, the
    # recovery from the box dual for the l1 LPs
    calls = _certified_spy(monkeypatch)
    solve()
    seen = calls[-1]
    c, b, n_free = seen["c"], seen["b"], int(seen["free"].sum())
    A = _csc_array(seen["A"]).toarray()
    x, y, lam, (value,) = seen["x"], seen["y"], seen["lam"], seen["values"]
    assert lp_certificate(c, A, b, n_free, x, value, y, lam) <= 1e-12
    shifted_center = x.copy()
    shifted_center[:n_free] += 1e-9  # same objective, violates a tight bound
    flipped = y.copy()
    flipped[np.argmax(np.abs(y))] *= -1.0
    # rows 0 and 1 bound the same slack from both sides: raising both duals by t
    # and that slack's lower-bound dual by 2t keeps A^T y + lam and b.y, so
    # only the sign condition y <= 0 can reject it
    t = 1.0 + abs(y[0]) + abs(y[1])
    raised, raised_lam = y.copy(), lam.copy()
    raised[:2] += t
    raised_lam[n_free + np.flatnonzero(A[0, n_free:])[0]] += 2.0 * t
    bumped_lam = lam.copy()
    bumped_lam[n_free:] += 1e-9  # still >= 0, but A^T y + lam != c
    for cost, point, val, duals, lower in (
            (c, x + 1e-9, value, y, lam), (c, shifted_center, value, y, lam),
            (c, x, value, flipped, lam), (c, x, value, raised, raised_lam),
            (c, x, value, y, bumped_lam), (c, x, value + 1e-9, y, lam),
            (c + 1e-9, x, value, y, lam),
            (c, x, value, np.zeros_like(y), c)):  # dual feasible, but its bound 0 < value
        assert lp_certificate(cost, A, b, n_free, point, val, duals, lower) > 1e-12


def _reference_lp_input(law, kind, basis=None):
    """The per-row loop builders of the center LPs: cost, A_ub, b_ub, bounds."""
    K, M = law.atoms.shape
    B = np.eye(M) if kind == "linf" or basis is None else basis
    k = B.shape[1]
    n_slack = K if kind == "linf" else K * M
    cost = np.concatenate([np.zeros(k), law.probs if kind == "linf" else np.repeat(law.probs, M)])
    rows, rhs = [], []
    for n in range(K):
        for j in range(M):
            zi = k + (n if kind == "linf" else n * M + j)
            up = np.zeros(k + n_slack)
            up[:k] = B[j]
            up[zi] = -1.0
            rows.append(up)
            rhs.append(law.atoms[n, j])
            lo = np.zeros(k + n_slack)
            lo[:k] = -B[j]
            lo[zi] = -1.0
            rows.append(lo)
            rhs.append(-law.atoms[n, j])
    bounds = np.array([(-np.inf, np.inf)] * k + [(0.0, np.inf)] * n_slack)
    return cost, np.array(rows), np.array(rhs), bounds


@pytest.mark.parametrize("kind, with_basis", [("linf", False), ("l1", False), ("l1", True)],
                         ids=["linf", "l1", "l1_basis"])
def test_center_lp_input_matches_loop_builder(monkeypatch, kind, with_basis):
    g = np.random.default_rng(11)
    law = AtomicLaw(atoms=g.normal(size=(4, 5)), probs=np.array([0.1, 0.2, 0.3, 0.4]))
    basis = g.normal(size=(5, 3)) if with_basis else None
    seen = _captured_lp(monkeypatch, lambda: linf_center_lp(law) if kind == "linf"
                        else l1_center_lp(law, basis=basis))
    cost, A, b, bounds = _reference_lp_input(law, kind, basis)
    row_lower = np.full(b.size, -np.inf)  # A_ub x <= b_ub
    if kind == "l1":  # the box dual: the free columns' even rows, transposed; |u| <= cost
        k = int(np.isneginf(bounds[:, 0]).sum())
        cost, A, b, bounds = -b[0::2], A[0::2, :k].T, np.zeros(k), np.c_[-cost[k:], cost[k:]]
        row_lower = b  # A_eq x == b_eq
    np.testing.assert_array_equal(seen["c"], cost)
    assert seen["A"].shape == A.shape
    np.testing.assert_array_equal(seen["A"], A)
    np.testing.assert_array_equal(seen["row_upper"], b)
    np.testing.assert_array_equal(seen["row_lower"], row_lower)
    np.testing.assert_array_equal(seen["bounds"], bounds)
    assert seen["primal"] == seen["lower_duals"] == (kind == "linf")


def test_sharp2_family_is_one_highs_call(monkeypatch):
    calls = _highs_spy(monkeypatch)
    family = sharp_constant_examples(range(2, 11))
    assert len(calls) == 1
    monkeypatch.undo()
    for m, rep in zip(range(2, 11), family):
        assert rep.ratio == pytest.approx(sharp_constant_example(m).ratio, abs=1e-12)
        cert = next(c for c in rep.checks if "certificate" in c.name)
        assert cert.value <= 1e-12 and all(c.passed for c in rep.checks)


def test_sharp2_family_split_over_the_row_budget(monkeypatch):
    whole = sharp_constant_examples(range(2, 11))
    monkeypatch.setattr(oracles, "_LP_BATCH_ROWS", 64)
    calls = _highs_spy(monkeypatch)
    split = sharp_constant_examples(range(2, 11))
    # support m has 2 m^2 primal rows, so m^2 dual variables and m - 1 equality rows:
    # m = 2, 3, 4 share a call, and each m >= 5 is alone
    assert not any(call["primal"] for call in calls)
    assert [2 * call["A"].shape[1] for call in calls] == [8 + 18 + 32, 50, 72, 98, 128, 162,
                                                          200]
    assert [call["A"].shape[0] for call in calls] == [1 + 2 + 3, 4, 5, 6, 7, 8, 9]
    for a, b in zip(whole, split):
        assert [c.name for c in a.checks] == [c.name for c in b.checks]
        np.testing.assert_allclose([c.value for c in b.checks], [c.value for c in a.checks],
                                   rtol=0, atol=1e-12)
        assert all(c.passed for c in b.checks)


def test_lp_certificate_same_for_sparse_and_dense(monkeypatch):
    calls = _certified_spy(monkeypatch)
    l1_center_lp(oracles._l1_three_point_law(16), basis=oracles._plane_basis(16))
    seen = calls[-1]
    A = seen["A"]
    args = (seen["b"], int(seen["free"].sum()), seen["x"], *seen["values"], seen["y"],
            seen["lam"])
    assert lp_certificate(seen["c"], A, *args) == lp_certificate(seen["c"],
                                                                 _csc_array(A).toarray(), *args)


def _stacked_calls(monkeypatch, solve) -> list:
    """Run solve(); return, per HiGHS call, its captured arguments and result (_highs_spy) with
    the stacked primal and solution that _certificates checked, under "certified", the parts
    (c, (values, rows, cols), b, k) of the LPs it stacked, under "blocks", and what
    _center_lps returned for them, under "out"."""
    calls, certified = _highs_spy(monkeypatch), _certified_spy(monkeypatch)
    parts, outs = [], []
    lp_parts, center_lps = oracles._center_lp_parts, oracles._center_lps

    def parts_spy(*args):
        parts.append(lp_parts(*args))
        return parts[-1]

    def lps_spy(*args):
        outs.extend(out := center_lps(*args))
        return out
    monkeypatch.setattr(oracles, "_center_lp_parts", parts_spy)
    monkeypatch.setattr(oracles, "_center_lps", lps_spy)
    solve()
    assert len(certified) == len(calls)
    for call, seen in zip(calls, certified):
        n_rows, call["certified"], call["blocks"], call["out"] = 0, seen, [], []
        while n_rows < seen["A"].shape[0]:
            call["blocks"].append(parts.pop(0))
            call["out"].append(outs.pop(0))
            n_rows += call["blocks"][-1][2].size
        assert n_rows == seen["A"].shape[0]
    assert not parts and not outs
    return calls


def _all_center_lps():
    oracles.c0_example()
    oracles.l1_hyperplane_example()
    sharp_constant_examples(range(2, 11))


@pytest.mark.parametrize("batch_rows", [None, 64], ids=["oracle_all", "split"])
def test_each_stacked_certificate_is_its_blocks_own(monkeypatch, batch_rows):
    if batch_rows is not None:
        monkeypatch.setattr(oracles, "_LP_BATCH_ROWS", batch_rows)
    calls = _stacked_calls(monkeypatch, _all_center_lps)
    # at 64 rows each l1 LP (96 rows) and each sharp2 m >= 5 goes alone
    assert len(calls) == (3 if batch_rows is None else 1 + 2 + 7)
    # c0's l-infinity LP alone is solved in primal form, the l1 family by its box dual
    assert [call["primal"] for call in calls] == [True] + [False] * (len(calls) - 1)
    for call in calls:
        seen, x0, y0 = call["certified"], 0, 0
        if call["primal"]:  # HiGHS's own primal point and duals are certified
            for got, want in zip((seen["x"], seen["y"], seen["lam"]),
                                 (call["x"], call["row_dual"], call["lam"])):
                np.testing.assert_array_equal(got, want)
        else:  # centers from the equality marginals, row duals from the dual point u
            np.testing.assert_array_equal(seen["x"][seen["free"]], -call["row_dual"])
            np.testing.assert_array_equal(seen["y"][0::2] - seen["y"][1::2], call["x"])
        for (c, (vals, rows, cols), b, k), (point, value, cert) in zip(call["blocks"],
                                                                     call["out"]):
            A = np.zeros((b.size, c.size))
            A[rows, cols] = vals
            x, y = seen["x"][x0:x0 + c.size], seen["y"][y0:y0 + b.size]
            lam = seen["lam"][x0:x0 + c.size]
            lone_primal = len(call["blocks"]) == 1 and call["primal"]
            assert value == (call["fun"] if lone_primal else float(c @ x))
            np.testing.assert_array_equal(point, x[:k])
            assert cert == lp_certificate(c, A, b, k, x, value, y, lam) <= 1e-12
            x0, y0 = x0 + c.size, y0 + b.size


@pytest.mark.parametrize("batch_rows", [None, 64], ids=["oracle_all", "split"])
def test_stacked_a_ub_is_block_diag_of_the_blocks(monkeypatch, batch_rows):
    from scipy.sparse import block_diag, csc_array
    if batch_rows is not None:
        monkeypatch.setattr(oracles, "_LP_BATCH_ROWS", batch_rows)
    for call in _stacked_calls(monkeypatch, _all_center_lps):
        stacked = call["certified"]["A"]  # the stacked primal that certifies the call
        A = _csc_array(stacked)
        want = block_diag([csc_array((vals, (rows, cols)), shape=(b.size, c.size))
                           for c, (vals, rows, cols), b, _ in call["blocks"]], "csc")
        assert A.format == "csc" and A.shape == want.shape
        assert np.count_nonzero(A.data) == A.nnz
        for a, w in ((A.indptr, want.indptr), (A.indices, want.indices), (A.data, want.data)):
            np.testing.assert_array_equal(a, w)
        if call["primal"]:
            assert call["A"] is stacked
        else:  # the box dual's A_eq: the free columns' even rows, transposed
            np.testing.assert_array_equal(_csc_array(call["A"]).toarray(),
                                          want.toarray()[0::2, call["certified"]["free"]].T)


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       k_atoms=st.integers(min_value=2, max_value=6),
       dim=st.integers(min_value=2, max_value=5), data=st.data())
def test_box_dual_matches_the_primal_on_random_bases(seed, k_atoms, dim, data):
    from scipy.optimize import linprog
    from scipy.sparse import csc_array
    g = np.random.default_rng(seed)
    law = _random_law(g, k_atoms, dim)
    if law is None:
        return
    B = g.normal(size=(dim, data.draw(st.integers(min_value=1, max_value=dim))))
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _highs_spy(monkeypatch)
        s, value, cert = l1_center_lp(law, basis=B)
    (call,) = calls
    _assert_same_as_linprog(call)
    c, (vals, rows, cols), b, k = oracles._center_lp_parts(*oracles._l1_problem(law, B))
    bounds = np.c_[np.where(np.arange(c.size) < k, -np.inf, 0.0), np.full(c.size, np.inf)]
    primal = linprog(c, A_ub=csc_array((vals, (rows, cols)), shape=(b.size, c.size)), b_ub=b,
                     bounds=bounds, method="highs")
    assert primal.success
    assert value == pytest.approx(primal.fun, abs=1e-9)
    assert law.mean_norm_to(B @ s, "l1") == pytest.approx(value, abs=1e-12)
    assert cert <= 1e-12


@pytest.mark.parametrize("solve, message", [(l1_center_lp, "l1 center LP failed"),
                                            (linf_center_lp, "l-infinity center LP failed")],
                         ids=["l1", "linf"])
def test_failed_lp_raises_naming_its_family(monkeypatch, solve, message):
    from scipy.optimize._highspy import _core
    calls = []

    class Failed(_core._Highs):  # solves, then reports a failed run
        def run(self):
            lp = self.getLp()
            calls.append(dict(A_eq=np.array_equal(lp.row_lower_, lp.row_upper_)))
            super().run()
            return _core.HighsStatus.kError

        def modelStatusToString(self, status):
            return "stub failure"
    monkeypatch.setattr(_core, "_Highs", Failed)
    with pytest.raises(OracleError, match=f"^{message}: stub failure$"):
        solve(AtomicLaw(atoms=np.eye(3), probs=default_probs(3)))
    assert len(calls) == 1 and calls[0]["A_eq"] == message.startswith("l1")


@pytest.mark.parametrize("what", ["l1", "l-infinity"])
@pytest.mark.parametrize("case, status", [("unbounded", "kUnbounded"),
                                          ("infeasible", "kInfeasible")])
def test_highs_failure_names_the_model_status(what, case, status):
    from scipy.optimize._highspy import _core
    from scipy.sparse import csc_array
    if case == "unbounded":  # one free column of cost -1 and no rows
        lp = (np.array([-1.0]), csc_array((0, 1)), np.zeros(0), np.zeros(0),
              np.array([[-np.inf, np.inf]]))
    else:  # x >= 0 and x <= -1
        lp = (np.array([1.0]), csc_array(np.ones((1, 1))), np.array([-np.inf]),
              np.array([-1.0]), np.array([[0.0, np.inf]]))
    name = _core._Highs().modelStatusToString(getattr(_core.HighsModelStatus, status))
    for lower_duals in (False, True):
        with pytest.raises(OracleError) as failed:
            oracles._highs(what, *lp, lower_duals)
        assert str(failed.value) == f"{what} center LP failed: {name}"


def _assert_same_as_linprog(call):
    """The HiGHS call's x, row duals (linprog's eqlin or ineqlin marginals), lower-bound
    duals and objective equal linprog(method="highs")'s on the same LP, bit for bit."""
    from scipy.optimize import linprog
    if call["primal"]:
        res = linprog(call["c"], A_ub=_csc_array(call["A"]), b_ub=call["row_upper"],
                      bounds=call["bounds"], method="highs")
        marginals, lower = res.ineqlin.marginals, res.lower.marginals
    else:
        np.testing.assert_array_equal(call["row_lower"], call["row_upper"])
        res = linprog(call["c"], A_eq=_csc_array(call["A"]), b_eq=call["row_upper"],
                      bounds=call["bounds"], method="highs")
        marginals, lower = res.eqlin.marginals, None
    assert res.success
    if lower is None:
        assert call["lam"] is None
    for got, want in ((call["x"], res.x), (call["row_dual"], marginals), (call["lam"], lower),
                      (call["fun"], res.fun)):
        if want is not None:
            np.testing.assert_array_equal(got, want)
            _assert_same_bits(np.asarray(got), np.asarray(want))  # -0.0 too


@pytest.mark.parametrize("batch_rows", [None, 64], ids=["oracle_all", "split"])
def test_highs_matches_linprog_bit_for_bit(monkeypatch, batch_rows):
    if batch_rows is not None:
        monkeypatch.setattr(oracles, "_LP_BATCH_ROWS", batch_rows)
    calls = _highs_spy(monkeypatch)
    _all_center_lps()
    assert len(calls) == (3 if batch_rows is None else 1 + 2 + 7)
    for call in calls:
        _assert_same_as_linprog(call)


def test_sharp2_lp_memory_is_quadratic_in_m():
    import tracemalloc
    sharp_constant_example(3)  # scipy imported and warmed outside the trace
    tracemalloc.start()
    try:
        rep = sharp_constant_example(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.passed for c in rep.checks)
    assert peak < 10e6  # the dense 3200 x 1639 matrix alone was 42 MB
