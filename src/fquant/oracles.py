"""Finite, exactly-computable ground-truth cases for the test suite.

Each oracle reconstructs a sequence-space or C([0,1]) construction with a
known best value, evaluates it by independent routes (closed forms / vertex
enumeration / coordinate medians / linear programming), and reports named
checks that the CLI aggregates into a manifest.  The LPs are solved in block-diagonal
batches: per HiGHS call, one sparse build and one numpy pass that checks each LP's
duality certificate outside the solver.  The l1 center LPs go to HiGHS as their box-
bounded duals, and their primal optimality triples are recovered from that solve; only
the l-infinity LP is solved in primal form.  scipy is imported only when an LP runs, and
the CLI imports this module only for `fquant oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import OracleError

# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AtomicLaw:
    """Finitely supported law: points (as rows) with matching probabilities."""

    atoms: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "probs", probs)
        if atoms.ndim != 2 or probs.shape != (atoms.shape[0],):
            raise OracleError("atoms must be (K, dim) with one probability per row")
        if np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-15:
            raise OracleError("probabilities must be positive and sum to 1 within 1e-15")
        if len({a.tobytes() for a in atoms + 0.0}) != atoms.shape[0]:  # -0.0 + 0.0 is 0.0
            raise OracleError("law atoms must be distinct")

    def mean_norm_to(self, point: np.ndarray, norm_kind: str) -> float:
        diff = self.atoms - np.asarray(point)[None, :]
        dists = np.abs(diff).sum(axis=1) if norm_kind == "l1" else np.abs(diff).max(axis=1)
        return float(self.probs @ dists)


@dataclass(frozen=True)
class OracleCheck:
    name: str
    value: float
    expected: float
    tol: float

    @property
    def passed(self) -> bool:
        return abs(self.value - self.expected) <= self.tol

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "expected": self.expected,
                "tol": self.tol, "passed": self.passed}


def indicator_check(name: str, condition: bool, witness: float) -> OracleCheck:
    """A strict (non-metric) assertion encoded as a 0/1 check; witness is the
    quantity the condition was evaluated on, kept for the manifest."""
    return OracleCheck(name=f"{name}[witness={witness:.6g}]",
                       value=1.0 if condition else 0.0, expected=1.0, tol=0.0)


def default_probs(M: int) -> np.ndarray:
    """A proper law on {1..M} with every weight strictly inside (0, 1/2).

    Two leading weights of 1/3 followed by a geometric(1/2) tail, with the
    tail mass beyond M aggregated into the last entry.  (A plain normalized
    geometric with ratio 1/2 would put exactly 1/2 on the first point, which
    the constructions exclude.)
    """
    if M < 3:
        raise OracleError(f"need M >= 3, got {M}")
    p = np.empty(M)
    p[0] = p[1] = 1.0 / 3.0
    for n in range(3, M):
        p[n - 1] = (1.0 / 3.0) * 2.0 ** (2 - n)
    p[M - 1] = (1.0 / 3.0) * 2.0 ** (3 - M)
    p /= p.sum()
    if np.any(p >= 0.5) or np.any(p <= 0.0):
        raise OracleError("internal: default probs left (0, 1/2)")
    return p


def default_constraint(M: int) -> np.ndarray:
    """c = (1, 1, 1, 4 - 4/4, 4 - 4/5, ...): strictly increasing tail, sup = 4 > 3."""
    j = np.arange(1, M + 1, dtype=np.float64)
    c = 4.0 - 4.0 / j
    c[:3] = 1.0
    return c


# ---------------------------------------------------------------------------
# convex minimization routes
# ---------------------------------------------------------------------------


def coordinate_median_minimize(law: AtomicLaw) -> tuple[np.ndarray, float]:
    """Exact minimizer of a -> E ||V - a||_1 via per-coordinate weighted medians: in each
    column, the first atom in stable sorted order where the cumulative weight reaches 1/2."""
    order = np.argsort(law.atoms, axis=0, kind="stable")
    first = np.argmax(np.cumsum(law.probs[order], axis=0) >= 0.5, axis=0)
    out = np.take_along_axis(law.atoms, order, axis=0)[first, np.arange(law.atoms.shape[1])]
    return out, law.mean_norm_to(out, "l1")


def lp_certificate(c: np.ndarray, A_ub, b_ub: np.ndarray, n_free: int,
                   x: np.ndarray, value: float, y: np.ndarray, lam: np.ndarray) -> float:
    """Largest residual of an optimality certificate for min c.x s.t. A_ub x <= b_ub,
    x_i >= 0 for i >= n_free (the first n_free variables are free; A_ub dense or sparse).

    Checks, in numpy and without trusting the solver that produced them, the
    primal point x, the reported optimal value, inequality duals y and
    lower-bound duals lam:
      - primal infeasibility: max (A_ub x - b_ub)_+ and max (-x_i)_+ on the bounded x_i;
      - dual infeasibility: ||A_ub^T y + lam - c||_inf, max y_+, max (-lam_i)_+ on the
        bounded variables and |lam_i| on the free ones;
      - duality gap: the reported value against both c.x and the dual bound b_ub.y.
    All three vanish exactly at an optimal primal-dual pair (LP strong duality).
    """
    return float(_certificates(c, A_ub, b_ub, np.arange(c.size) < n_free, x, y, lam,
                               [value], [0, c.size], [0, b_ub.size])[0])


def _certificates(c, A, b, free, x, y, lam, values, x_at, y_at) -> np.ndarray:
    """lp_certificate of each block i of a block-diagonal LP: variables x_at[i]:x_at[i + 1]
    (free where free is set), rows y_at[i]:y_at[i + 1], value values[i].  Both products
    run once; each residual is reduced per block by a max, which is exact in any order."""
    per_row = np.maximum(A @ x - b, y)
    per_var = np.maximum(np.abs(A.T @ y + lam - c), np.where(free, abs(lam), np.maximum(-x, -lam)))
    gaps = [max(abs(v - c[i:j] @ x[i:j]), abs(v - b[k:l] @ y[k:l]))
            for v, i, j, k, l in zip(values, x_at, x_at[1:], y_at, y_at[1:])]
    worst = np.maximum(np.maximum.reduceat(per_row, y_at[:-1]),
                       np.maximum.reduceat(per_var, x_at[:-1]))
    return np.maximum(worst, gaps) + 0.0  # -0.0 (-x or y at a zero) + 0.0 is 0.0


# one sharp2 family as one LP beat one LP per m at 2 478 rows, lost at 5 738 (2-vCPU VM);
# as box duals at sharp2 --m 20..80, 8192 or 16384 rows gained <= 0.03 s and cost <= 8 MB
_LP_BATCH_ROWS = 4096


def _center_lp_parts(law: AtomicLaw, P: np.ndarray, slack: np.ndarray, slack_cost: np.ndarray):
    """(c, A_ub, b_ub, k) of min_x sum_i slack_cost[i] z_i subject to |v_nj - (P x)_j| <=
    z[slack[n, j]], as rows (P x)_j - z <= v_nj (row 2(nM + j)) and -(P x)_j - z <= -v_nj;
    x = (k free variables, z).  A_ub is COO triplets (values, rows, cols), no explicit zero."""
    K, M = law.atoms.shape
    j, col = np.nonzero(P)
    nj = np.concatenate([(M * np.arange(K)[:, None] + j).ravel(), np.arange(K * M)])
    cols = np.concatenate([np.tile(col, K), P.shape[1] + slack.ravel()])
    p_vals, z_vals = np.tile(P[j, col], K), np.full(K * M, -1.0)
    rows, cols = np.ravel(2 * nj + [[0], [1]]), np.tile(cols, 2)  # the rows <= v_nj, then >=
    A = np.concatenate([p_vals, z_vals, -p_vals, z_vals]), rows, cols
    b = np.stack([law.atoms, -law.atoms], axis=-1).ravel()
    return np.concatenate([np.zeros(P.shape[1]), slack_cost]), A, b, P.shape[1]


def _linprog(what: str, c: np.ndarray, **constraints):
    from scipy.optimize import linprog
    res = linprog(c, **constraints, method="highs")
    if not res.success:
        raise OracleError(f"{what} center LP failed: {res.message}")
    return res


def _box_dual_solution(c, b, free, vals, rows, cols, what: str):
    """(x, y, lam) of the stacked primal min c.x s.t. A x <= b, when each slack z carries
    one term t (rows 2t: (P s)_t - z <= v_t, 2t + 1: -(P s)_t - z <= -v_t), read off one
    solve of its dual  min -v.u  s.t.  sum_t P_t^T u_t = 0,  |u_t| <= cost of t's slack
    (Barrodale and Roberts 1973): s = -(equality marginals), z = |v - P s|, y = min(u, 0)
    on row 2t and min(-u, 0) on row 2t + 1, lam = 0 on s and cost - |u| on z."""
    from scipy.sparse import csc_array
    even = rows % 2 == 0
    on_free, on_slack = even & free[cols], even & ~free[cols]
    slack_of = np.empty(b.size // 2, dtype=np.intp)
    slack_of[rows[on_slack] // 2] = cols[on_slack]
    A_eq = csc_array((vals[on_free], ((np.cumsum(free) - 1)[cols[on_free]], rows[on_free] // 2)),
                     shape=(np.count_nonzero(free), slack_of.size))
    cost, v = c[slack_of], b[0::2]
    res = _linprog(what, -v, A_eq=A_eq, b_eq=np.zeros(A_eq.shape[0]), bounds=np.c_[-cost, cost])
    x, lam = np.zeros(c.size), np.zeros(c.size)
    x[free] = -res.eqlin.marginals
    x[slack_of] = np.abs(v - A_eq.T @ x[free])
    lam[slack_of] = cost - np.abs(res.x)
    return x, np.minimum(np.c_[res.x, -res.x], 0.0).ravel(), lam


def _solve_stacked(lps: list, what: str) -> list[tuple[np.ndarray, float, float]]:
    from scipy.sparse import csc_array
    cs, As, bs, ks = zip(*lps)
    x_at, y_at = np.cumsum([0, *map(len, cs)]), np.cumsum([0, *map(len, bs)])
    vals, rows, cols = map(np.concatenate, zip(*[(v, r + y0, q + x0)
                                                 for (v, r, q), x0, y0 in zip(As, x_at, y_at)]))
    A = csc_array((vals, (rows, cols)), shape=(y_at[-1], x_at[-1]))
    c, b = np.concatenate(cs), np.concatenate(bs)
    free = np.concatenate([np.arange(len(c_i)) < k for c_i, k in zip(cs, ks)])
    fun = None
    if b.size == 2 * (c.size - sum(ks)):  # one term per slack, as in the l1 family
        x, y, lam = _box_dual_solution(c, b, free, vals, rows, cols, what)
    else:
        bounds = np.c_[np.where(free, -np.inf, 0.0), np.full(len(c), np.inf)]
        res = _linprog(what, c, A_ub=A, b_ub=b, bounds=bounds)
        x, y, lam, fun = res.x, res.ineqlin.marginals, res.lower.marginals, float(res.fun)
    values = [fun] if fun is not None and len(lps) == 1 else [
        float(c_i @ x[i:j]) for c_i, i, j in zip(cs, x_at, x_at[1:])]
    certs = _certificates(c, A, b, free, x, y, lam, values, x_at, y_at)
    return [(x[i:i + k], v, float(r)) for i, k, v, r in zip(x_at, ks, values, certs)]


def _center_lps(problems, what: str) -> list[tuple[np.ndarray, float, float]]:
    """(x, value, certificate residual) of each center LP (law, P, slack, slack_cost) in
    problems (see _center_lp_parts, lp_certificate).  Consecutive LPs are stacked block-
    diagonally into linprog calls of at most _LP_BATCH_ROWS primal rows, or of one larger
    LP; a batch whose slacks carry one term each (the l1 family) is solved as its box dual
    (_box_dual_solution).  A lone l-infinity LP's value is HiGHS's objective, every other
    LP's c . x of its own block."""
    out, batch = [], []
    for problem in problems:
        lp = _center_lp_parts(*problem)
        if batch and sum(b.size for _, _, b, _ in batch) + lp[2].size > _LP_BATCH_ROWS:
            out, batch = out + _solve_stacked(batch, what), []
        batch.append(lp)
    return out + (_solve_stacked(batch, what) if batch else [])


def _l1_problem(law: AtomicLaw, basis: np.ndarray | None = None) -> tuple:
    K, M = law.atoms.shape
    B = np.eye(M) if basis is None else np.asarray(basis, dtype=np.float64)
    return law, B, np.arange(K * M).reshape(K, M), np.repeat(law.probs, M)


def linf_center_lp(law: AtomicLaw) -> tuple[np.ndarray, float, float]:
    """LP solution of min_b E ||V - b||_inf (variables b plus one bound per atom):
    (center, value, certificate residual)."""
    K, M = law.atoms.shape
    problem = (law, np.eye(M), np.arange(K)[:, None].repeat(M, axis=1), law.probs)
    return _center_lps([problem], "l-infinity")[0]


def l1_center_lp(law: AtomicLaw,
                 basis: np.ndarray | None = None) -> tuple[np.ndarray, float, float]:
    """LP solution of min_s E ||V - B s||_1 (B = identity when basis is None):
    (s, value, certificate residual)."""
    return _center_lps([_l1_problem(law, basis)], "l1")[0]


# ---------------------------------------------------------------------------
# the c_0(N) construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class C0ExampleReport:
    best_value: float
    sequence_values: np.ndarray   # value at a^(m) = (1/2) * sum_{n<=m} u^(n), m = 1..M
    value_at_candidate: float
    probs: np.ndarray
    checks: list[OracleCheck] = field(default_factory=list)


def c0_example(M: int = 16) -> C0ExampleReport:
    """The vanishing-sequence construction: best one-point coverage is 1/2.

    The law sits on the canonical basis vectors u^(1)..u^(M) with weights in
    (0, 1/2).  The half-constant point scores exactly 1/2; the truncated-space
    minimum (via LP, certified by LP duality) is 1/2 again and is
    attained only at that point; and the partial-sum candidates a^(m) decrease
    strictly to 1/2.
    """
    p = default_probs(M)
    law = AtomicLaw(atoms=np.eye(M), probs=p)
    candidate = np.full(M, 0.5)
    value_at_candidate = law.mean_norm_to(candidate, "linf")

    seq = np.empty(M)
    for m in range(1, M + 1):
        a_m = np.zeros(M)
        a_m[:m] = 0.5
        seq[m - 1] = law.mean_norm_to(a_m, "linf")

    best_point, best_lp, certificate = linf_center_lp(law)

    rng = np.random.default_rng(7)
    probe_margin = np.inf
    for _ in range(32):
        n0 = int(rng.integers(M))
        b = law.atoms[n0] + rng.uniform(-0.49, 0.49, size=M) * 0.999
        # keep the probe strictly inside the half-ball around u^(n0)
        b = law.atoms[n0] + (b - law.atoms[n0]) * (0.49 / max(np.abs(b - law.atoms[n0]).max(), 1e-9))
        probe_margin = min(probe_margin, law.mean_norm_to(b, "linf") - 0.5)

    checks = [
        OracleCheck("c0.value_at_half_constant", value_at_candidate, 0.5, 1e-12),
        OracleCheck("c0.lp_minimum", best_lp, 0.5, 1e-9),
        OracleCheck("c0.center_lp_certificate", certificate, 0.0, 1e-12),
        OracleCheck("c0.minimizer_is_half_constant",
                    float(np.abs(best_point - candidate).max()), 0.0, 1e-6),
        indicator_check("c0.sequence_strictly_decreasing",
                        bool(np.all(np.diff(seq) < 0.0)), float(np.max(np.diff(seq)))),
        OracleCheck("c0.sequence_limit", float(seq[-1]), 0.5, 1e-12),
        indicator_check("c0.half_ball_probes_exceed_half",
                        probe_margin > 0.0, probe_margin),
    ]
    return C0ExampleReport(best_value=best_lp, sequence_values=seq,
                           value_at_candidate=value_at_candidate, probs=p, checks=checks)


# ---------------------------------------------------------------------------
# the l^1 hyperplane construction
# ---------------------------------------------------------------------------


def _l1_three_point_law(M: int, m_points: int = 3) -> AtomicLaw:
    atoms = np.zeros((m_points, M))
    for i in range(1, m_points):
        atoms[i, 0] = 1.0
        atoms[i, i] = -1.0
    return AtomicLaw(atoms=atoms, probs=np.full(m_points, 1.0 / m_points))


def _plane_basis(M: int) -> np.ndarray:
    """Basis of span{u1 - u2, u1 - u3} as columns; a = (s+t, -s, -t, 0, ...)."""
    B = np.zeros((M, 2))
    B[0] = 1.0
    B[1, 0] = -1.0
    B[2, 1] = -1.0
    return B


def _plane_vertex_minimum(law: AtomicLaw, M: int) -> float:
    """Exact minimum over the 2-d span via vertex enumeration.

    The objective is convex piecewise linear in (s, t) with kinks on the six
    lines s=0, t=0, s=1, t=1, s+t=0, s+t=1; its minimum is attained at an
    intersection vertex, all of which are enumerated here.
    """
    lines = [(1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1)]
    B = _plane_basis(M)
    best = np.inf
    for i in range(len(lines)):
        for k in range(i + 1, len(lines)):
            a1, b1, c1 = lines[i]
            a2, b2, c2 = lines[k]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            s = (c1 * b2 - c2 * b1) / det
            t = (a1 * c2 - a2 * c1) / det
            best = min(best, law.mean_norm_to(B @ np.array([s, t]), "l1"))
    return best


@dataclass(frozen=True)
class L1HyperplaneReport:
    e_plane: float                 # best over the 2-d span (expected 4/3)
    e_full: float                  # best over the whole truncated l^1 (expected 1)
    e_hyperplane_upper: float      # min over the candidates inside the hyperplane
    minimizer_full: np.ndarray
    candidate_values: np.ndarray   # value at a^(k) = u1 - u_k / c_k, k = 4..M
    c: np.ndarray
    checks: list[OracleCheck] = field(default_factory=list)


def l1_hyperplane_example(M: int = 16) -> L1HyperplaneReport:
    """Three-point law in l^1: plane optimum 4/3, full-space optimum 1, and
    hyperplane candidates that strictly beat the plane."""
    if M < 5:
        raise OracleError("hyperplane candidates need M >= 5 to beat 4/3")
    cvec = default_constraint(M)
    law = _l1_three_point_law(M)

    (_, e_plane_lp, plane_certificate), (_, e_full_lp, full_certificate) = _center_lps(
        [_l1_problem(law, _plane_basis(M)), _l1_problem(law)], "l1")
    e_plane_vertex = _plane_vertex_minimum(law, M)
    minimizer_full, e_full_med = coordinate_median_minimize(law)

    u1 = np.zeros(M)
    u1[0] = 1.0
    ks = np.arange(4, M + 1)
    cand_vals = np.empty(ks.size)
    constraint_resid = 0.0
    for pos, k in enumerate(ks):
        a_k = u1.copy()
        a_k[k - 1] = -1.0 / cvec[k - 1]
        cand_vals[pos] = law.mean_norm_to(a_k, "l1")
        constraint_resid = max(constraint_resid, abs(float(a_k @ cvec)))
    closed = 1.0 + 1.0 / cvec[ks - 1]
    e_upper = float(cand_vals.min())

    checks = [
        OracleCheck("l1.plane_lp", e_plane_lp, 4.0 / 3.0, 1e-9),
        OracleCheck("l1.plane_vertex_enumeration", e_plane_vertex, 4.0 / 3.0, 1e-12),
        OracleCheck("l1.plane_lp_certificate", plane_certificate, 0.0, 1e-12),
        OracleCheck("l1.full_minimum", e_full_med, 1.0, 1e-12),
        OracleCheck("l1.full_median_vs_lp", e_full_med - e_full_lp, 0.0, 1e-12),
        OracleCheck("l1.full_lp_certificate", full_certificate, 0.0, 1e-12),
        OracleCheck("l1.full_minimizer_is_u1",
                    float(np.abs(minimizer_full - u1).max()), 0.0, 1e-6),
        OracleCheck("l1.candidate_values_closed_form",
                    float(np.abs(cand_vals - closed).max()), 0.0, 1e-15),
        OracleCheck("l1.candidates_in_hyperplane", constraint_resid, 0.0, 1e-12),
        indicator_check("l1.hyperplane_beats_plane", e_upper < 4.0 / 3.0, e_upper),
    ]
    return L1HyperplaneReport(e_plane=e_plane_lp, e_full=e_full_med,
                              e_hyperplane_upper=e_upper, minimizer_full=minimizer_full,
                              candidate_values=cand_vals, c=cvec, checks=checks)


# ---------------------------------------------------------------------------
# sharpness of the factor-2 subspace bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpConstantReport:
    ratio: float
    checks: list[OracleCheck] = field(default_factory=list)


def sharp_constant_examples(ms) -> list[SharpConstantReport]:
    """Uniform m-point law in l^1 for each m in the sequence ms: subspace error 2(m-1)/m
    against full-space 1.  The subspace LPs are solved together (see _center_lps)."""
    if min(ms, default=2) < 2:
        raise OracleError(f"support size must be >= 2, got {min(ms)}")
    laws = [_l1_three_point_law(m, m_points=m) for m in ms]
    # span{v_2, ..., v_m}: a = (sum s_j) u1 - sum s_j u_j
    lps = _center_lps([_l1_problem(law, np.vstack([np.ones((1, m - 1)), -np.eye(m - 1)]))
                       for m, law in zip(ms, laws)], "l1")
    reports = []
    for m, law, (_, e_sub_lp, certificate) in zip(ms, laws, lps):
        e_full = min(coordinate_median_minimize(law)[1], law.mean_norm_to(np.eye(m)[0], "l1"))
        expected, ratio = 2.0 * (m - 1) / m, e_sub_lp / e_full
        reports.append(SharpConstantReport(ratio=ratio, checks=[
            OracleCheck(f"sharp2.full_minimum[m={m}]", e_full, 1.0, 1e-12),
            OracleCheck(f"sharp2.subspace_lp[m={m}]", e_sub_lp, expected, 1e-9),
            OracleCheck(f"sharp2.subspace_lp_certificate[m={m}]", certificate, 0.0, 1e-12),
            OracleCheck(f"sharp2.ratio[m={m}]", ratio, expected, 1e-9),
            indicator_check(f"sharp2.ratio_below_2[m={m}]", ratio <= 2.0, ratio),
        ]))
    return reports


def sharp_constant_example(m: int) -> SharpConstantReport:
    """sharp_constant_examples of the one support size m."""
    return sharp_constant_examples([m])[0]


# ---------------------------------------------------------------------------
# the C([0,1]) sup-norm construction
# ---------------------------------------------------------------------------


def bump_function_values(n: int, t: np.ndarray) -> np.ndarray:
    """The n-th continuous bump: a unit spike just left of 1/2, mirrored odd
    about 1/2.  All breakpoints are dyadic, so evaluation on a dyadic grid is
    exact."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    left = t <= 0.5

    def half(tt):
        v = np.zeros_like(tt)
        lo = 0.5 - 2.0 ** (-n)
        peak = 0.5 - 3.0 * 2.0 ** (-(n + 2))
        hi = 0.5 - 2.0 ** (-(n + 1))
        up = (tt >= lo) & (tt <= peak)
        down = (tt > peak) & (tt <= hi)
        v[up] = 2.0 ** (n + 1) * (2.0 * tt[up] - 1.0) + 4.0
        v[down] = 2.0 ** (n + 1) * (1.0 - 2.0 * tt[down]) - 2.0
        return v

    out[left] = half(t[left])
    out[~left] = -half(1.0 - t[~left])
    return out


def step_function_values(t: np.ndarray) -> np.ndarray:
    """h = (1/2) (1 on [0, 1/2] minus 1 on (1/2, 1])."""
    t = np.asarray(t, dtype=np.float64)
    return np.where(t <= 0.5, 0.5, -0.5)


def sup_example_grid(n_funcs: int) -> np.ndarray:
    """Default dyadic grid resolving every bump feature exactly."""
    m = 2 ** (n_funcs + 3) + 1
    return np.linspace(0.0, 1.0, m)


PROBE_POLYS = (
    (0.0,),                    # g = 0
    (0.25,), (-0.25,), (0.5,),
    (1.0, 0.0),                # g = t
    (-1.0, 0.5),               # g = 1/2 - t
    (-2.0, 1.0),               # g = 1 - 2t
    (2.0, -3.0, 0.0, 0.5),     # cubic sliding from 1/2 to -1/2
)


@dataclass(frozen=True)
class SupExampleReport:
    sup_dists: np.ndarray        # ||f_n - h||_sup on the grid
    value_at_h: float
    lr_values: dict              # r -> || ||X-h||_sup ||_{L^r}
    best_probe: float
    checks: list[OracleCheck] = field(default_factory=list)


def sup_counterexample(n_funcs: int = 12) -> SupExampleReport:
    """Sup-norm coverage of the bump family: h scores exactly 1/2, smooth
    probes stay above 1/2 by a margin of 0.02.

    Bump n is evaluated only on its two nonzero pieces (nodes t <= 1/2 in
    [1/2 - 2^-n, 1/2 - 2^-(n+1)], and t > 1/2 with 1.0 - t there).  Off them
    f_n is +-0.0 and |+-0.0 - g| = |g| exactly, so each sup distance, the
    largest |f_n - g| on the pieces or |g| on a segment of its gaps, is the
    full-grid one bit for bit: a max is exact in any order."""
    if n_funcs < 3:
        raise OracleError(f"need n_funcs >= 3, got {n_funcs}")
    grid = sup_example_grid(n_funcs)
    p = default_probs(n_funcs)
    m, k = grid.size, int(np.searchsorted(grid, 0.5, side="right"))  # grid[k:] > 1/2
    mirror = (1.0 - grid[k:])[::-1]  # bump_function_values' 1.0 - t, rising
    ends = []  # bump n's pieces are nodes [a, b) and [c, d)
    for n in range(1, n_funcs + 1):
        lo, hi = 0.5 - 2.0 ** (-n), 0.5 - 2.0 ** (-(n + 1))
        ends.append((np.searchsorted(grid[:k], lo), np.searchsorted(grid[:k], hi, "right"),
                     m - np.searchsorted(mirror, hi, "right"), m - np.searchsorted(mirror, lo)))

    def on_pieces(x: np.ndarray) -> np.ndarray:  # x on bump 1's two pieces, then bump 2's, ...
        return np.concatenate([x[i:j] for a, b, c, d in ends for i, j in ((a, b), (c, d))])
    firsts = np.cumsum([0] + [b - a + d - c for a, b, c, d in ends[:-1]])
    vals = np.concatenate([bump_function_values(n, t) for n, t in
                           enumerate(np.split(on_pieces(grid), firsts[1:]), start=1)])
    cuts = np.setdiff1d(np.r_[0, np.ravel(ends)], [m])  # segment i: nodes [cuts[i], cuts[i + 1])
    a, b, c, d = np.transpose(ends)[:, :, None]  # a segment starting in a piece lies in it
    in_gap = ~((a <= cuts) & (cuts < b) | (c <= cuts) & (cuts < d))  # (n_funcs, segments)

    def sup_dists_to(g: np.ndarray) -> np.ndarray:
        diffs = vals - on_pieces(g)
        off = np.where(in_gap, np.maximum.reduceat(np.abs(g), cuts), 0.0).max(axis=1)
        return np.maximum(np.maximum.reduceat(np.abs(diffs, out=diffs), firsts), off)

    sup_dists = sup_dists_to(step_function_values(grid))
    value_at_h = float(p @ sup_dists)
    lr_values = {r: float((p @ sup_dists ** r) ** (1.0 / r)) for r in (1.0, 2.0, 4.0)}

    best_probe, g = np.inf, np.empty_like(grid)
    for coeffs in PROBE_POLYS:  # np.polyval's Horner steps, in place in one buffer
        g.fill(0.0)
        for coeff in coeffs:
            np.add(np.multiply(g, grid, out=g), coeff, out=g)
        best_probe = min(best_probe, float(p @ sup_dists_to(g)))

    checks = [
        OracleCheck("supnorm.bump_distances_to_h",
                    float(np.abs(sup_dists - 0.5).max()), 0.0, 0.0),
        OracleCheck("supnorm.value_at_h", value_at_h, 0.5, 1e-12),
        OracleCheck("supnorm.lr_values_all_half",
                    float(max(abs(v - 0.5) for v in lr_values.values())), 0.0, 1e-12),
        indicator_check("supnorm.probes_above_half_plus_margin",
                        best_probe > 0.5 + 0.02, best_probe),
    ]
    return SupExampleReport(sup_dists=sup_dists, value_at_h=value_at_h,
                            lr_values=lr_values, best_probe=best_probe, checks=checks)


# ---------------------------------------------------------------------------
# closed-form one-point errors for the process examples
# ---------------------------------------------------------------------------


def closed_form_errors(process_tag: str, n: int, p: float, r: float,
                       params: dict | None = None) -> float | None:
    """Analytic optimal quantization error where one is registered; None otherwise.

    Registered (all with n=1, p=r=2, mean atom): brownian on [0, t_end] under
    Lebesgue; bridge likewise; stationary OU under the e^{-b t} dt measure.
    """
    params = params or {}
    base = process_tag.split("(")[0]
    if (n, p, r) != (1, 2.0, 2.0):
        return None
    t_end = float(params.get("t_end", 1.0))
    if base == "brownian":
        return math.sqrt(t_end ** 2 / 2.0)
    if base == "bridge":
        return math.sqrt(t_end ** 2 / 6.0)
    if base == "ou":
        b = float(params.get("b", 1.0))
        return math.sqrt((1.0 - math.exp(-b * t_end)) / b)
    return None
