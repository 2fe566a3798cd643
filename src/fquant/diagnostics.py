"""Checks on a given codebook: stationarity residuals, admissibility,
error monotonicity across sizes, path-regularity (Hoelder) fits, boundary
pinning.

The first-order condition behind the stationarity residual and the distortion
differential is one kernel: per row chunk of the sample, |a_i - x|^(p-1) sign(a_i - x)
is summed into each path's cell by a one-hot product weighted by ||x - a_i||^(r-p)
(0 for a path equal to its atom), so its scratch follows the chunk budget, not N.
pass_scores gives SGD the distortion value and its tol test alone, not the reports.  The test
reads a one-node floor of the max residual first: the middle grid node's sums, less a margin
no rounding crosses, in the residual's own norm.  Only a floor below tol runs the kernel, as a
floor at or above tol proves the residual is too, so every exit is the kernel's.
_residuals alone says where the residual exists, p <= r < inf; each consumer follows it.

All analyses are read-only; degenerate inputs produce flags in the reports
rather than exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FquantError
from .path_space import PathSample, _to_json
from .quantize_core import Codebook, VoronoiAssignment, _row_chunks, assign, distortion

_DOMAIN = "stationarity condition needs p <= r < inf, got r={r}, p={p}"


@dataclass(frozen=True)
class StationarityReport:
    """First-order-condition residuals plus the admissibility picture.

    residuals[i, j] is the weighted grid L^q norm (q conjugate to p; sup norm
    for p = 1) of the empirical mean of the stationarity integrand for atom i,
    coordinate j.  A stationary codebook has all residuals at zero.
    """

    residuals: np.ndarray       # (n, d)
    max_residual: float
    cell_masses: np.ndarray     # (n,)
    tie_mass: float
    atom_hit_mass: np.ndarray   # (n,) empirical P(X = a_i)
    admissible: bool
    r: float

    def to_json(self) -> str:
        return _to_json(vars(self))


def _phi(diff: np.ndarray, p: float) -> np.ndarray:
    """phi(a - x) = |a - x|^(p-1) sign(a - x), in place over diff = a - x."""
    if p == 1.0:
        np.sign(diff, out=diff)
    elif p < 2.0:
        np.copysign(np.abs(diff) ** (p - 1.0), diff, out=diff)
    elif p > 2.0:  # as d |d|^(p-2): no sign pass, and at p = 3 no power pass
        diff *= np.abs(diff) if p == 3.0 else np.abs(diff) ** (p - 2.0)
    return diff


def _path_weights(best: np.ndarray, p: float, r: float) -> tuple:
    """(paths, weights): the paths off their atom and their weights ||x - a_i||^(r-p).  A path
    on its atom weighs 0 and is left out: 0 ** (r - p) is inf for r < p."""
    hit = np.flatnonzero(best > 0.0)
    return hit, 1.0 if r == p else best[hit] ** (r - p)


def _integrand_means(vor: VoronoiAssignment, r: float) -> np.ndarray:
    """(n, d, m) integrand means M_i of stationarity_residual, by the module docstring's kernel."""
    codebook = vor.codebook
    p, n, N = codebook.space.p, codebook.n, len(vor.sample)
    xf = vor.sample.values.reshape(N, -1)
    af = codebook.values.reshape(n, -1)
    out = np.zeros_like(af)
    for rows in _row_chunks(N, 3 * af.shape[1] + n):
        cells = vor.cell_index[rows]
        phi = af[cells]
        phi -= xf[rows]
        hit, weights = _path_weights(vor.best[rows], p, r)
        onehot = np.zeros((n, len(cells)))
        onehot[cells[hit], hit] = weights
        out += onehot @ _phi(phi, p)
    return (out / N).reshape(codebook.values.shape)


def stationarity_residual(codebook: Codebook, sample: PathSample, r: float) -> StationarityReport:
    """Residuals of the coordinatewise first-order conditions at the codebook.

    For atom i and coordinate j the empirical integrand mean over the sample is

        M_ij(t_k) = (1/N) sum_{x in cell i}
                    ||x - a_i||_p^(r-p) |a_ij(t_k) - x_j(t_k)|^(p-1)
                    sign(a_ij(t_k) - x_j(t_k))

    (paths coinciding with the atom drop out through the zero-weight
    convention), and residuals[i, j] is its weighted grid L^q norm.  Requires
    r >= p; for p = 1 the sign kernel is used directly and the residual norm
    is the sup over grid nodes.  The codebook is admissible when every cell has
    mass and the tie mass is at most 1e-3.
    """
    stat = _stationarity_from(assign(codebook, sample), r)
    if stat is None:
        raise FquantError(_DOMAIN.format(r=r, p=codebook.space.p))
    return stat


def _residuals(vor: VoronoiAssignment, r: float, means=None) -> np.ndarray | None:
    """(n, d) weighted grid L^q norms of means(vor, r), by default (_integrand_means) the
    residuals of stationarity_residual, from the codebook's distance pass; None where r < p.
    The one place that says where the residual exists."""
    space = vor.codebook.space
    p = space.p
    if not r < np.inf:
        raise FquantError(_DOMAIN.format(r=r, p=p))
    if r < p:
        return None
    means = (means or _integrand_means)(vor, r)
    if p == 1.0:
        return np.abs(means).max(axis=2)
    q = p / (p - 1.0)
    return ((np.abs(means) ** q) @ space.weights) ** (1.0 / q)


def _node_floor_means(vor: VoronoiAssignment, r: float) -> np.ndarray:
    """(n, d, m): at the middle grid node, a lower bound of each |_integrand_means| entry that
    no rounding of the kernel crosses; 0 at every other node.

    Per cell and coordinate, S sums the node's terms w_x phi(a - x) and A their absolute values,
    each by one bincount over the cells.  S and the kernel's sum (its products, additions and
    chunks) each lie within (N + 4) eps A, plus (N + 4) underflows, of the terms' exact sum.  So
    (|S| - 2 gamma A - 4 (N + 4) 2^-1074)_+ with gamma = 8 (N + 4) eps is at most the kernel's
    |sum|; the 8 leaves room for phi's powers to round apart.
    """
    codebook, sample, p = vor.codebook, vor.sample, vor.codebook.space.p
    (n, d, m), N = codebook.values.shape, len(sample)
    k = m // 2
    hit, weights = _path_weights(vor.best, p, r)
    cells = vor.cell_index[hit]
    phi = codebook.values[:, :, k][cells]
    phi -= sample.values[:, :, k][hit]
    _phi(phi, p)
    index = (cells[:, None] * d + np.arange(d)).ravel()
    gamma = 8.0 * (N + 4) * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan leaves it to the kernel
        terms = (phi * np.reshape(weights, (-1, 1))).ravel()
        sums = np.bincount(index, terms, n * d)
        bound = (np.abs(sums) - 2.0 * gamma * np.bincount(index, np.abs(terms), n * d)
                 - 4.0 * (N + 4) * np.finfo(float).smallest_subnormal)
    out = np.zeros((n, d, m))
    out[:, :, k] = np.maximum(bound, 0.0).reshape(n, d) / N
    return out


def _residual_floor(vor: VoronoiAssignment, r: float) -> float | None:
    """A lower bound of the max residual of stationarity_residual, from the middle grid node
    alone (Brownian, OU and fBM paths all sit at 0 at t = 0, bridges also at T); None where
    r < p.  It is _residuals' own norm of _node_floor_means, less 1e-12 of it; that norm rounds
    monotonically, so a floor at or above tol proves the kernel's max residual is too."""
    floors = _residuals(vor, r, _node_floor_means)
    return None if floors is None else float(floors.max()) * (1.0 - 1e-12)


def pass_scores(codebook: Codebook, sample: PathSample, r: float, tol: float) -> tuple:
    """(pass, distortion value, whether the max residual is below tol, False where r < p) from
    one pass, without reports.  The floor decides first; the kernel runs where it is below tol."""
    vor = assign(codebook, sample)
    floor = _residual_floor(vor, r)
    below = floor is not None and not floor >= tol and bool(_residuals(vor, r).max() < tol)
    return vor, vor.distortion_value(r), below


def _stationarity_from(vor: VoronoiAssignment, r: float) -> StationarityReport | None:
    """stationarity_residual from the codebook's distance pass; None where r < p."""
    residuals = _residuals(vor, r)
    if residuals is None:
        return None
    cell_masses = vor.cell_masses()
    atom_hits = vor.cell_sums(vor.best == 0.0) / len(vor.dists)
    admissible = bool(np.all(cell_masses > 0) and vor.tie_mass <= 1e-3)
    return StationarityReport(residuals=residuals, max_residual=float(residuals.max()),
                              cell_masses=cell_masses, tie_mass=vor.tie_mass,
                              atom_hit_mass=atom_hits, admissible=admissible, r=float(r))


@dataclass(frozen=True)
class MonotonicityReport:
    """quant_error against codebook size, with flags for suspicious non-decreases."""

    entries: list[tuple[int, float, float]]   # (n, error, stderr)
    flagged: list[tuple[int, int]]            # consecutive size pairs violating decrease


def monotonicity_check(codebooks: list[Codebook], sample: PathSample,
                       r: float) -> MonotonicityReport:
    """Error-vs-size table; flags size pairs whose decrease is not clear at 2 sigma.

    A pair (n1, n2) is flagged when error(n2) >= error(n1) - 2 * combined
    standard error, i.e. when the expected strict decrease is absent or within
    Monte Carlo noise.
    """
    sizes = [cb.n for cb in codebooks]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise FquantError(f"codebook sizes must be strictly increasing, got {sizes}")
    entries = []
    for cb in codebooks:
        err, se = distortion(cb, sample, r).error_with_stderr()
        entries.append((cb.n, err, se))
    flagged = []
    for (n1, e1, s1), (n2, e2, s2) in zip(entries, entries[1:]):
        slack = 2.0 * float(np.hypot(s1, s2))
        if e2 >= e1 - slack:
            flagged.append((n1, n2))
    return MonotonicityReport(entries=entries, flagged=flagged)


@dataclass(frozen=True)
class HolderFit:
    """Per-atom, per-coordinate roughness exponents from log-log regression
    of max increment against lag."""

    beta: np.ndarray            # (n, d); +inf flags constant atoms
    intercept: np.ndarray       # (n, d)
    r_squared: np.ndarray       # (n, d)
    lag_range: tuple[float, float]
    lags: np.ndarray            # (L,) lag durations
    max_increments: np.ndarray  # (n, d, L)

    def to_json(self) -> str:  # the fit alone: lags and increments go to to_csv
        return _to_json({k: getattr(self, k) for k in ("beta", "intercept", "r_squared",
                                                      "lag_range")})

    def to_csv(self) -> str:
        lines = ["atom,coord,lag,max_increment"]
        n, d, L = self.max_increments.shape
        for i in range(n):
            for j in range(d):
                for k in range(L):
                    lines.append(f"{i},{j},{self.lags[k]!r},{self.max_increments[i, j, k]!r}")
        return "\n".join(lines) + "\n"


def holder_fit(codebook: Codebook, lag_range: tuple[float, float] | None = None) -> HolderFit:
    """Fit max_k |a(t_{k+l}) - a(t_k)| ~ C * lag^beta on log axes, per atom.

    Uses the max over window starts since the regularity statement is uniform
    in t, over up to 10 geometrically spaced lags.  Needs a uniform grid of at
    least 64 nodes; the default lag window is [dt, span/8] and any requested
    window must stay within [dt, span/4].
    """
    space = codebook.space
    m = space.m
    if m < 64:
        raise FquantError(f"holder_fit needs a grid of >= 64 nodes, got {m}")
    steps = np.diff(space.grid)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise FquantError("holder_fit requires a uniform grid")
    span = space.span
    if lag_range is None:
        lag_range = (dt, span / 8.0)
    lo, hi = float(lag_range[0]), float(lag_range[1])
    if lo < dt * (1 - 1e-12) or hi > span / 4.0 * (1 + 1e-12) or hi <= lo:
        raise FquantError(f"lag range {lag_range} must sit inside [{dt}, {span / 4.0}]")
    lo_idx = max(1, int(np.ceil(lo / dt - 1e-9)))
    hi_idx = max(lo_idx + 1, int(np.floor(hi / dt + 1e-9)))
    lag_idx = np.unique(np.round(np.geomspace(lo_idx, hi_idx, 10)).astype(int))
    lags = lag_idx * dt

    n, d = codebook.n, space.d
    incs = np.empty((n, d, lag_idx.size))
    for k, L in enumerate(lag_idx):
        a = codebook.values
        incs[:, :, k] = np.abs(a[:, :, L:] - a[:, :, :-L]).max(axis=2)

    beta = np.full((n, d), np.inf)
    intercept = np.full((n, d), -np.inf)
    r_squared = np.zeros((n, d))
    log_l = np.log(lags)
    for i in range(n):
        for j in range(d):
            y = incs[i, j]
            if np.any(y <= 0.0):
                continue  # constant atom on some window: flagged as +inf
            log_y = np.log(y)
            slope, icept = np.polyfit(log_l, log_y, 1)
            pred = slope * log_l + icept
            ss_res = float(((log_y - pred) ** 2).sum())
            ss_tot = float(((log_y - log_y.mean()) ** 2).sum())
            beta[i, j] = slope
            intercept[i, j] = icept
            r_squared[i, j] = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return HolderFit(beta=beta, intercept=intercept, r_squared=r_squared,
                     lag_range=(lo, hi), lags=lags, max_increments=incs)


def boundary_pinning(codebook: Codebook, pin_spec: tuple) -> float:
    """Max deviation |a_i(t_k) - x_j| over atoms, pinned nodes and coordinates."""
    nodes, x = pin_spec
    nodes = np.atleast_1d(np.asarray(nodes, dtype=int))
    m = codebook.space.m
    if np.any(nodes < -m) or np.any(nodes >= m):
        raise FquantError(f"pin nodes {nodes} outside grid of {m} nodes")
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size == 1:
        x = np.full(codebook.space.d, x[0])
    dev = np.abs(codebook.values[:, :, nodes] - x[None, :, None])
    return float(dev.max())
