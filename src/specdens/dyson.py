"""Numerical solvers for the self-consistent density equations.

For a symmetric, entrywise non-negative variance profile ``S`` the system

    1 / v_i  =  eta + (S v)_i ,        v_i > 0,   eta > 0,

has a unique positive solution ``v(eta)``, and ``m(i eta) = i v(eta)``
extends to the holomorphic solution of

    -1 / m_i  =  z + (S m)_i ,         Im m_i > 0,   Im z > 0,

whose averaged imaginary part ``Im <m> / pi`` is the density of states of
the random-matrix ensemble with variance profile ``S``.  This module

* solves both systems (damped fixed point with a scale-free Newton
  acceleration and continuation in ``eta`` resp. ``Im z``),
* evaluates the density along a grid of real energies,
* measures the small-``eta`` power laws of the per-block averages of ``v``,
* builds the rescaled zero-energy data: the block coefficient matrices of
  the rescaled profile, the exactly rational growth rates of its
  first-order term, the limiting weight vector obtained by extrapolation,
  and the constraint residuals that certify the weights, and
* estimates the point mass at zero for profiles without support.

The functions that need the exact classification read it from
:func:`~specdens.minmax.analyze` and also take its result in place of a
profile.

Throughout, averages are normalized: ``<x>`` is the arithmetic mean over
the indices involved, and block inner products carry a ``1/dim`` factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve

from .errors import (
    HasSupportError,
    ImaginarySignLostError,
    NonConvergenceError,
    NoSupportError,
    SelfCheckError,
    ZeroRowError,
    _count,
    _real,
)
from .minmax import Analysis, IndexExponents, analyze
from .normal_form import BlockRelation, NormalForm, as_profile, pattern_of
from .patterns import ZeroPattern, fid_skeleton

__all__ = [
    "AxisSolution",
    "PlaneSolution",
    "DensityCurve",
    "ScalingFit",
    "RescaledData",
    "RescaledResiduals",
    "AtomMass",
    "solve_imaginary_axis",
    "solve_upper_half_plane",
    "density_profile",
    "empirical_exponents",
    "rescaled_profile",
    "limit_weights",
    "rescaled_residuals",
    "atom_mass_estimate",
]


# --- results --------------------------------------------------------------------


@dataclass(frozen=True)
class AxisSolution:
    """Positive solution of ``1/v = eta + S v`` at one point ``eta > 0``.

    ``residual`` is the max-norm defect of the product form
    ``v * (eta + S v) - 1`` (identical zero set as the stated equation for
    positive ``v``, but free of the catastrophic cancellation that the
    reciprocal form suffers when ``v`` spans many orders of magnitude)."""

    eta: float
    v: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class PlaneSolution:
    """Upper-half-plane solution of ``-1/m = z + S m`` at one ``z``.

    ``residual`` is the max-norm of ``m * (z + S m) + 1``."""

    z: complex
    m: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class DensityCurve:
    """Density of states sampled along real energies ``tau``.

    ``rho[j]`` is ``Im <m(tau[j] + i epsilon)> / pi``; the small
    ``epsilon > 0`` regularizes points inside the spectrum."""

    tau: np.ndarray
    rho: np.ndarray
    epsilon: float


@dataclass(frozen=True, eq=False)
class ScalingFit:
    """Power-law fit of the per-block averages of ``v`` on an ``eta`` grid.

    ``block_averages[p, b]`` is the mean of ``v(eta[p])`` over the indices
    of block ``b`` of the normal form.  ``fitted_slopes[b]`` is the least
    squares slope of ``log`` average versus ``log eta``; the prediction is
    ``-f_b`` where ``f`` are the exact block exponents
    (``v_i(eta) ~ eta**(-f_i)``)."""

    eta: np.ndarray
    block_averages: np.ndarray
    fitted_slopes: tuple[float, ...]
    predicted_slopes: tuple[float, ...]
    exponents: IndexExponents
    nf: NormalForm
    max_deviation: float


@dataclass(frozen=True, eq=False)
class RescaledData:
    """Block data of the rescaled profile, in normal-form (permuted) order.

    After rescaling with the block exponents ``f`` and the variable
    ``omega = eta**(1/Q)``, the profile splits as

        S(omega) = s0 + diag(omega**(Q h)) @ s1 + higher order,

    where ``s0`` keeps exactly the anti-diagonal pair blocks (equivalently:
    the entries of the permuted profile lying on positive diagonals), and
    ``s1`` keeps, for each block ``i``, the couplings to the partners of
    its slowest-growing direct successors (``succ_sets[i]``) in
    ``relation``.  The rational rates ``h_i > 0`` satisfy ``h_i =
    h_{partner(i)}`` exactly.

    ``w`` (when set by :func:`limit_weights`) approximates the positive
    limit of ``eta**f * v(eta)`` and satisfies ``w * (s0 @ w) = 1`` up to
    ``w_residual``."""

    nf: NormalForm
    exponents: IndexExponents
    relation: BlockRelation
    s0: np.ndarray
    s1: np.ndarray
    h: tuple[Fraction, ...]
    succ_sets: tuple[tuple[int, ...], ...]
    w: np.ndarray | None = None
    w_residual: float | None = None
    eta_pair: tuple[float, float] | None = None


@dataclass(frozen=True, eq=False)
class RescaledResiduals:
    """Zero-order constraint residuals of a limiting weight vector ``w``.

    ``f0_vector`` is ``w * (s0 @ w) - 1`` projected onto the orthogonal
    complement of the span of the pair-difference vectors
    ``1_{block l} - 1_{block partner(l)}``; ``fl_values[l]`` (one per
    anti-diagonal pair) is the scalar first-order constraint that fixes the
    remaining degrees of freedom along those directions.  All must vanish
    at the true limit."""

    f0_vector: np.ndarray
    f0_residual: float
    fl_values: tuple[float, ...]
    fl_residual: float


@dataclass(frozen=True, eq=False)
class AtomMass:
    """Mass of the point spectrum at zero for a profile without support.

    ``kappa_exact`` is the combinatorial value (|I| + |J| - K) / K of a
    maximal all-zero submatrix; ``kappa_numeric`` is ``eta * <v(eta)>`` at
    the smallest grid point, which converges to the same value."""

    kappa_exact: Fraction
    kappa_numeric: float
    eta_grid: tuple[float, ...]
    estimates: tuple[float, ...]


# --- shared validation ----------------------------------------------------------


def _solver_system(s) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Validated dense profile matrix ``a`` with its identical rows merged
    and its max row sum, ``(a, r, cls, row_max)`` (see :func:`_lumped` and
    :func:`_assert_axis_bounds`); rejects rows with no non-zero entry (the
    corresponding component would equal 1/eta identically and the density
    would not be a function)."""
    a = as_profile(s).entries
    zero_rows = np.flatnonzero(~(a != 0).any(axis=1))
    if zero_rows.size:
        raise ZeroRowError(f"profile row {zero_rows[0]} is identically zero")
    return (a, *_lumped(a), float(a.sum(axis=1).max()))


def _lumped(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge the indices whose rows of ``a`` are identical, byte for byte.

    Returns ``(r, cls)``: ``cls[i]`` is the class of index ``i``, classes
    numbered by first occurrence, and ``r[I, J]`` is the sum of ``a[i, j]``
    over the ``j`` in class ``J`` for any ``i`` in class ``I``.  Identical
    rows give identical right-hand sides, so ``x`` solves the equation on
    ``r`` exactly when ``x[cls]`` solves it on ``a``.  Without repeated rows
    ``r`` is ``a`` itself.  ``a`` is C-ordered, as a profile stores it."""
    k = a.shape[0]
    rows = a.view(np.dtype((np.void, a.itemsize * k)))
    _, first, inverse = np.unique(rows[:, 0], return_index=True, return_inverse=True)
    if first.size == k:
        return a, np.arange(k)
    order = np.argsort(first)
    cls = np.argsort(order)[inverse]
    r = np.zeros((first.size, first.size))
    np.add.at(r.T, cls, a[first[order]].T)
    return r, cls


class _Budget:
    """Shared iteration countdown across continuation stages."""

    def __init__(self, limit: int):
        self.left = int(limit)
        self.used = 0

    def spend(self, n: int = 1) -> None:
        self.left -= n
        self.used += n

    @property
    def exhausted(self) -> bool:
        return self.left <= 0


# --- shared stage driver --------------------------------------------------------
#
# Both solvers drive x * (z + S x) = c to tolerance: on the imaginary axis
# x = v > 0, z = eta and c = 1; in the upper half-plane x = m with Im m > 0
# and c = -1.  On the axis the plane equation holds with z = i eta, m = i v.
#
# Each public function that runs the kernel enters one errstate that
# silences numpy's floating-point warnings, as np.linalg.solve does around
# the gufunc: a non-finite value is caught by the kernel itself (a Newton
# step must be finite, a residual must compare <= tol).
#
# Each iteration runs as few numpy calls as the arithmetic allows, since on
# small K their dispatch is the whole cost.  The residual of an iterate
# also returns u = z + S x and x * u, which the next Newton or damped step
# reuses: one matvec and one product per iterate.  In the plane the sweep
# casts the real profile to complex once (see _sweep).  Norms and sign
# tests call the reducing ufuncs directly.


def _residual(a, z, c: float, x: np.ndarray):
    """Max-norm of x * (z + S x) - c, with u = z + S x and x * u, which
    the next step reuses.  A NaN entry makes the norm NaN."""
    u = z + a @ x
    xu = x * u
    return float(np.maximum.reduce(np.abs(xu - c))), u, xu


def _feasible(c, x):
    """x lies in the solution domain: v > 0 on the axis (c > 0), Im m > 0
    in the plane; false when an entry is NaN."""
    return np.minimum.reduce(x if c > 0 else x.imag) > 0


def _finite(x):
    """No entry of x is infinite or NaN."""
    return np.logical_and.reduce(np.isfinite(x))


def _newton_step(a, z, c, x, u, xu):
    """One Newton step in multiplicative coordinates, from x with u = z + S x
    and xu = x * u.

    Solves (diag(x*u) + diag(x) S diag(x)) y = -(x*u - c) and
    updates x <- x * (1 + t y), halving t only until the trial stays
    feasible; the column scaling by diag(x) keeps the linear system well
    conditioned even when x spans many orders of magnitude.  The step is
    deliberately not forced to decrease the residual: close to the
    zero-energy singularity the Jacobian is nearly singular along the
    pair-scaling direction and the residual rises sharply for one step
    before quadratic contraction sets in; a monotone line search would
    crawl.  Divergence is contained by the caller's watchdog.  Returns
    (x, res, u, xu) of the first trial in the solution domain (v > 0 on
    the axis, Im m > 0 in the plane), or None when y is not finite, also
    when the Jacobian is singular: the LAPACK gufunc behind
    ``np.linalg.solve`` then returns NaN where the wrapper would raise (the
    caller silences the flag).  The full step is tried before y is
    scanned: a feasible trial with a finite residual is finite and has no
    zero entry, so y = trial / x - 1 is finite too.

    diag(x*u) is added in place to the diagonal, every (K+1)-th entry of
    the product.  Unlike the sum with diag(x*u) this leaves the sign of an
    off-diagonal zero, and ``c - xu`` may differ from ``-(xu - c)`` in the
    sign of a zero; the solve turns either into zeros that 1 + t y
    absorbs.  The product (x a) x stays out of place: in place, numpy's
    complex multiply can take a loop that rounds differently when K = 1."""
    jac = (x[:, None] * a) * x[None, :]
    jac.ravel("K")[:: x.size + 1] += xu
    y = _solve(jac, c - xu)
    trial = x * (1.0 + y)
    if _feasible(c, trial):
        stepped = _residual(a, z, c, trial)
        if stepped[0] < math.inf or _finite(y):
            return (trial, *stepped)
        return None
    if not _finite(y):
        return None
    t = 1.0
    for _ in range(59):
        t *= 0.5
        trial = x * (1.0 + t * y)
        if _feasible(c, trial):
            return (trial, *_residual(a, z, c, trial))
    return None


def _damped_step(a, z, c, x, u, res, theta):
    """One damped fixed-point sweep x <- (1-theta) x + theta * c / u, with
    u = z + S x, halving theta until the residual does not increase.  The
    candidate is feasible whenever x is, so the convex combination stays
    feasible for every theta in (0, 1] in exact arithmetic.  Returns
    (x, res, u, xu, theta); theta is re-expanded slowly on success."""
    cand = c / u
    while True:
        trial = (1.0 - theta) * x + theta * cand
        r, u, xu = _residual(a, z, c, trial)
        if r <= res or theta <= 1e-8:
            break
        theta *= 0.5
    return trial, r, u, xu, min(1.0, theta * 1.25)


_WATCHDOG = 20


def _stage(a, z, c, x, tol, budget: _Budget, give_up: bool = False):
    """Drive x to tolerance at fixed z and return it.

    Newton steps are accepted without a monotonicity requirement, and a
    damped sweep stands in for a Newton step that fails.  A watchdog tracks
    the best iterate seen and, after _WATCHDOG consecutive steps without a
    10 percent improvement on it, reverts to the best iterate and takes
    monotone damped sweeps until one improves on it by 10 percent.  With
    ``give_up`` the stage raises NonConvergenceError instead, when the
    watchdog fires."""
    point = "eta" if c > 0 else "z"
    res, u, xu = _residual(a, z, c, x)
    theta = 1.0
    best_x, best_res, best_u, best_xu = x, res, u, xu
    stale = 0
    while not res <= tol:  # a NaN residual is no convergence
        if budget.exhausted:
            raise NonConvergenceError(
                f"no convergence at {point}={z:g}: residual {res:.3e} > {tol:g} "
                f"after {budget.used} iterations",
                residual=res,
            )
        stepped = None
        if stale < _WATCHDOG:
            stepped = _newton_step(a, z, c, x, u, xu)
        if stepped is None:
            x, res, u, xu, theta = _damped_step(a, z, c, x, u, res, theta)
            # feasible in exact arithmetic; only the plane solver reports an
            # Im m that rounding pushed onto zero (a Newton trial is checked)
            if c < 0 and not _feasible(c, x):
                raise ImaginarySignLostError(
                    f"iterate left the upper half-plane at z={z:g}"
                )
        else:
            x, res, u, xu = stepped
        budget.spend()
        if res < best_res * 0.9:
            best_x, best_res, best_u, best_xu, stale = x, res, u, xu, 0
        else:
            stale += 1
            if stale == _WATCHDOG:
                if give_up:
                    raise NonConvergenceError(
                        f"stalled at {point}={z:g}: residual {best_res:.3e} > "
                        f"{tol:g} after {budget.used} iterations",
                        residual=best_res,
                    )
                x, res, u, xu = best_x, best_res, best_u, best_xu
    return x


# --- solvers on the imaginary axis and in the upper half-plane -------------------


def _continuation_path(target: float) -> list[float]:
    """Geometric path from max(target, 1) down to target (inclusive)."""
    path = [max(target, 1.0)]
    while path[-1] > target * 1.0000001:
        path.append(max(target, path[-1] * 0.5))
    return path


class _Predictor:
    """Starts of the solves along one sweep or continuation path.

    Away from the real-axis singularities the solution is smooth in the
    point, so each solve starts from the quadratic Lagrange extrapolation
    through the last three solutions of its path (a predictor-corrector
    continuation): of log v against log eta on the axis (c > 0), so the
    start is positive by construction, and of m against z in the plane.
    The start is the last solution instead when fewer than three distinct
    points precede, or when the prediction is not finite or (in the
    plane) has Im m <= 0; it is ``first`` before any solution."""

    def __init__(self, c: float, first=None):
        self.c, self.first = c, first
        self.last = []  # (node, value, solution) of the last three solves

    def add(self, z, y) -> None:
        node = (math.log(z), np.log(y)) if self.c > 0 else (z, y)
        self.last = [*self.last[-2:], (*node, y)]

    def start(self, z):
        if len(self.last) < 3:
            return self.last[-1][2] if self.last else self.first
        (t0, q0, _), (t1, q1, _), (t2, q2, y) = self.last
        d0, d1, d2 = (t0 - t1) * (t0 - t2), (t1 - t0) * (t1 - t2), (t2 - t0) * (t2 - t1)
        if not (d0 and d1 and d2):  # two of the three points coincide
            return y
        t = math.log(z) if self.c > 0 else z
        pred = (
            (t - t1) * (t - t2) / d0 * q0
            + (t - t0) * (t - t2) / d1 * q1
            + (t - t0) * (t - t1) / d2 * q2
        )
        if self.c > 0:
            pred = np.exp(pred)
        return pred if _feasible(self.c, pred) and _finite(pred) else y


def _solve_merged(r, z, c, tol, max_iter, y=None):
    """Solution of x * (z + r x) = c on the merged profile ``r`` (complex in
    the plane) and the iterations it took.

    This is the one warm-start rule of the sweeps.  ``y``, the start that
    the previous points of the sweep predict (see :class:`_Predictor`),
    starts one stage at ``z`` that gives up when the watchdog fires.
    Without ``y``, or when that stage gives up, the cold continuation runs
    (:func:`_cold_axis`, :func:`_cold_plane`).  Both draw on one budget of
    ``max_iter`` iterations."""
    budget = _Budget(max_iter)
    if y is not None:
        try:
            return _stage(r, z, c, y, tol, budget, give_up=True), budget.used
        except NonConvergenceError:
            pass
    cold = _cold_axis if c > 0 else _cold_plane
    return cold(r, z, tol, budget), budget.used


def _sweep(s, points, tol, max_iter=100_000):
    """Solve at each of ``points`` in turn and yield the full solution with
    its iteration count: ``v(eta)`` at real points, ``m(z)`` at complex
    ones (the caller checks the points).

    Every solve of the module runs here.  The sweep checks the controls,
    solves on the merged profile of :func:`_solver_system` (in the plane
    cast once to the C-ordered complex copy that matmul and the Jacobian
    would make on every use, so the same bits), starts each point from the
    extrapolation of the previous solutions (:class:`_Predictor`) by the
    rule of :func:`_solve_merged`, checks each axis solution against the a
    priori bounds and expands each solution through ``cls`` when rows were
    merged.  Otherwise it yields the solution that the next prediction
    reads, so callers do not write to it."""
    tol, max_iter = _real(tol, "tol", 0.0, strict=True), _count(max_iter, "max_iter")
    _, r, cls, row_max = _solver_system(s)
    merged = r.shape[0] < cls.size
    c = -1.0 if isinstance(points[0], complex) else 1.0
    if c < 0:
        r = np.ascontiguousarray(r, dtype=complex)
    path = _Predictor(c)
    for z in points:
        y, iterations = _solve_merged(r, z, c, tol, max_iter, path.start(z))
        path.add(z, y)
        if c > 0:
            _assert_axis_bounds(row_max, z, y, tol)
        yield (y[cls] if merged else y), iterations


@np.errstate(all="ignore")
def solve_imaginary_axis(
    s,
    eta: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 100_000,
) -> AxisSolution:
    """Solve ``1/v = eta + S v`` for the positive vector ``v`` at ``eta > 0``.

    Continuation descends from ``max(eta, 1)`` by halving ``eta``.  Indices
    with identical rows of ``S`` have identical entries of ``v``; they are
    merged before the solve and the result is expanded back.

    Parameters
    ----------
    s : matrix-like, VarianceProfile or Analysis
        Symmetric non-negative profile without identically zero rows.
    eta : float
        Strictly positive point on the imaginary axis.
    tol : float
        Convergence threshold for the product-form residual
        ``max |v * (eta + S v) - 1|``.
    max_iter : int
        Total iteration budget across all continuation stages.

    Raises
    ------
    ZeroRowError, NonConvergenceError, ValueError
    """
    eta, profile = _real(eta, "eta", 0.0, strict=True), as_profile(s)
    [(v, iterations)] = _sweep(profile, [eta], tol, max_iter)
    v.flags.writeable = False
    res = _residual(profile.entries, eta, 1.0, v)[0]
    return AxisSolution(eta=eta, v=v, residual=res, iterations=iterations)


def _cold_axis(r, eta, tol, budget):
    """Continuation from eta_0 = max(eta, 1) down to eta, starting from
    1 / (eta_0 + row sums / eta_0); each later stage starts from the
    prediction of the previous ones (:class:`_Predictor`)."""
    path = _continuation_path(eta)
    stages = _Predictor(1.0, first=1.0 / (path[0] + r.sum(axis=1) / path[0]))
    for stage_eta in path:
        stage_tol = tol if stage_eta == eta else max(tol, 1e-10)
        y = _stage(r, stage_eta, 1.0, stages.start(stage_eta), stage_tol, budget)
        stages.add(stage_eta, y)
    return y


def _assert_axis_bounds(row_max, eta, v, tol):
    """A priori bounds: the solution (merged or not: the values are the
    same) satisfies v <= 1/eta and v >= min(eta, 1/eta) / (1 + row_max),
    row_max the max row sum of the profile; violation beyond numerical
    slack indicates an internal solver defect."""
    slack = 1.0 + 1e-9 + 10.0 * tol
    upper = 1.0 / eta
    lower = min(eta, upper) / (1.0 + row_max)
    if np.maximum.reduce(v) > upper * slack or np.minimum.reduce(v) < lower / slack:
        raise SelfCheckError(
            "solver result violates the a priori bounds "
            f"[{lower:.3e}, {upper:.3e}] at eta={eta:g}"
        )


@np.errstate(all="ignore")
def solve_upper_half_plane(
    s,
    z: complex,
    *,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> PlaneSolution:
    """Solve ``-1/m = z + S m`` with ``Im m > 0`` at ``z`` with ``Im z > 0``.

    Continuation descends from ``Re z + i max(Im z, 1)`` by halving the
    imaginary part.  On the imaginary axis the solution equals ``i v(eta)``
    with ``v`` from :func:`solve_imaginary_axis`.  As there, indices with
    identical rows are merged.

    Raises
    ------
    ZeroRowError, NonConvergenceError, ImaginarySignLostError, ValueError
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag) and z.imag > 0):
        raise ValueError("z must lie in the open upper half-plane")
    profile = as_profile(s)
    [(m, iterations)] = _sweep(profile, [z], tol, max_iter)
    m.flags.writeable = False
    res = _residual(profile.entries, z, -1.0, m)[0]
    return PlaneSolution(z=z, m=m, residual=res, iterations=iterations)


def _cold_plane(r, z, tol, budget):
    """Continuation from z_0 = Re z + i max(Im z, 1) down to z, starting
    from -1 / z_0; see :func:`_cold_axis`."""
    ims = _continuation_path(z.imag)
    path = [complex(z.real, im) for im in ims]
    y = np.full(r.shape[0], -1.0 / path[0], dtype=complex)
    # Im(-1/z_0) = Im z_0 / |z_0|^2 underflows to 0 when |Re z| is huge
    # (at Im z_0 = 1 from about 1e162 on); the start is then i
    if not (y.imag > 0).all():
        y = np.full(r.shape[0], 1j, dtype=complex)
    stages = _Predictor(-1.0, first=y)
    for stage_z in path:
        stage_tol = tol if stage_z == z else max(tol, 1e-9)
        y = _stage(r, stage_z, -1.0, stages.start(stage_z), stage_tol, budget)
        stages.add(stage_z, y)
    return y


# --- density of states -----------------------------------------------------------


@np.errstate(all="ignore")
def density_profile(
    s,
    tau_grid,
    *,
    epsilon: float,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> DensityCurve:
    """Density of states ``rho(tau) = Im <m(tau + i epsilon)> / pi`` along a
    grid of real energies.  Each point starts from the quadratic
    extrapolation through the solutions at the three points before it (from
    the previous solution while fewer than three distinct points precede).
    A warm start is abandoned for a cold solve (continuation from
    ``Im z = 1``) as soon as it stalls.

    ``epsilon > 0`` controls the regularization; the curve converges to the
    true density as ``epsilon`` decreases (at a rate set by the local
    regularity).  The result is strictly positive since ``Im m > 0``.
    """
    epsilon = _real(epsilon, "epsilon", 0.0, strict=True)
    taus = np.array(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size == 0 or not np.isfinite(taus).all():
        raise ValueError("tau_grid must be a non-empty 1-D array of finite values")
    sweep = _sweep(s, [complex(tau, epsilon) for tau in taus], tol, max_iter)
    # sum / K is np.mean's arithmetic
    rho = np.array([m.imag.sum() / m.size / math.pi for m, _ in sweep])
    taus.flags.writeable = False
    rho.flags.writeable = False
    return DensityCurve(tau=taus, rho=rho, epsilon=epsilon)


# --- empirical power laws ---------------------------------------------------------


def _supported(s) -> Analysis:
    """:func:`analyze` of ``s``; NoSupportError without a positive diagonal."""
    an = analyze(s)
    if an.nf is None:
        raise NoSupportError("pattern has no positive diagonal")
    return an


def _geometric_grid(eta_max: float, eta_min: float, points_per_decade: int):
    eta_min = _real(eta_min, "eta_min", 0.0, strict=True)
    eta_max = _real(eta_max, "eta_max", 0.0, strict=True)
    if not eta_min < eta_max:
        raise ValueError("need 0 < eta_min < eta_max < inf")
    points_per_decade = _count(points_per_decade, "points_per_decade")
    decades = math.log10(eta_max / eta_min)
    n = max(2, int(round(decades * points_per_decade)) + 1)
    return np.geomspace(eta_max, eta_min, n)


@np.errstate(all="ignore")
def empirical_exponents(
    s,
    *,
    eta_min: float = 1e-10,
    eta_max: float = 1e-4,
    points_per_decade: int = 4,
    tol: float = 1e-12,
) -> ScalingFit:
    """Fit the small-``eta`` power laws of the per-block averages of ``v``.

    Solves the axis equation on a descending geometric grid (each point
    starts from the extrapolation of the previous solutions),
    averages ``v`` over each block of the normal form, and fits the slope
    of ``log`` average against ``log eta`` per block.  The prediction is
    ``-f_b`` with ``f`` the exact block exponents; ``max_deviation`` is the
    largest absolute gap between fitted and predicted slopes.  The fit
    converges only logarithmically in ``eta``, so wide grids (several
    decades) are required for tight comparisons."""
    an = _supported(s)
    nf, ex = an.nf, an.exponents
    etas = _geometric_grid(eta_max, eta_min, points_per_decade)
    blocks = [[nf.perm[i] for i in nf.block_indices(b)] for b in range(nf.n_blocks)]
    sweep = _sweep(an, etas.tolist(), tol)
    avgs = np.array([[v[block].mean() for block in blocks] for v, _ in sweep])
    log_eta = np.log(etas)
    fitted = tuple(float(np.polyfit(log_eta, np.log(col), 1)[0]) for col in avgs.T)
    predicted = tuple(float(-f) for f in ex.f)
    dev = max(abs(a - b) for a, b in zip(fitted, predicted))
    etas.flags.writeable = False
    avgs.flags.writeable = False
    return ScalingFit(
        eta=etas,
        block_averages=avgs,
        fitted_slopes=fitted,
        predicted_slopes=predicted,
        exponents=ex,
        nf=nf,
        max_deviation=dev,
    )


# --- rescaled zero-energy data ----------------------------------------------------


def rescaled_profile(s) -> RescaledData:
    """Block coefficient matrices and rational rates of the rescaled profile.

    Requires a profile whose pattern has support (otherwise the density has
    an atom at zero and no rescaling limit; see :func:`atom_mass_estimate`).
    All arrays are in normal-form (permuted) order.  Internal consistency
    is verified exactly: the zero pattern of ``s0`` must coincide with the
    entries of the permuted profile lying on positive diagonals, the rates
    must satisfy both one-sided identities

        h_i = (min over successors j of f_j) - f_i
            = f_i - (max over predecessors j of f_j)

    (with the conventions min over the empty set = 1, max = -1), and
    ``h_i = h_{partner(i)}``."""
    an = _supported(s)
    nf, rel, ex = an.nf, an.relation, an.exponents
    n = nf.n_blocks
    partner = [nf.partner(i) for i in range(n)]
    succs, preds = [[] for _ in range(n)], [[] for _ in range(n)]
    for i, j in sorted(rel.edges):  # one pass; every list ascends
        succs[i].append(j)
        preds[j].append(i)

    one = Fraction(1)
    h = []
    succ_sets = []
    for b in range(n):
        min_succ = min((ex.f[j] for j in succs[b]), default=one)
        max_pred = max((ex.f[j] for j in preds[b]), default=-one)
        hb = Fraction(1, 2) * (min_succ - max_pred)
        if hb != min_succ - ex.f[b] or hb != ex.f[b] - max_pred:
            raise SelfCheckError(
                f"rate identities fail at block {b}: h={hb}, f={ex.f[b]}"
            )
        if hb <= 0:
            raise SelfCheckError(f"non-positive rate h={hb} at block {b}")
        h.append(hb)
        succ_sets.append(
            tuple(j for j in succs[b] if ex.f[j] == min_succ) if succs[b] else ()
        )
    for b in range(n):
        if h[b] != h[partner[b]]:
            raise SelfCheckError(f"rates differ across the pair ({b}, {partner[b]})")

    entries, perm = an.profile.entries, np.array(nf.perm)
    k = perm.size
    s0 = np.zeros((k, k))
    s1 = np.zeros((k, k))
    for b in range(n):
        rows = nf.block_indices(b)
        cols = nf.block_indices(partner[b])
        s0[np.ix_(rows, cols)] = entries[np.ix_(perm[rows], perm[cols])]
        for j in succ_sets[b]:
            jcols = nf.block_indices(partner[j])
            s1[np.ix_(rows, jcols)] = entries[np.ix_(perm[rows], perm[jcols])]

    pos = perm.argsort()
    if ZeroPattern.from_matrix(s0[np.ix_(pos, pos)]) != fid_skeleton(pattern_of(an)):
        raise SelfCheckError(
            "pair blocks do not match the positive-diagonal entries"
        )
    s0.flags.writeable = False
    s1.flags.writeable = False
    return RescaledData(
        nf=nf,
        exponents=ex,
        relation=rel,
        s0=s0,
        s1=s1,
        h=tuple(h),
        succ_sets=tuple(succ_sets),
    )


@np.errstate(all="ignore")
def limit_weights(
    s,
    *,
    eta_pair: tuple[float, float] = (2e-12, 1e-12),
    tol: float = 1e-13,
) -> RescaledData:
    """Extrapolate the positive limit ``w = lim eta**f * v(eta)``.

    The rescaled solution is analytic in ``omega = eta**(1/Q)`` near zero,
    so a two-point linear extrapolation in ``omega`` from the pair of
    points ``eta_pair`` (descending) removes the leading correction; the
    remaining error is of order ``omega_1 * omega_2``.  Returns the
    :func:`rescaled_profile` data of ``s`` with ``w``, ``w_residual`` (the
    max-norm of ``w * (s0 @ w) - 1``) and ``eta_pair`` filled in."""
    an = analyze(s)
    data = rescaled_profile(an)
    pair = [_real(e, f"eta_pair[{i}]", 0.0, strict=True) for i, e in enumerate(eta_pair)]
    if not (len(pair) == 2 and pair[0] > pair[1]):
        raise ValueError("eta_pair must be two descending positive values")
    e1, e2 = pair
    # blocks are contiguous in the permuted order: one exponent per index
    f_idx = np.repeat([float(f) for f in data.exponents.f], data.nf.dims)
    q = data.exponents.Q

    perm = list(data.nf.perm)
    (v1, _), (v2, _) = _sweep(an, [e1, e2], tol)
    x1 = v1[perm] * e1**f_idx
    x2 = v2[perm] * e2**f_idx
    w1, w2 = e1 ** (1.0 / q), e2 ** (1.0 / q)
    w = x2 - w2 * (x1 - x2) / (w1 - w2)
    if not (w > 0).all():
        raise SelfCheckError(
            "extrapolated weights are not positive; use smaller eta_pair"
        )
    residual = float(np.max(np.abs(w * (data.s0 @ w) - 1.0)))
    w.flags.writeable = False
    return replace(data, w=w, w_residual=residual, eta_pair=(e1, e2))


def rescaled_residuals(data: RescaledData) -> RescaledResiduals:
    """Constraint residuals certifying the limiting weights ``data.w``.

    The limit equation ``w * (s0 @ w) = 1`` determines ``w`` only up to the
    pair-difference directions; the residual splits into the projected
    vector part (``f0_vector``) and one scalar per anti-diagonal pair.  For
    a pair ``(l, partner(l))`` whose block ``l`` has no predecessor the
    scalar is

        <w_l, (s1 w)_l> - <w_{partner(l)}> ,

    and otherwise

        <w_l, (s1 w)_l> - <w_{partner(l)}, (s1 w)_{partner(l)}> ,

    with block averages normalized by the block dimension."""
    if data.w is None:
        raise ValueError("data has no weights; call limit_weights first")
    nf = data.nf
    w = data.w
    k = w.size
    m_pairs = nf.M
    r = w * (data.s0 @ w) - 1.0
    for l in range(m_pairs):
        e = np.zeros(k)
        e[list(nf.block_indices(l))] = 1.0
        e[list(nf.block_indices(nf.partner(l)))] = -1.0
        r = r - (e @ r) / (e @ e) * e
    f0_res = float(np.max(np.abs(r))) if k else 0.0

    has_pred = {j for (_, j) in data.relation.edges}
    sw = data.s1 @ w
    fl = []
    for l in range(m_pairs):
        bl = list(nf.block_indices(l))
        blh = list(nf.block_indices(nf.partner(l)))
        term = float(np.mean(w[bl] * sw[bl]))
        if l not in has_pred:
            fl.append(term - float(np.mean(w[blh])))
        else:
            fl.append(term - float(np.mean(w[blh] * sw[blh])))
    r.flags.writeable = False
    return RescaledResiduals(
        f0_vector=r,
        f0_residual=f0_res,
        fl_values=tuple(fl),
        fl_residual=max((abs(x) for x in fl), default=0.0),
    )


# --- atom at zero -----------------------------------------------------------------


@np.errstate(all="ignore")
def atom_mass_estimate(
    s,
    *,
    eta_grid: tuple[float, ...] = (1e-4, 1e-6, 1e-8),
    tol: float = 1e-12,
) -> AtomMass:
    """Mass of the zero atom of the density for a profile without support.

    ``eta * <v(eta)>`` converges to the exact combinatorial mass
    (|I| + |J| - K) / K of a maximal all-zero submatrix; the numeric value
    is taken at the smallest point of the descending ``eta_grid``.  Raises
    HasSupportError when the pattern has support (no atom at zero)."""
    an = analyze(s)
    if an.nf is not None:
        raise HasSupportError(
            "profile pattern has support: the density has no atom at zero"
        )
    kappa = an.no_support.kappa
    etas = [_real(e, f"eta_grid[{i}]", 0.0, strict=True) for i, e in enumerate(eta_grid)]
    etas = tuple(sorted(etas, reverse=True))
    if not etas:
        raise ValueError("eta_grid must contain positive values")
    sweep = _sweep(an, etas, tol)
    estimates = tuple(eta * float(v.mean()) for eta, (v, _) in zip(etas, sweep))
    return AtomMass(
        kappa_exact=kappa,
        kappa_numeric=estimates[-1],
        eta_grid=etas,
        estimates=estimates,
    )
