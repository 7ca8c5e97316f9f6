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
  and the constraint residuals that certify the weights,
* estimates the point mass at zero for profiles without support, and
* computes density quantiles together with the predicted finite-size
  scaling slope of the smallest singular value.

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
    GridTooCoarseError,
    HasSupportError,
    ImaginarySignLostError,
    NonConvergenceError,
    NonPositiveInputError,
    NoSupportError,
    SelfCheckError,
    ZeroRowError,
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
    "QuantileFit",
    "solve_imaginary_axis",
    "solve_upper_half_plane",
    "density_profile",
    "variational_value",
    "empirical_exponents",
    "rescaled_profile",
    "limit_weights",
    "rescaled_residuals",
    "atom_mass_estimate",
    "quantile",
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


@dataclass(frozen=True)
class QuantileFit:
    """Location ``gamma`` of the ``1/n`` density quantile near zero and the
    predicted log-log slope ``-1/(1 - sigma)`` of the smallest singular
    value against the matrix dimension."""

    gamma: float
    predicted_slope: float
    mass_target: float


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
    ``r`` is ``a`` itself."""
    k = a.shape[0]
    rows = np.ascontiguousarray(a).view(np.dtype((np.void, a.itemsize * k)))
    _, first, inverse = np.unique(rows[:, 0], return_index=True, return_inverse=True)
    if first.size == k:
        return a, np.arange(k)
    order = np.argsort(first)
    cls = np.argsort(order)[inverse]
    r = np.zeros((first.size, first.size))
    np.add.at(r.T, cls, a[first[order]].T)
    return r, cls


def _class_mean(x: np.ndarray, cls: np.ndarray, n: int) -> np.ndarray:
    """Average of ``x`` over each of the ``n`` classes (``x`` itself when
    every class is one index)."""
    if n == cls.size:
        return x
    total = np.zeros(n, dtype=x.dtype)
    np.add.at(total, cls, x)
    return total / np.bincount(cls, minlength=n)


def _positive_vector(x, k: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (k,):
        raise ValueError(f"{name} must have shape ({k},)")
    if not ((v > 0) & np.isfinite(v)).all():
        raise NonPositiveInputError(f"{name} must be finite and strictly positive")
    return v.copy()


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


def _residual(a, z, c: float, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Max-norm of x * (z + S x) - c, and u = z + S x for the next step."""
    u = z + a @ x
    return float(np.abs(x * u - c).max()), u


def _newton_step(a, z, c, x, u):
    """One Newton step in multiplicative coordinates, from x with u = z + S x.

    Solves (diag(x*u) + diag(x) S diag(x)) y = -(x*u - c) and
    updates x <- x * (1 + t y), halving t only until the trial stays
    feasible; the column scaling by diag(x) keeps the linear system well
    conditioned even when x spans many orders of magnitude.  The step is
    deliberately not forced to decrease the residual: close to the
    zero-energy singularity the Jacobian is nearly singular along the
    pair-scaling direction and the residual rises sharply for one step
    before quadratic contraction sets in; a monotone line search would
    crawl.  Divergence is contained by the caller's watchdog.  Returns
    (x, res, u) of the first trial in the solution domain (v > 0 on the
    axis, Im m > 0 in the plane), or None, also when the Jacobian is
    singular: the LAPACK gufunc behind ``np.linalg.solve`` then returns
    NaN where the wrapper would raise (the caller silences the flag)."""
    xu = x * u
    jac = np.diag(xu) + (x[:, None] * a) * x[None, :]
    y = _solve(jac, -(xu - c))
    if not np.isfinite(y).all():
        return None
    t = 1.0
    for _ in range(60):
        trial = x * (1.0 + t * y)
        if ((trial > 0) if c > 0 else (trial.imag > 0)).all():
            return (trial, *_residual(a, z, c, trial))
        t *= 0.5
    return None


def _damped_step(a, z, c, x, u, res, theta):
    """One damped fixed-point sweep x <- (1-theta) x + theta * c / u, with
    u = z + S x, halving theta until the residual does not increase.  The
    candidate is feasible whenever x is, so the convex combination stays
    feasible for every theta in (0, 1] in exact arithmetic.  Returns
    (x, res, u, theta); theta is re-expanded slowly on success."""
    cand = c / u
    while True:
        trial = (1.0 - theta) * x + theta * cand
        r, u = _residual(a, z, c, trial)
        if r <= res or theta <= 1e-8:
            break
        theta *= 0.5
    return trial, r, u, min(1.0, theta * 1.25)


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
    res, u = _residual(a, z, c, x)
    theta = 1.0
    best_x, best_res, best_u = x, res, u
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
            stepped = _newton_step(a, z, c, x, u)
        if stepped is None:
            x, res, u, theta = _damped_step(a, z, c, x, u, res, theta)
            # feasible in exact arithmetic; only the plane solver reports an
            # Im m that rounding pushed onto zero (a Newton trial is checked)
            if c < 0 and not (x.imag > 0).all():
                raise ImaginarySignLostError(
                    f"iterate left the upper half-plane at z={z:g}"
                )
        else:
            x, res, u = stepped
        budget.spend()
        if res < best_res * 0.9:
            best_x, best_res, best_u, stale = x, res, u, 0
        else:
            stale += 1
            if stale == _WATCHDOG:
                if give_up:
                    raise NonConvergenceError(
                        f"stalled at {point}={z:g}: residual {best_res:.3e} > "
                        f"{tol:g} after {budget.used} iterations",
                        residual=best_res,
                    )
                x, res, u = best_x, best_res, best_u
    return x


# --- solvers on the imaginary axis and in the upper half-plane -------------------


def _continuation_path(target: float, top: float = 1.0) -> list[float]:
    """Geometric path from max(target, top) down to target (inclusive)."""
    path = [max(target, top)]
    while path[-1] > target * 1.0000001:
        path.append(max(target, path[-1] * 0.5))
    return path


@np.errstate(all="ignore")
def solve_imaginary_axis(
    s,
    eta: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 100_000,
    start=None,
) -> AxisSolution:
    """Solve ``1/v = eta + S v`` for the positive vector ``v`` at ``eta > 0``.

    Indices with identical rows of ``S`` have identical entries of ``v``;
    they are merged before the solve and the result is expanded back.

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
    start : array, optional
        Finite positive warm start; when given, continuation is skipped
        and the equation is solved directly at ``eta``.  It is averaged
        over each set of indices with identical rows.

    Raises
    ------
    ZeroRowError, NonConvergenceError, NonPositiveInputError, ValueError
    """
    eta = _axis_point(eta)
    _check_controls(tol, max_iter)
    a, r, cls, row_max = _solver_system(s)
    y = None
    if start is not None:
        y = _class_mean(
            _positive_vector(start, a.shape[0], "start vector"), cls, r.shape[0]
        )
    y, iterations = _axis(r, row_max, eta, tol, y, max_iter)
    v = y[cls]
    v.flags.writeable = False
    res = _residual(a, eta, 1.0, v)[0]
    return AxisSolution(eta=eta, v=v, residual=res, iterations=iterations)


def _axis_point(eta) -> float:
    if not (isinstance(eta, (int, float)) and math.isfinite(eta) and eta > 0):
        raise ValueError("eta must be a finite positive real number")
    return float(eta)


def _check_controls(tol, max_iter=1) -> None:
    """ValueError unless ``tol`` is finite and positive and ``max_iter`` a
    positive integer (not a bool)."""
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be a finite positive number")
    if isinstance(max_iter, bool) or not (
        isinstance(max_iter, (int, np.integer)) and max_iter >= 1
    ):
        raise ValueError("max_iter must be a positive integer")


def _axis(r, row_max, eta, tol, y=None, max_iter=100_000):
    """Axis solve on the merged profile ``r`` from the merged start ``y``
    (continuation when None), checked against the a priori bounds.  Returns
    the merged solution, also the warm start for a next point, and the
    iteration count; callers expand it with the ``cls`` of
    :func:`_solver_system`."""
    budget = _Budget(max_iter)
    if y is None:
        path = _continuation_path(eta)
        y = 1.0 / (path[0] + r.sum(axis=1) / path[0])
    else:
        path = [eta]
    for stage_eta in path:
        stage_tol = tol if stage_eta == eta else max(tol, 1e-10)
        y = _stage(r, stage_eta, 1.0, y, stage_tol, budget)
    _assert_axis_bounds(row_max, eta, y, tol)
    return y, budget.used


def _assert_axis_bounds(row_max, eta, v, tol):
    """A priori bounds: the solution (merged or not: the values are the
    same) satisfies v <= 1/eta and v >= min(eta, 1/eta) / (1 + row_max),
    row_max the max row sum of the profile; violation beyond numerical
    slack indicates an internal solver defect."""
    slack = 1.0 + 1e-9 + 10.0 * tol
    upper = 1.0 / eta
    lower = min(eta, upper) / (1.0 + row_max)
    if (v > upper * slack).any() or (v < lower / slack).any():
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
    start=None,
) -> PlaneSolution:
    """Solve ``-1/m = z + S m`` with ``Im m > 0`` at ``z`` with ``Im z > 0``.

    Continuation descends from ``Re z + i max(Im z, 1)`` by halving the
    imaginary part; pass ``start`` (an upper-half-plane vector) to solve
    directly at ``z``.  On the imaginary axis the solution equals
    ``i v(eta)`` with ``v`` from :func:`solve_imaginary_axis`.  As there,
    indices with identical rows are merged and ``start`` is averaged over
    them.

    Raises
    ------
    ZeroRowError, NonConvergenceError, ImaginarySignLostError, ValueError
    """
    z = _plane_point(z)
    _check_controls(tol, max_iter)
    a, r, cls, _ = _solver_system(s)
    y = None
    if start is not None:
        m = np.asarray(start, dtype=complex)
        if m.shape != (a.shape[0],):
            raise ValueError(f"start vector must have shape ({a.shape[0]},)")
        if not (np.isfinite(m).all() and (m.imag > 0).all()):
            raise ImaginarySignLostError(
                "start vector must be finite with Im m > 0"
            )
        y = _class_mean(m, cls, r.shape[0])
    y, iterations = _plane(r, z, tol, y, max_iter)
    m = y[cls]
    m.flags.writeable = False
    res = _residual(a, z, -1.0, m)[0]
    return PlaneSolution(z=z, m=m, residual=res, iterations=iterations)


def _plane_point(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag) and z.imag > 0):
        raise ValueError("z must lie in the open upper half-plane")
    return z


def _plane(r, z, tol, y=None, max_iter=100_000):
    """Plane solve on the merged profile ``r``; see :func:`_axis`."""
    budget = _Budget(max_iter)
    if y is None:
        ims = _continuation_path(z.imag)
        path = [complex(z.real, im) for im in ims]
        y = np.full(r.shape[0], -1.0 / path[0], dtype=complex)
        if not (y.imag > 0).all():  # pragma: no cover - safe by construction
            y = np.full(r.shape[0], 1j, dtype=complex)
    else:
        path = [z]
    for stage_z in path:
        stage_tol = tol if stage_z == z else max(tol, 1e-9)
        y = _stage(r, stage_z, -1.0, y, stage_tol, budget)
    return y, budget.used


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
    grid of real energies, warm-starting each point from its predecessor.
    A warm start is abandoned for a cold solve (continuation from
    ``Im z = 1``) as soon as it stalls.

    ``epsilon > 0`` controls the regularization; the curve converges to the
    true density as ``epsilon`` decreases (at a rate set by the local
    regularity).  The result is strictly positive since ``Im m > 0``.
    """
    if not (isinstance(epsilon, (int, float)) and epsilon > 0):
        raise NonPositiveInputError("epsilon must be strictly positive")
    _check_controls(tol, max_iter)
    _, r, cls, _ = _solver_system(s)
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("tau_grid must be a non-empty 1-D array")
    rho = np.empty_like(taus)
    k, merged = cls.size, r.shape[0] < cls.size
    y = None
    for j, tau in enumerate(taus):
        z = _plane_point(complex(tau, epsilon))
        if y is not None:
            try:
                y = _stage(r, z, -1.0, y, tol, _Budget(max_iter), give_up=True)
            except NonConvergenceError:
                y = None
        if y is None:
            y, _ = _plane(r, z, tol, None, max_iter)
        # sum / k is np.mean's arithmetic
        rho[j] = float((y[cls] if merged else y).imag.sum() / k / math.pi)
    taus = taus.copy()
    taus.flags.writeable = False
    rho.flags.writeable = False
    return DensityCurve(tau=taus, rho=rho, epsilon=float(epsilon))


# --- variational characterization ------------------------------------------------


def variational_value(s, x, eta: float) -> float:
    """Value of the strictly convex functional whose unique minimizer over
    positive vectors is the solution ``v(eta)``:

        J(x) = <x, S x> / 2 - <log x> + eta <x>,

    with normalized averages ``<y> = mean(y)``.  Raises
    NonPositiveInputError unless ``x`` is finite and ``x > 0`` entrywise.
    Returns ``inf``, without a warning, when evaluating ``<x, S x>`` or
    ``eta <x>`` overflows the float range (entries near the float maximum
    can overflow a partial sum even where ``J`` is finite); the value is
    never NaN (at ``eta = 0`` the last term is zero even when ``<x>``
    overflows)."""
    profile = as_profile(s)
    xv = _positive_vector(x, profile.k, "x")
    if not (isinstance(eta, (int, float)) and math.isfinite(eta) and eta >= 0):
        raise ValueError("eta must be a finite non-negative real number")
    a = profile.entries
    # Both overflowing terms are non-negative and -<log x> is finite, so an
    # overflow can only make the sum +inf.
    with np.errstate(over="ignore"):
        quadratic = 0.5 * np.mean(xv * (a @ xv))
        linear = eta * np.mean(xv) if eta else 0.0
    return float(quadratic - np.mean(np.log(xv)) + linear)


# --- empirical power laws ---------------------------------------------------------


def _supported(s) -> Analysis:
    """:func:`analyze` of ``s``; NoSupportError without a positive diagonal."""
    an = analyze(s)
    if an.nf is None:
        raise NoSupportError("pattern has no positive diagonal")
    return an


def _geometric_grid(eta_max: float, eta_min: float, points_per_decade: int):
    if not (0 < eta_min < eta_max < math.inf):
        raise ValueError("need 0 < eta_min < eta_max < inf")
    if not points_per_decade >= 1:
        raise ValueError("points_per_decade must be at least 1")
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

    Solves the axis equation on a descending geometric grid (warm starts),
    averages ``v`` over each block of the normal form, and fits the slope
    of ``log`` average against ``log eta`` per block.  The prediction is
    ``-f_b`` with ``f`` the exact block exponents; ``max_deviation`` is the
    largest absolute gap between fitted and predicted slopes.  The fit
    converges only logarithmically in ``eta``, so wide grids (several
    decades) are required for tight comparisons."""
    _check_controls(tol)
    an = _supported(s)
    nf, ex = an.nf, an.exponents
    etas = _geometric_grid(eta_max, eta_min, points_per_decade)
    _, r, cls, row_max = _solver_system(an)
    n_blocks = nf.n_blocks
    block_cls = [
        cls[[nf.perm[i] for i in nf.block_indices(b)]] for b in range(n_blocks)
    ]
    avgs = np.empty((etas.size, n_blocks))
    y = None
    for p, eta in enumerate(etas):
        y, _ = _axis(r, row_max, float(eta), tol, y)
        for b in range(n_blocks):
            avgs[p, b] = y[block_cls[b]].mean()
    log_eta = np.log(etas)
    fitted = tuple(
        float(np.polyfit(log_eta, np.log(avgs[:, b]), 1)[0])
        for b in range(n_blocks)
    )
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
    succs = [sorted(j for (i, j) in rel.edges if i == b) for b in range(n)]
    preds = [sorted(i for (i, j) in rel.edges if j == b) for b in range(n)]

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

    permuted = nf.permuted_profile
    k = permuted.shape[0]
    s0 = np.zeros((k, k))
    s1 = np.zeros((k, k))
    for b in range(n):
        rows = nf.block_indices(b)
        cols = nf.block_indices(partner[b])
        s0[np.ix_(rows, cols)] = permuted[np.ix_(rows, cols)]
        for j in succ_sets[b]:
            jcols = nf.block_indices(partner[j])
            s1[np.ix_(rows, jcols)] = permuted[np.ix_(rows, jcols)]

    if ZeroPattern.from_matrix(s0) != fid_skeleton(pattern_of(permuted)):
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
    _check_controls(tol)
    an = analyze(s)
    data = rescaled_profile(an)
    e1, e2 = (float(eta_pair[0]), float(eta_pair[1]))
    if not (e1 > e2 > 0):
        raise ValueError("eta_pair must be two descending positive values")
    # blocks are contiguous in the permuted order: one exponent per index
    f_idx = np.repeat([float(f) for f in data.exponents.f], data.nf.dims)
    q = data.exponents.Q

    _, r, cls, row_max = _solver_system(an)
    perm_cls = cls[list(data.nf.perm)]  # merged entry of each permuted index
    y1, _ = _axis(r, row_max, _axis_point(e1), tol)
    y2, _ = _axis(r, row_max, e2, tol, y1)
    x1 = y1[perm_cls] * e1**f_idx
    x2 = y2[perm_cls] * e2**f_idx
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
    _check_controls(tol)
    an = analyze(s)
    if an.nf is not None:
        raise HasSupportError(
            "profile pattern has support: the density has no atom at zero"
        )
    kappa = an.no_support.kappa
    etas = tuple(sorted((float(e) for e in eta_grid), reverse=True))
    if not etas or etas[-1] <= 0:
        raise ValueError("eta_grid must contain positive values")
    _, r, cls, row_max = _solver_system(an)
    estimates = []
    y = None
    for eta in etas:
        y, _ = _axis(r, row_max, _axis_point(eta), tol, y)
        estimates.append(eta * float(y[cls].mean()))
    return AtomMass(
        kappa_exact=kappa,
        kappa_numeric=estimates[-1],
        eta_grid=etas,
        estimates=tuple(estimates),
    )


# --- quantiles and scaling prediction ---------------------------------------------


def quantile(curve: DensityCurve, sigma, n: int) -> QuantileFit:
    """Smallest ``gamma`` with ``integral of rho from the grid start to
    gamma`` equal to ``1/n`` (trapezoid rule, linear interpolation inside
    the bracketing cell), with the predicted log-log slope ``-1/(1-sigma)``
    of the smallest singular value against the matrix dimension.

    Raises GridTooCoarseError when the quantile falls inside the first grid
    cell or beyond the grid."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    sig = Fraction(sigma) if not isinstance(sigma, float) else sigma
    sig_f = float(sig)
    if not (0 <= sig_f < 1):
        raise ValueError("sigma must lie in [0, 1)")
    taus = np.asarray(curve.tau, dtype=float)
    rho = np.asarray(curve.rho, dtype=float)
    if taus.size < 3 or (np.diff(taus) <= 0).any():
        raise ValueError("curve must be sampled on an increasing grid")
    target = 1.0 / n
    cum = np.concatenate(
        ([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(taus)))
    )
    if cum[-1] < target:
        raise GridTooCoarseError(
            f"grid carries mass {cum[-1]:.3e} < target {target:.3e}"
        )
    j = int(np.searchsorted(cum, target))
    if j <= 1:
        raise GridTooCoarseError(
            "quantile falls inside the first grid cell; refine the grid"
        )
    gamma = taus[j - 1] + (target - cum[j - 1]) * (taus[j] - taus[j - 1]) / (
        cum[j] - cum[j - 1]
    )
    return QuantileFit(
        gamma=float(gamma),
        predicted_slope=-1.0 / (1.0 - sig_f),
        mass_target=target,
    )
