"""Tests for the self-consistent solvers and the rescaled zero-energy data."""

import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from specdens import dyson
from specdens.dyson import (
    DensityCurve,
    atom_mass_estimate,
    density_profile,
    empirical_exponents,
    limit_weights,
    quantile,
    rescaled_profile,
    rescaled_residuals,
    solve_imaginary_axis,
    solve_upper_half_plane,
    variational_value,
)
from specdens.errors import (
    GridTooCoarseError,
    HasSupportError,
    ImaginarySignLostError,
    NonConvergenceError,
    NonPositiveInputError,
    SpecdensError,
    ZeroRowError,
)
from specdens.minmax import analyze

from test_normal_form import BIG_EXAMPLE

ONES1 = np.array([[1.0]])
ONES2 = np.ones((2, 2))
# One hub coupled to everything including itself, one leaf coupled only to
# the hub: the leaf component blows up like eta**(-1/3), the hub decays
# like eta**(1/3).
ARROW = np.array([[1.0, 1.0], [1.0, 0.0]])
# Triangular chain: components behave like eta**(-1/2), 1, eta**(1/2).
CHAIN3 = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
# No-support pattern: the 2x2 zero block {0,1} x {0,1} has perimeter
# excess (2 + 2 - 3) / 3 = 1/3, the mass of the zero atom.
NOSUPPORT3 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # positive root of v**2 + v = 1


# --- imaginary axis ---------------------------------------------------------------


def test_axis_scalar_closed_form():
    sol = solve_imaginary_axis(ONES1, 1.0)
    assert abs(sol.v[0] - GOLDEN) < 1e-10
    assert sol.residual < 1e-12


def test_axis_residual_definition():
    sol = solve_imaginary_axis(CHAIN3, 0.37)
    defect = sol.v * (0.37 + CHAIN3 @ sol.v) - 1.0
    assert np.max(np.abs(defect)) == pytest.approx(sol.residual, abs=1e-15)


def test_axis_arrow_asymptotics():
    sol = solve_imaginary_axis(ARROW, 1e-6)
    assert sol.v[0] == pytest.approx(1e-2, rel=5e-2)
    assert sol.v[1] == pytest.approx(1e2, rel=5e-2)


def test_axis_a_priori_bounds_large_eta():
    eta = 10.0
    sol = solve_imaginary_axis(CHAIN3, eta)
    lower = 1.0 / (eta + CHAIN3.sum(axis=1).max())
    assert (sol.v >= lower * (1 - 1e-12)).all()
    assert (sol.v <= 1.0 / eta * (1 + 1e-12)).all()


def test_axis_upper_bound_is_exact():
    for eta in (1e-3, 0.1, 1.0, 7.0):
        sol = solve_imaginary_axis(BIG_EXAMPLE, eta)
        assert (sol.v <= (1.0 + 1e-9) / eta).all()


def test_axis_warm_start():
    # the axis sweeps start each point from the previous one's solution
    with np.errstate(all="ignore"):  # as the solvers
        _, (warm, warm_its) = dyson._sweep(CHAIN3, [2e-8, 1e-8], 1e-12)
        [(cold, cold_its)] = dyson._sweep(CHAIN3, [1e-8], 1e-12)
    assert np.max(np.abs(warm / cold - 1.0)) < 1e-9
    assert warm_its < cold_its


def test_axis_deep_singular_regime():
    sol = solve_imaginary_axis(BIG_EXAMPLE, 1e-15, tol=1e-13)
    assert sol.residual < 1e-13
    # exponents are +-2/3 at the extreme blocks
    assert sol.v.max() > 1e9 and sol.v.min() < 1e-9


def test_axis_rejects_bad_input():
    with pytest.raises(ZeroRowError):
        solve_imaginary_axis([[1.0, 0.0], [0.0, 0.0]], 1.0)
    with pytest.raises(ValueError):
        solve_imaginary_axis(ONES1, 0.0)
    with pytest.raises(ValueError):
        solve_imaginary_axis(ONES1, -1.0)
    with pytest.raises(TypeError):
        solve_imaginary_axis(ONES1, 1.0, method="hybrid")
    with pytest.raises(TypeError):
        solve_imaginary_axis(ONES1, 1.0, start=[1.0])


def _kernel_args(z):
    """The profile, ``c`` and tolerance with which the solvers run the
    kernel on ARROW at ``z``: on the axis for a real ``z``, else in the
    plane, where the sweep casts the profile to complex once."""
    if isinstance(z, float):
        return ARROW, 1.0, 1e-12
    return np.ascontiguousarray(ARROW, dtype=complex), -1.0, 1e-10


@pytest.mark.parametrize(
    "z, start",
    [
        (0.3 + 1e-3j, [1e308j, 1e308j]),
        (0.3 + 1e-3j, [math.inf * 1j, 1j]),
        (1e-3, [math.inf, 1.0]),
    ],
    ids=["plane_1e308", "plane_inf", "axis_inf"],
)
def test_a_non_finite_residual_is_no_convergence(z, start):
    # a warm start whose residual is not finite must neither pass as
    # converged nor run out the iteration budget
    r, c, tol = _kernel_args(z)
    x0, budget = np.asarray(start, dtype=r.dtype), dyson._Budget(100_000)
    with np.errstate(all="ignore"), pytest.raises(SpecdensError):
        dyson._stage(r, z, c, x0, tol, budget, give_up=True)
    assert budget.used <= dyson._WATCHDOG


@pytest.mark.parametrize(
    "z, start",
    [
        (1e-6, [1e200, 1e200]),
        (0.3 + 1e-3j, [1e200j, 1e200j]),
        (0.3 + 1e-3j, [1e-20j, 1e-20j]),
    ],
    ids=["axis_1e200", "plane_1e200j", "plane_1e-20j"],
)
def test_a_stalled_warm_start_is_solved_cold(z, start):
    # the one warm-start rule of the sweeps: a stage from the previous
    # point that stalls gives up within one watchdog period, and the point
    # is solved cold, bit for bit
    r, c, tol = _kernel_args(z)
    with np.errstate(all="ignore"):  # as the solvers
        cold, cold_its = dyson._solve_merged(r, z, c, tol, 100_000)
        warm, warm_its = dyson._solve_merged(r, z, c, tol, 100_000, np.array(start))
    assert np.array_equal(warm, cold)
    assert cold_its < warm_its <= cold_its + dyson._WATCHDOG + 1


def test_singular_jacobian_is_no_newton_step(monkeypatch):
    # x = (1, -1) makes diag(x*u) + diag(x) S diag(x) exactly singular:
    # where np.linalg.solve raises, the step declines, without a warning
    # under the errstate every solve enters, and leaves numpy's state as
    # it found it
    a, x = np.ones((2, 2)), np.array([1.0, -1.0])
    u = a @ x
    jac = np.diag(x * u) + (x[:, None] * a) * x[None, :]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(jac, -(x * u - 1.0))
    seen = []
    step = dyson._newton_step

    def spy(*args):
        seen.append(np.geterr())
        if len(seen) == 1:
            assert step(a, 0.0, 1.0, x, u, x * u) is None
        return step(*args)

    monkeypatch.setattr(dyson, "_newton_step", spy)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solve_imaginary_axis(ARROW, 1e-3)
        assert np.geterr() == before
        with pytest.raises(NonConvergenceError):
            solve_upper_half_plane(ARROW, 0.3 + 1e-3j, max_iter=3)
        assert np.geterr() == before
    quiet = dict.fromkeys(("divide", "over", "under", "invalid"), "ignore")
    assert seen and all(state == quiet for state in seen)


def test_axis_nonconvergence_reports_residual():
    with pytest.raises(NonConvergenceError) as exc:
        solve_imaginary_axis(BIG_EXAMPLE, 1e-12, max_iter=10)
    assert exc.value.residual is not None and exc.value.residual > 0


# --- upper half-plane -------------------------------------------------------------


def test_plane_scalar_closed_form():
    sol = solve_upper_half_plane(ONES1, 1j)
    assert abs(sol.m[0] - 1j * GOLDEN) < 1e-10


def test_plane_semicircle_density():
    sol = solve_upper_half_plane(ONES1, 0.5 + 0.01j)
    rho = sol.m.imag.mean() / math.pi
    exact = math.sqrt(4.0 - 0.25) / (2.0 * math.pi)
    assert rho == pytest.approx(exact, rel=2e-2)


def test_plane_matches_axis_on_imaginary_axis():
    for eta in (0.01, 0.5, 3.0):
        axis = solve_imaginary_axis(CHAIN3, eta)
        plane = solve_upper_half_plane(CHAIN3, eta * 1j)
        assert np.max(np.abs(plane.m - 1j * axis.v)) < 1e-9


def test_plane_reflection_symmetry():
    # m(-conj(z)) == -conj(m(z)) by the symmetry of the equation
    for z in (0.7 + 0.05j, -1.3 + 0.2j, 0.1 + 1e-3j):
        left = solve_upper_half_plane(BIG_EXAMPLE, -np.conj(z)).m
        right = -np.conj(solve_upper_half_plane(BIG_EXAMPLE, z).m)
        assert np.max(np.abs(left - right)) < 1e-9


def test_plane_imaginary_part_positive():
    sol = solve_upper_half_plane(BIG_EXAMPLE, 0.2 + 1e-6j)
    assert (sol.m.imag > 0).all()


def test_plane_cold_start_far_out_on_the_real_axis(monkeypatch):
    # at |Re z| of about 1e162 and more Im(-1/z_0) underflows to 0, and the
    # cold continuation starts from i instead; it still converges with
    # Im m > 0
    starts = []
    stage = dyson._stage

    def spy(r, z, c, x, *args, **kwargs):
        starts.append(x)
        return stage(r, z, c, x, *args, **kwargs)

    monkeypatch.setattr(dyson, "_stage", spy)
    sol = solve_upper_half_plane(ARROW, 1e300 + 1j)
    assert np.array_equal(starts[0], [1j, 1j])
    assert (sol.m.imag > 0).all() and sol.residual <= 1e-10


def test_plane_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_upper_half_plane(ONES1, 1.0 - 0.5j)
    with pytest.raises(ValueError):
        solve_upper_half_plane(ONES1, 1.0)
    with pytest.raises(TypeError):
        solve_upper_half_plane(ONES1, 1j, start=[1j])


# --- density ----------------------------------------------------------------------


def test_density_scalar_at_zero():
    curve = density_profile(ONES1, [0.0], epsilon=1e-4)
    assert curve.rho[0] == pytest.approx(1.0 / math.pi, abs=1e-3)


def test_density_is_positive_and_even():
    taus = np.array([-0.8, -0.3, 0.0, 0.3, 0.8])
    curve = density_profile(ARROW, taus, epsilon=1e-3)
    assert (curve.rho > 0).all()
    assert np.max(np.abs(curve.rho - curve.rho[::-1])) < 1e-8


def test_density_arrow_flattens_after_rescaling():
    # near zero the density behaves like tau**(-1/3); compensating by
    # tau**(1/3) must flatten the curve over two decades
    taus = np.geomspace(1e-5, 1e-3, 9)
    curve = density_profile(ARROW, taus, epsilon=1e-7)
    scaled = taus ** (1.0 / 3.0) * curve.rho
    assert (scaled.max() - scaled.min()) / scaled.mean() < 0.10


def test_density_rejects_bad_epsilon():
    with pytest.raises(NonPositiveInputError):
        density_profile(ONES1, [0.0], epsilon=0.0)


@pytest.mark.parametrize(
    "taus, epsilon, message",
    [
        ([0.0, np.inf], 1e-3, "tau_grid must be a non-empty 1-D array of finite values"),
        ([0.0, np.nan], 1e-3, "tau_grid must be a non-empty 1-D array of finite values"),
        ([0.0], math.inf, "epsilon must be a finite real > 0"),
    ],
    ids=["tau_inf", "tau_nan", "epsilon_inf"],
)
def test_density_rejects_a_non_finite_point_before_solving(
    monkeypatch, taus, epsilon, message
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the grid was checked")

    monkeypatch.setattr(dyson, "_stage", no_solve)
    with pytest.raises(ValueError, match=message):
        density_profile(ARROW, taus, epsilon=epsilon)


# --- merged rows ------------------------------------------------------------------


def _blown_up(s, b, seed):
    """A symmetric permutation of ``kron(s, ones((b, b)))`` and the block of
    ``s`` that each of its indices came from."""
    rng = np.random.default_rng(seed)
    s = np.asarray(s, dtype=float)
    perm = rng.permutation(s.shape[0] * b)
    return np.kron(s, np.ones((b, b)))[np.ix_(perm, perm)], perm // b


@pytest.mark.parametrize("s, b", [(BIG_EXAMPLE, 3), (CHAIN3, 4)], ids=["big3", "chain3x4"])
def test_merged_rows_match_the_block_profile(s, b):
    # indices with identical rows share one entry of the solution, and the
    # equation on the classes is the one of b * s
    big, block = _blown_up(s, b, seed=b)
    small = b * np.asarray(s, dtype=float)
    for eta in (1e-1, 1e-3, 1e-6):
        x, y = solve_imaginary_axis(big, eta), solve_imaginary_axis(small, eta)
        assert np.max(np.abs(x.v / y.v[block] - 1.0)) < 1e-12
        assert x.iterations == y.iterations
    for z in (0.5 + 1e-3j, 1e-3j, -1.2 + 0.1j, 1.0 + 1e-6j):
        x, y = solve_upper_half_plane(big, z), solve_upper_half_plane(small, z)
        assert np.max(np.abs(x.m / y.m[block] - 1.0)) < 1e-12
        assert x.iterations == y.iterations
    taus = np.linspace(-2.0, 2.0, 41)
    x = density_profile(big, taus, epsilon=1e-3)
    y = density_profile(small, taus, epsilon=1e-3)
    assert np.max(np.abs(x.rho / y.rho - 1.0)) < 1e-12


# A frozen reference copy of the solver kernel (residual, Newton step,
# damped step, stage driver), written plainly: every step recomputes
# z + S x from its own iterate.  The solvers must reproduce it bit for bit,
# so any change of the kernel's arithmetic shows here.


def _reference_feasible(c, x):
    return bool((x > 0).all()) if c > 0 else bool((x.imag > 0).all())


def _reference_residual(a, z, c, x):
    return float(np.max(np.abs(x * (z + a @ x) - c)))


def _reference_newton_step(a, z, c, x):
    u = z + a @ x
    g = x * u - c
    jac = np.diag(x * u) + (x[:, None] * a) * x[None, :]
    try:
        y = np.linalg.solve(jac, -g)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(y).all():
        return None
    t = 1.0
    for _ in range(60):
        trial = x * (1.0 + t * y)
        if _reference_feasible(c, trial):
            return trial, _reference_residual(a, z, c, trial)
        t *= 0.5
    return None


def _reference_damped_step(a, z, c, x, res, theta):
    cand = c / (z + a @ x)
    while True:
        trial = (1.0 - theta) * x + theta * cand
        r = _reference_residual(a, z, c, trial)
        if r <= res or theta <= 1e-8:
            break
        theta *= 0.5
    return trial, r, min(1.0, theta * 1.25)


def _reference_stage(a, z, c, x, tol, budget, give_up=False):
    res = _reference_residual(a, z, c, x)
    theta = 1.0
    best_x, best_res = x, res
    stale = 0
    while res > tol:
        if budget.exhausted:
            raise NonConvergenceError("budget exhausted", residual=res)
        stepped = None
        if stale < 20:
            stepped = _reference_newton_step(a, z, c, x)
        if stepped is None:
            x, res, theta = _reference_damped_step(a, z, c, x, res, theta)
        else:
            x, res = stepped
        budget.spend()
        if c < 0 and not _reference_feasible(c, x):
            raise ImaginarySignLostError("left the upper half-plane")
        if res < best_res * 0.9:
            best_x, best_res, stale = x, res, 0
        else:
            stale += 1
            if stale == 20:
                if give_up:
                    raise NonConvergenceError("stalled", residual=best_res)
                x, res = best_x, best_res
    return x, res


def _previous_solution(path, z, c):
    """The start at ``z`` by the previous-point rule: the last solution of
    ``path``, the pairs of point and solution solved before ``z``."""
    return path[-1][1] if path else None


def _reference_prediction(path, z, c):
    """The start at ``z`` after the pairs of point and solution ``path`` of
    one sweep or continuation: the quadratic Lagrange extrapolation through
    the last three, of log v against log eta on the axis and of m against z
    in the plane; the last solution when fewer than three distinct points
    precede, or when the prediction is not finite or leaves the domain."""
    if len(path) < 3:
        return _previous_solution(path, z, c)
    previous = path[-1][1]
    nodes = [math.log(p) if c > 0 else p for p, _ in path[-3:]]
    values = [np.log(y) if c > 0 else y for _, y in path[-3:]]
    t = math.log(z) if c > 0 else z
    pred = None
    for j in range(3):
        t1, t2 = [nodes[k] for k in range(3) if k != j]
        denominator = (nodes[j] - t1) * (nodes[j] - t2)
        if denominator == 0:
            return previous
        term = (t - t1) * (t - t2) / denominator * values[j]
        pred = term if pred is None else pred + term
    if c > 0:
        pred = np.exp(pred)
    if np.isfinite(pred).all() and _reference_feasible(c, pred):
        return pred
    return previous


def _reference_solve(r, z, c, tol, start=None, rule=_reference_prediction):
    """The solve on the merged matrix ``r`` with the reference kernel: one
    stage from ``start``, the start a sweep predicts, that gives up when it
    stalls; the continuation from the cold start of each solver when there
    is no start or the stage gave up, each later stage started by ``rule``
    from the ones before.  Returns the solution on ``r`` and the iteration
    count, both from one budget."""
    budget = dyson._Budget(100_000)
    if start is not None:
        try:
            x, _ = _reference_stage(r, z, c, start, tol, budget, give_up=True)
            return x, budget.used
        except NonConvergenceError:
            pass
    if c > 0:
        path = dyson._continuation_path(z)
        x = 1.0 / (path[0] + r.sum(axis=1) / path[0])
    else:
        path = [complex(z.real, im) for im in dyson._continuation_path(z.imag)]
        x = np.full(r.shape[0], -1.0 / path[0], dtype=complex)
    floor = 1e-10 if c > 0 else 1e-9
    stages = []
    for point in path:
        stage_tol = tol if point == z else max(tol, floor)
        if stages:
            x = rule(stages, point, c)
        x, _ = _reference_stage(r, point, c, x, stage_tol, budget)
        stages.append((point, x))
    return x, budget.used


def _random_profile(seed, k=12):
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.0, 2.0, (k, k)) * (rng.uniform(size=(k, k)) < 0.5)
    return np.triu(g) + np.triu(g, 1).T + np.eye(k)


def _rescaled(s, c, seed):
    """``c`` times a seeded symmetric permutation of ``s``."""
    perm = np.random.default_rng(seed).permutation(len(s))
    return c * np.asarray(s, dtype=float)[np.ix_(perm, perm)]


def _merged_blowup(s, b, seed):
    """A blow-up of ``s`` by ``b`` (see :func:`_blown_up`), its merged
    matrix and the class of each index, built from the blocks: classes
    are numbered by first occurrence and ``b * s`` equals the sum of the
    ``b`` equal entries of each class, bit for bit."""
    big, block = _blown_up(s, b, seed)
    order = list(dict.fromkeys(block.tolist()))
    rank = {k: i for i, k in enumerate(order)}
    merged = b * np.asarray(s, dtype=float)[np.ix_(order, order)]
    return big, 1.0, (merged, np.array([rank[k] for k in block]))


def _reference_sweep(r, points, c, tol, rule=_reference_prediction):
    """The solution at each of ``points`` with the reference kernel on
    ``r``, each point started by ``rule`` from the ones before, and the
    iterations of each solve."""
    ys, iterations = [], []
    for z in points:
        y, its = _reference_solve(r, z, c, tol, rule(list(zip(points, ys)), z, c), rule)
        ys.append(y)
        iterations.append(its)
    return ys, iterations


def _reference_density(r, cls, taus, epsilon, rule=_reference_prediction):
    """The density curve with the reference kernel."""
    points = [complex(tau, epsilon) for tau in taus]
    ys, _ = _reference_sweep(r, points, -1.0, 1e-10, rule)
    return [y[cls].imag.mean() / math.pi for y in ys]


def _reference_axis_sweep(r, etas, tol, rule=_reference_prediction):
    """The solution at each of the ``etas`` with the reference kernel."""
    return _reference_sweep(r, list(etas), 1.0, tol, rule)[0]


_KERNEL_CASES = [
    (ARROW, 1.0, None),
    (CHAIN3, 1.0, None),
    (BIG_EXAMPLE, 1.0, None),
    (_random_profile(11), 1.0, None),
    (_rescaled(BIG_EXAMPLE, 10**2.5, seed=1), 10**2.5, None),
    (_rescaled(BIG_EXAMPLE, 10**-2.5, seed=2), 10**-2.5, None),
    _merged_blowup(BIG_EXAMPLE, 3, seed=3),
    # all rows equal: the kernel solves a 1 x 1 system
    _merged_blowup(ONES1 / 10, 3, seed=7),
]
_KERNEL_IDS = ["arrow", "chain3", "big", "random", "big_c1e+2.5", "big_c1e-2.5",
               "big_blowup3", "ones_blowup3"]


@pytest.mark.parametrize("a, c, merged", _KERNEL_CASES, ids=_KERNEL_IDS)
def test_distinct_rows_solve_bit_identically(a, c, merged):
    # every result equals the reference kernel's on the profile itself when
    # no rows repeat, and on the merged matrix of a blow-up; a profile
    # scaled by c is solved at points scaled by c**(1/2), where the
    # unscaled one would be
    a = np.asarray(a, dtype=float)
    r, cls = merged if merged is not None else (a, np.arange(len(a)))
    q = math.sqrt(c)
    for eta in (1e-2 * q, 1e-6 * q, 1e-10 * q):
        sol = solve_imaginary_axis(a, eta)
        y, its = _reference_solve(r, eta, 1.0, 1e-12)
        assert np.array_equal(sol.v, y[cls])
        assert sol.residual == _reference_residual(a, eta, 1.0, y[cls])
        assert sol.iterations == its
    for z in (0.5 + 1e-3j, 1e-3j, 1.0 + 1e-6j):
        z *= q
        sol = solve_upper_half_plane(a, z)
        y, its = _reference_solve(r, z, -1.0, 1e-10)
        assert np.array_equal(sol.m, y[cls])
        assert sol.residual == _reference_residual(a, z, -1.0, y[cls])
        assert sol.iterations == its
    taus = np.linspace(-2.5, 2.5, 51) * q
    rho = _reference_density(r, cls, taus, 1e-6 * q)
    assert np.array_equal(density_profile(a, taus, epsilon=1e-6 * q).rho, rho)


def _kernel_steps(monkeypatch):
    """Record each step the solver kernel takes: "N" a Newton step, "n" a
    Newton step that failed, "D" a damped sweep.  A damped sweep follows
    every failed Newton step; any other one was taken after a watchdog
    revert."""
    steps = []
    newton, damped = dyson._newton_step, dyson._damped_step

    def newton_spy(*args):
        stepped = newton(*args)
        steps.append("N" if stepped is not None else "n")
        return stepped

    def damped_spy(*args):
        steps.append("D")
        return damped(*args)

    monkeypatch.setattr(dyson, "_newton_step", newton_spy)
    monkeypatch.setattr(dyson, "_damped_step", damped_spy)
    return steps


@pytest.mark.parametrize(
    "z, start, failed_newton",
    [
        (1e-6, [1e200, 1e200], 1),
        (1e-6, [1e-300, 1e-300], 0),
        (0.3 + 1e-3j, [1 + 1e-300j, 1 + 1e-300j], 1),
        (1e-6j, [1e-300j, 1e-300j], 0),
    ],
    ids=["axis_1e200", "axis_1e-300", "plane_1+1e-300j", "plane_1e-300j"],
)
def test_damped_fallback_solves_bit_identically(monkeypatch, z, start, failed_newton):
    # stages from starts far from the solution, which do not give up (as
    # every stage of the cold continuation), take the damped sweeps after a
    # failed Newton step and after a watchdog revert, and still match the
    # reference kernel bit for bit
    steps = _kernel_steps(monkeypatch)
    r, c, tol = _kernel_args(z)
    x0 = np.asarray(start, dtype=r.dtype)
    budget, ref_budget = dyson._Budget(100_000), dyson._Budget(100_000)
    with np.errstate(all="ignore"):  # as the solvers: 1e200 overflows at first
        x = dyson._stage(r, z, c, x0, tol, budget)
        y, _ = _reference_stage(ARROW, z, c, x0, tol, ref_budget)
    assert steps.count("n") == failed_newton
    assert steps.count("D") > failed_newton  # a watchdog revert happened
    assert np.array_equal(x, y)
    assert dyson._residual(ARROW, z, c, x)[0] == _reference_residual(ARROW, z, c, y)
    assert budget.used == ref_budget.used == len(steps) - steps.count("n")


@pytest.mark.parametrize("a, c, merged", _KERNEL_CASES, ids=_KERNEL_IDS)
def test_axis_sweeps_solve_bit_identically(a, c, merged):
    # the warm-started axis loops of the exponent fit and of the limit
    # weights reproduce the reference kernel bit for bit
    a = np.asarray(a, dtype=float)
    r, cls = merged if merged is not None else (a, np.arange(len(a)))
    q = math.sqrt(c)
    fit = empirical_exponents(a, eta_min=1e-10 * q, eta_max=1e-2 * q)
    ys = _reference_axis_sweep(r, fit.eta.tolist(), 1e-12)
    nf = fit.nf
    for b in range(nf.n_blocks):
        block = cls[[nf.perm[i] for i in nf.block_indices(b)]]
        assert np.array_equal(fit.block_averages[:, b], [y[block].mean() for y in ys])
    e1, e2 = 2e-12 * q, 1e-12 * q
    data = limit_weights(a, eta_pair=(e1, e2))
    y1, y2 = _reference_axis_sweep(r, (e1, e2), 1e-13)
    f = np.repeat([float(f) for f in data.exponents.f], data.nf.dims)
    perm_cls = cls[list(data.nf.perm)]
    x1, x2 = y1[perm_cls] * e1**f, y2[perm_cls] * e2**f
    w1, w2 = e1 ** (1.0 / data.exponents.Q), e2 ** (1.0 / data.exponents.Q)
    assert np.array_equal(data.w, x2 - w2 * (x1 - x2) / (w1 - w2))


# No support and no repeated rows (rows 0 and 1 of NOSUPPORT3 are equal).
_NOSUPPORT_DISTINCT = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [1.0, 2.0, 1.0]])


@pytest.mark.parametrize(
    "a, c, merged",
    [
        (_NOSUPPORT_DISTINCT, 1.0, None),
        (_rescaled(_NOSUPPORT_DISTINCT, 10**2.5, seed=4), 10**2.5, None),
        _merged_blowup(_NOSUPPORT_DISTINCT, 4, seed=5),
    ],
    ids=["nosupport3", "nosupport3_c1e+2.5", "nosupport3_blowup4"],
)
def test_atom_sweep_solves_bit_identically(a, c, merged):
    a = np.asarray(a, dtype=float)
    r, cls = merged if merged is not None else (a, np.arange(len(a)))
    etas = [e * math.sqrt(c) for e in (1e-4, 1e-6, 1e-8)]
    ys = _reference_axis_sweep(r, etas, 1e-12)
    estimates = tuple(eta * float(y[cls].mean()) for eta, y in zip(etas, ys))
    assert atom_mass_estimate(a, eta_grid=etas).estimates == estimates


def test_fortran_ordered_profile_solves_bit_identically():
    # a profile is stored in C order whatever the layout of its input, so a
    # column-major copy solves to the same bits: on a column-major profile
    # the real matvec takes another BLAS kernel, which rounds differently
    taus, z = np.linspace(-2.5, 2.5, 11), 0.5 + 1e-3j
    for k in (6, 12, 40):
        a = _random_profile(k, k=k)
        f = np.asfortranarray(a)
        assert dyson._solver_system(f)[1].flags.c_contiguous
        x, y = solve_imaginary_axis(f, 1e-6), solve_imaginary_axis(a, 1e-6)
        assert np.array_equal(x.v, y.v) and x.residual == y.residual
        x, y = solve_upper_half_plane(f, z), solve_upper_half_plane(a, z)
        assert np.array_equal(x.m, y.m) and x.residual == y.residual
        x, y = (density_profile(b, taus, epsilon=1e-6) for b in (f, a))
        assert np.array_equal(x.rho, y.rho)


def test_blowup_density_solves_bit_identically():
    # 201 points on a profile of dimension 200 with ten distinct rows
    big, _, (r, cls) = _merged_blowup(BIG_EXAMPLE, 20, seed=6)
    taus = np.linspace(-2.5, 2.5, 201)
    rho = _reference_density(r, cls, taus, 1e-6)
    assert np.array_equal(density_profile(big, taus, epsilon=1e-6).rho, rho)


# The predictor moves the start of each solve, so outputs change in their
# last digits only: within a bound fixed before the outputs were
# re-captured, relative to the previous-point rule (each point and each
# continuation stage started from the previous solution).
_AGREEMENT = 1e-9


def _relative_gap(x, y):
    """Largest entrywise |x - y| / |y|, in modulus for complex entries."""
    x, y = np.asarray(x), np.asarray(y)
    return float(np.max(np.abs(x - y) / np.abs(y)))


@pytest.mark.parametrize("a, c, merged", _KERNEL_CASES, ids=_KERNEL_IDS)
def test_predicted_solves_agree_with_the_previous_point_rule(a, c, merged):
    # m is compared in modulus: outside the spectrum Im m lies far below
    # |m|, and the tolerance fixes Im m only relative to |m|
    a = np.asarray(a, dtype=float)
    r, cls = merged if merged is not None else (a, np.arange(len(a)))
    q = math.sqrt(c)
    for eta in (1e-2 * q, 1e-6 * q, 1e-10 * q):
        y, _ = _reference_solve(r, eta, 1.0, 1e-12, rule=_previous_solution)
        assert _relative_gap(solve_imaginary_axis(a, eta).v, y[cls]) <= _AGREEMENT
    for z in (0.5 + 1e-3j, 1e-3j, 1.0 + 1e-6j):
        y, _ = _reference_solve(r, z * q, -1.0, 1e-10, rule=_previous_solution)
        assert _relative_gap(solve_upper_half_plane(a, z * q).m, y[cls]) <= _AGREEMENT
    etas = empirical_exponents(a, eta_min=1e-10 * q, eta_max=1e-2 * q).eta.tolist()
    zs = [complex(tau, 1e-6 * q) for tau in np.linspace(-2.5, 2.5, 51) * q]
    for points, sign, tol in ((etas, 1.0, 1e-12), (zs, -1.0, 1e-10)):
        ys, _ = _reference_sweep(r, points, sign, tol, _previous_solution)
        with np.errstate(all="ignore"):  # as the solvers
            xs = [x for x, _ in dyson._sweep(a, points, tol)]
        assert max(_relative_gap(x, y[cls]) for x, y in zip(xs, ys)) <= _AGREEMENT


@pytest.mark.parametrize(
    "a, sign, tol, points",
    [
        (ARROW, -1.0, 1e-10, [complex(tau, 1e-6) for tau in np.linspace(-2.5, 2.5, 1001)]),
        (CHAIN3, 1.0, 1e-12, empirical_exponents(CHAIN3).eta.tolist()),
    ],
    ids=["arrow_curve", "chain3_fit"],
)
def test_the_predictor_saves_newton_steps(a, sign, tol, points):
    # one Newton step corrects most predicted starts: 1151 iterations on
    # the arrow curve against 2379 by the previous-point rule, and 86
    # against 156 on the exponent fit's grid
    with np.errstate(all="ignore"):  # as the solvers
        new = sum(its for _, its in dyson._sweep(a, points, tol))
    _, old = _reference_sweep(a, points, sign, tol, _previous_solution)
    assert new <= 0.6 * sum(old)


@pytest.mark.parametrize(
    "taus",
    [
        [0.3] * 4 + [0.4],
        [0.8, 0.5, 0.2, -0.1, -0.4, -0.7],
        [0.1, 0.4, 0.2, 0.2, -0.3, 0.5, 0.1, 0.1],
    ],
    ids=["repeated", "descending", "non_monotone"],
)
def test_density_on_unordered_grids(taus):
    # repeated points leave fewer than three distinct points to extrapolate
    # through: no zero division and no warning, and each point is its
    # one-point solve
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = density_profile(ARROW, taus, epsilon=1e-3)
    for tau, rho in zip(taus, curve.rho):
        one = density_profile(ARROW, [tau], epsilon=1e-3).rho[0]
        assert abs(rho / one - 1.0) <= _AGREEMENT


def test_atom_mass_on_a_repeated_grid():
    grid = (1e-4,) * 3 + (1e-6,)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimates = atom_mass_estimate(NOSUPPORT3, eta_grid=grid).estimates
    for eta, estimate in zip(grid, estimates):
        one = atom_mass_estimate(NOSUPPORT3, eta_grid=(eta,)).estimates[0]
        assert abs(estimate / one - 1.0) <= _AGREEMENT


def test_merged_rows_with_a_negative_zero():
    # -0.0 makes rows 3 and 5 byte-different from rows 2 and 4: five
    # classes instead of three, and the same solution
    pos = np.kron(CHAIN3, np.ones((2, 2)))
    neg = pos.copy()
    neg[3, 5] = neg[5, 3] = -0.0
    assert dyson._lumped(pos)[0].shape == (3, 3)
    assert dyson._lumped(neg)[0].shape == (5, 5)
    for eta in (1e-1, 1e-4):
        x, y = solve_imaginary_axis(neg, eta), solve_imaginary_axis(pos, eta)
        assert x.residual < 1e-12
        assert np.max(np.abs(x.v / y.v - 1.0)) < 1e-12
    x, y = solve_upper_half_plane(neg, 0.4 + 1e-3j), solve_upper_half_plane(pos, 0.4 + 1e-3j)
    assert x.residual < 1e-10
    assert np.max(np.abs(x.m / y.m - 1.0)) < 1e-12


# --- variational characterization -------------------------------------------------


def test_variational_scalar_value():
    assert variational_value(ONES1, np.ones(1), 0.0) == pytest.approx(0.5)


def test_variational_minimum_at_solution():
    eta = 0.1
    v = solve_imaginary_axis(CHAIN3, eta).v
    j_v = variational_value(CHAIN3, v, eta)
    assert j_v <= variational_value(CHAIN3, np.ones(3), eta)
    assert variational_value(CHAIN3, v + 0.1, eta) > j_v
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = v * np.exp(rng.normal(scale=0.3, size=3))
        assert variational_value(CHAIN3, x, eta) >= j_v


def test_variational_rejects_nonpositive():
    with pytest.raises(NonPositiveInputError):
        variational_value(ONES1, np.zeros(1), 1.0)


@pytest.mark.parametrize("x", [[math.inf, 1.0], [math.nan, 1.0]], ids=["inf", "nan"])
def test_variational_rejects_non_finite(x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPositiveInputError, match="finite and strictly positive"):
            variational_value(ARROW, x, 0.1)


@pytest.mark.parametrize(
    "x, eta",
    [([1e200, 1e200], 0.1), ([1e300, 1e-300], 0.1), ([1e308, 1e308], 0.0)],
    ids=["quadratic", "lopsided", "eta0"],
)
def test_variational_overflow_is_inf_without_warning(x, eta):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert variational_value(ARROW, x, eta) == math.inf


# --- empirical power laws ---------------------------------------------------------


@pytest.mark.parametrize(
    "eta_min, eta_max, message",
    [
        (1e-4, math.inf, "eta_max must be a finite real > 0"),
        (1e-4, math.nan, "eta_max must be a finite real > 0"),
        (0.0, 1e-4, "eta_min must be a finite real > 0"),
        (1e-4, 1e-4, "eta_min < eta_max"),
    ],
    ids=["inf", "nan", "zero", "empty"],
)
def test_exponents_reject_bad_grid_bounds(eta_min, eta_max, message):
    with pytest.raises(ValueError, match=message):
        empirical_exponents(ARROW, eta_min=eta_min, eta_max=eta_max)


def test_exponents_flat_profile():
    fit = empirical_exponents(ONES2, eta_min=1e-8, eta_max=1e-2)
    assert fit.predicted_slopes == (0.0,)
    assert abs(fit.fitted_slopes[0]) < 0.01


def test_exponents_arrow():
    fit = empirical_exponents(ARROW)
    assert fit.predicted_slopes == (1 / 3, -1 / 3)
    assert fit.max_deviation < 0.01
    again = empirical_exponents(analyze(ARROW))
    assert np.array_equal(again.block_averages, fit.block_averages)
    assert again.fitted_slopes == fit.fitted_slopes


def test_exponents_chain3():
    fit = empirical_exponents(CHAIN3)
    assert fit.predicted_slopes == (0.5, 0.0, -0.5)
    assert fit.max_deviation < 0.02


def test_exponents_big_example():
    fit = empirical_exponents(BIG_EXAMPLE)
    assert fit.exponents.f == (
        F(-2, 3), F(-1, 3), F(1, 6), F(0), F(-1, 6), F(1, 3), F(2, 3),
    )
    assert fit.max_deviation < 0.05


def test_block_averages_uniform_within_blocks():
    # all components of one block stay within a bounded ratio of each other
    nf_fit = empirical_exponents(BIG_EXAMPLE)
    nf = nf_fit.nf
    for eta in (1e-6, 1e-9):
        v = solve_imaginary_axis(BIG_EXAMPLE, eta).v
        for b in range(nf.n_blocks):
            vals = v[[nf.perm[i] for i in nf.block_indices(b)]]
            assert vals.max() / vals.min() < 1e3


def test_pair_products_bounded():
    # v_i * v_{partner(i)} stays of order one down to tiny eta
    fit = empirical_exponents(BIG_EXAMPLE)
    nf = fit.nf
    for eta in (1e-4, 1e-7, 1e-10):
        v = solve_imaginary_axis(BIG_EXAMPLE, eta).v
        for b in range(nf.n_blocks):
            vb = v[[nf.perm[i] for i in nf.block_indices(b)]].mean()
            vp = v[[nf.perm[i] for i in nf.block_indices(nf.partner(b))]].mean()
            assert 1e-2 < vb * vp < 1e2


# --- rescaled zero-energy data ----------------------------------------------------


def test_rescaled_flat_profile():
    data = rescaled_profile(ONES2)
    assert np.array_equal(data.s0, ONES2)
    assert not data.s1.any()
    assert data.h == (F(1),)
    assert data.succ_sets == ((),)


def test_rescaled_arrow():
    data = rescaled_profile(ARROW)
    assert np.array_equal(data.s0, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(data.s1, [[1.0, 0.0], [0.0, 0.0]])
    assert data.h == (F(2, 3), F(2, 3))
    assert data.succ_sets == ((1,), ())
    assert data.exponents.Q == 3


def test_rescaled_chain3():
    data = rescaled_profile(CHAIN3)
    assert data.h == (F(1, 2),) * 3
    assert data.succ_sets == ((1,), (2,), ())


def test_rescaled_big_example():
    data = rescaled_profile(BIG_EXAMPLE)
    assert data.h == (
        F(1, 3), F(1, 3), F(1, 2), F(1, 3), F(1, 2), F(1, 3), F(1, 3),
    )
    assert data.succ_sets == ((1,), (3,), (6,), (5,), (5,), (6,), ())


def test_rescaled_pair_rates_match():
    rng = np.random.default_rng(11)
    found = 0
    while found < 10:
        k = int(rng.integers(1, 7))
        a = (rng.random((k, k)) < 0.5) * rng.random((k, k))
        s = np.triu(a) + np.triu(a, 1).T
        try:
            data = rescaled_profile(s)
        except Exception:
            continue
        found += 1
        nf = data.nf
        for b in range(nf.n_blocks):
            assert data.h[b] == data.h[nf.partner(b)]
            assert data.h[b] > 0


@pytest.mark.parametrize(
    "eta_pair", [(1e-12,), (3e-12, 2e-12, 1e-12), (), (1e-12, 2e-12)],
    ids=["one", "three", "none", "ascending"],
)
def test_limit_weights_rejects_a_bad_eta_pair(eta_pair):
    with pytest.raises(ValueError, match="eta_pair must be two descending"):
        limit_weights(ARROW, eta_pair=eta_pair)


def test_limit_weights_scalar():
    data = limit_weights(ONES1)
    assert abs(data.w[0] - 1.0) < 1e-9
    assert data.w_residual < 1e-9


def test_limit_weights_arrow():
    data = limit_weights(ARROW)
    assert np.max(np.abs(data.w - 1.0)) < 1e-4
    assert data.w_residual < 1e-4


def test_limit_weights_chain3():
    data = limit_weights(CHAIN3)
    assert np.max(np.abs(data.w - 1.0)) < 1e-4
    assert data.w_residual < 1e-4


def test_limit_weights_big_example():
    data = limit_weights(BIG_EXAMPLE, eta_pair=(2e-15, 1e-15))
    assert data.w_residual < 1e-3
    rr = rescaled_residuals(data)
    assert rr.f0_residual < 1e-3
    assert rr.fl_residual < 1e-3
    assert len(rr.fl_values) == data.nf.M
    again = limit_weights(analyze(BIG_EXAMPLE), eta_pair=(2e-15, 1e-15))
    assert np.array_equal(again.w, data.w)
    assert rescaled_residuals(again).fl_values == rr.fl_values


def test_rescaled_residuals_exact_at_unit_weights():
    from dataclasses import replace

    data = rescaled_profile(ARROW)
    w = np.ones(2)
    data = replace(data, w=w, w_residual=0.0, eta_pair=(0.0, 0.0))
    rr = rescaled_residuals(data)
    # first-order constraint: <w_0, (s1 w)_0> - <w_1> = 1*1 - 1 = 0
    assert rr.fl_values == (0.0,)
    assert rr.f0_residual == 0.0


def test_rescaled_residuals_requires_weights():
    with pytest.raises(ValueError):
        rescaled_residuals(rescaled_profile(ARROW))


# --- atom at zero -----------------------------------------------------------------


def test_atom_mass_exact_and_numeric():
    am = atom_mass_estimate(NOSUPPORT3)
    assert am.kappa_exact == F(1, 3)
    assert abs(am.kappa_numeric - 1 / 3) < 1e-4
    again = atom_mass_estimate(analyze(NOSUPPORT3))
    assert (again.kappa_exact, again.estimates) == (am.kappa_exact, am.estimates)


def test_atom_mass_direct_sum_scaling():
    s4 = np.zeros((4, 4))
    s4[:3, :3] = NOSUPPORT3
    s4[3, 3] = 1.0
    am = atom_mass_estimate(s4)
    assert am.kappa_exact == F(1, 4)
    assert abs(am.kappa_numeric - 0.25) < 1e-4


def test_atom_mass_rejects_supported():
    with pytest.raises(HasSupportError):
        atom_mass_estimate(ONES2)


# --- quantiles --------------------------------------------------------------------


def _semicircle_curve(n=4001):
    taus = np.linspace(0.0, 2.0, n)
    rho = np.sqrt(np.clip(4.0 - taus**2, 0.0, None)) / (2.0 * math.pi)
    return DensityCurve(tau=taus, rho=rho, epsilon=0.0)


def test_quantile_semicircle():
    qf = quantile(_semicircle_curve(), 0.0, 100)
    # near zero the density is 1/pi, so the 1/100 quantile sits at pi/100
    assert qf.gamma == pytest.approx(math.pi / 100, rel=1e-3)
    assert qf.predicted_slope == -1.0


def test_quantile_predicted_slopes():
    curve = _semicircle_curve()
    assert quantile(curve, F(1, 3), 50).predicted_slope == pytest.approx(-1.5)
    assert quantile(curve, F(1, 2), 50).predicted_slope == pytest.approx(-2.0)


@pytest.mark.parametrize("n", [2.5, 100.0, True, 0, -3, "100"])
def test_quantile_rejects_a_non_integer_n(n):
    with pytest.raises(ValueError, match="n must be an integer >= 1"):
        quantile(_semicircle_curve(), 0.0, n)


def test_quantile_accepts_numpy_integers():
    curve = _semicircle_curve()
    assert quantile(curve, 0.0, np.int64(100)) == quantile(curve, 0.0, 100)


def test_quantile_grid_too_coarse():
    coarse = DensityCurve(
        tau=np.linspace(0.0, 2.0, 6),
        rho=np.full(6, 1.0 / math.pi),
        epsilon=0.0,
    )
    with pytest.raises(GridTooCoarseError):
        quantile(coarse, 0.0, 1000)
    with pytest.raises(GridTooCoarseError):
        quantile(_semicircle_curve(), 0.0, 1)  # total mass is 1/2 < 1
