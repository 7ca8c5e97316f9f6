"""Tests for the self-consistent solvers and the rescaled zero-energy data."""

import math
import time
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
    base = solve_imaginary_axis(CHAIN3, 2e-8)
    warm = solve_imaginary_axis(CHAIN3, 1e-8, start=base.v)
    cold = solve_imaginary_axis(CHAIN3, 1e-8)
    assert np.max(np.abs(warm.v / cold.v - 1.0)) < 1e-9
    assert warm.iterations < cold.iterations


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
    with pytest.raises(NonPositiveInputError):
        solve_imaginary_axis(ONES1, 1.0, start=np.array([-1.0]))


@pytest.mark.parametrize(
    "solve",
    [
        lambda: solve_upper_half_plane(ARROW, 0.3 + 1e-3j, start=[1e308j, 1e308j]),
        lambda: solve_upper_half_plane(
            ARROW, 0.3 + 1e-3j, start=[math.inf * 1j, 1j]
        ),
        lambda: solve_imaginary_axis(ARROW, 1e-3, start=[math.inf, 1.0]),
    ],
    ids=["plane_1e308", "plane_inf", "axis_inf"],
)
def test_a_non_finite_residual_is_no_convergence(solve):
    # a start whose residual is NaN must neither pass as converged nor
    # run out the iteration budget
    with pytest.raises(SpecdensError):
        solve()


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
            assert step(a, 0.0, 1.0, x, u) is None
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


_SOLVERS = {
    "axis": lambda **kw: solve_imaginary_axis(ARROW, 0.3, **kw),
    "plane": lambda **kw: solve_upper_half_plane(ARROW, 0.3 + 1e-3j, **kw),
    "density": lambda **kw: density_profile(ARROW, [0.3], epsilon=1e-3, **kw),
    "exponents": lambda **kw: empirical_exponents(ARROW, **kw),
    "weights": lambda **kw: limit_weights(ARROW, **kw),
    "atom": lambda **kw: atom_mass_estimate(NOSUPPORT3, **kw),
}
_BAD_CONTROLS = {
    "tol": (math.nan, -1.0, 0.0, math.inf),
    "max_iter": (-5, 0, True, 2.0),
    "points_per_decade": (0, -3, math.nan),
}


@pytest.mark.parametrize("solver, name", [
    (solver, name)
    for solver, names in [
        ("axis", ("tol", "max_iter")),
        ("plane", ("tol", "max_iter")),
        ("density", ("tol", "max_iter")),
        ("exponents", ("tol", "points_per_decade")),
        ("weights", ("tol",)),
        ("atom", ("tol",)),
    ]
    for name in names
])
def test_solver_controls_are_checked_up_front(solver, name):
    # before, tol = nan, -1 or 0 spent the whole 100k-iteration budget
    for value in _BAD_CONTROLS[name]:
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=name):
            _SOLVERS[solver](**{name: value})
        assert time.perf_counter() - t0 < 0.5


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


def test_plane_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_upper_half_plane(ONES1, 1.0 - 0.5j)
    with pytest.raises(ValueError):
        solve_upper_half_plane(ONES1, 1.0)
    with pytest.raises(ImaginarySignLostError):
        solve_upper_half_plane(ONES1, 1j, start=np.array([-1j]))


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


def _reference_solve(r, z, c, tol, start=None):
    """The solve on the merged matrix ``r`` with the reference kernel:
    continuation from the cold start of each solver, or one stage from
    ``start`` that gives up when it stalls.  Returns the solution on ``r``
    and the iteration count."""
    budget = dyson._Budget(100_000)
    if start is not None:
        x, path = start, [z]
    elif c > 0:
        path = dyson._continuation_path(z)
        x = 1.0 / (path[0] + r.sum(axis=1) / path[0])
    else:
        path = [complex(z.real, im) for im in dyson._continuation_path(z.imag)]
        x = np.full(r.shape[0], -1.0 / path[0], dtype=complex)
    floor = 1e-10 if c > 0 else 1e-9
    for point in path:
        x, _ = _reference_stage(
            r, point, c, x, tol if point == z else max(tol, floor), budget,
            give_up=start is not None,
        )
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


def _reference_density(r, cls, taus, epsilon):
    """The density curve with the reference kernel: each point warm-started
    from its predecessor, cold when that stalls."""
    rho, y = [], None
    for tau in taus:
        z = complex(tau, epsilon)
        try:
            y = _reference_solve(r, z, -1.0, 1e-10, start=y)[0]
        except NonConvergenceError:
            y = _reference_solve(r, z, -1.0, 1e-10)[0]
        rho.append(y[cls].imag.mean() / math.pi)
    return rho


def _reference_axis_sweep(r, etas, tol):
    """The solution at each of the descending ``etas`` with the reference
    kernel, warm-started from the previous point as the axis sweeps do:
    one stage that does not give up."""
    ys, y = [], None
    for eta in etas:
        if y is None:
            y = _reference_solve(r, eta, 1.0, tol)[0]
        else:
            y = _reference_stage(r, eta, 1.0, y, tol, dyson._Budget(100_000))[0]
        ys.append(y)
    return ys


_KERNEL_CASES = [
    (ARROW, 1.0, None),
    (CHAIN3, 1.0, None),
    (BIG_EXAMPLE, 1.0, None),
    (_random_profile(11), 1.0, None),
    (_rescaled(BIG_EXAMPLE, 10**2.5, seed=1), 10**2.5, None),
    (_rescaled(BIG_EXAMPLE, 10**-2.5, seed=2), 10**-2.5, None),
    _merged_blowup(BIG_EXAMPLE, 3, seed=3),
]
_KERNEL_IDS = ["arrow", "chain3", "big", "random", "big_c1e+2.5", "big_c1e-2.5",
               "big_blowup3"]


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
    # warm starts far from the solution take the damped sweeps, after a
    # failed Newton step and after a watchdog revert, and still match the
    # reference kernel bit for bit
    steps = _kernel_steps(monkeypatch)
    if isinstance(z, float):
        sol = solve_imaginary_axis(ARROW, z, start=start)
        x, c, tol = sol.v, 1.0, 1e-12
    else:
        sol = solve_upper_half_plane(ARROW, z, start=start)
        x, c, tol = sol.m, -1.0, 1e-10
    assert steps.count("n") == failed_newton
    assert steps.count("D") > failed_newton  # a watchdog revert happened
    budget, x0 = dyson._Budget(100_000), np.asarray(start, dtype=x.dtype)
    with np.errstate(all="ignore"):  # as the solvers: 1e200 overflows at first
        y, _ = _reference_stage(ARROW, z, c, x0, tol, budget)
    assert np.array_equal(x, y)
    assert sol.residual == _reference_residual(ARROW, z, c, y)
    assert sol.iterations == budget.used == len(steps) - steps.count("n")


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


def test_blowup_density_solves_bit_identically():
    # 201 points on a profile of dimension 200 with ten distinct rows
    big, _, (r, cls) = _merged_blowup(BIG_EXAMPLE, 20, seed=6)
    taus = np.linspace(-2.5, 2.5, 201)
    rho = _reference_density(r, cls, taus, 1e-6)
    assert np.array_equal(density_profile(big, taus, epsilon=1e-6).rho, rho)


def test_merged_rows_accept_a_warm_start_that_varies_within_a_class():
    big, _ = _blown_up(BIG_EXAMPLE, 3, seed=5)
    noise = 1.0 + 0.3 * np.random.default_rng(5).uniform(-1.0, 1.0, big.shape[0])
    cold = solve_imaginary_axis(big, 1e-2)
    warm = solve_imaginary_axis(big, 1e-2, start=cold.v * noise)
    assert np.max(np.abs(warm.v / cold.v - 1.0)) < 1e-12
    cold = solve_upper_half_plane(big, 0.3 + 1e-2j)
    warm = solve_upper_half_plane(big, 0.3 + 1e-2j, start=cold.m * noise)
    assert np.max(np.abs(warm.m / cold.m - 1.0)) < 1e-12


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
    "eta_min, eta_max",
    [(1e-4, math.inf), (1e-4, math.nan), (0.0, 1e-4), (1e-4, 1e-4)],
    ids=["inf", "nan", "zero", "empty"],
)
def test_exponents_reject_bad_grid_bounds(eta_min, eta_max):
    with pytest.raises(ValueError, match="eta_min < eta_max"):
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
