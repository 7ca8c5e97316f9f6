"""End-to-end acceptance suite.

One test per shipped guarantee, each asserting the stated numerical
tolerance and wall-clock budget:

1. frozen classification of the 10x10 reference pattern, invariant under
   random symmetric permutations;
2. Monte Carlo smallest-singular-value slopes for the two block profiles
   with a power-law atom (fast tier by default; set ACCEPTANCE_FULL=1 for
   the large-size sweep with the tighter bands);
3. per-block growth exponents measured from the solver match the exact
   predictions;
4. atom mass of a no-support profile, exact and numeric;
5. zero-energy limit weights satisfy both limit systems to 1e-3 on every
   supported test profile;
6. min-max boundary solver: exact self-certification, independent
   fixed-point oracle agreement, strictly increasing stage slopes, and the
   perturbation bound, on 500 random solvable DAGs;
7. fast pattern classifications agree with exhaustive enumeration on 1000
   random patterns;
8. closed-form density checks for the scalar profile;
9. existence of a positive power-law prefactor: tau**sigma * rho(tau)
   flattens over two decades.
"""

import os
import random
import time
from fractions import Fraction as F

import numpy as np

from specdens.dyson import (
    atom_mass_estimate,
    density_profile,
    empirical_exponents,
    limit_weights,
    rescaled_residuals,
    solve_imaginary_axis,
)
from specdens.minmax import index_exponents, solve_min_max, verify_solution
from specdens.montecarlo import EnsembleConfig, run_sweep
from specdens.normal_form import build_relation, longest_chain, symmetric_normal_form
from specdens.patterns import (
    ZeroPattern,
    fid_skeleton,
    has_support,
    has_total_support,
    maximal_zero_submatrix,
)
from oracles import (
    brute_force_oracle,
    fixed_point_oracle,
    fully_indecomposable,
    grid,
    stability_check,
)
from test_minmax import random_solvable_problem
from test_normal_form import BIG_EXAMPLE

ONES1 = np.ones((1, 1))
ONES2 = np.ones((2, 2))
ONES3 = np.ones((3, 3))
ARROW = np.array([[1.0, 1.0], [1.0, 0.0]])
CHAIN3 = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
NOSUPPORT3 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])

SUPPORTED_PROFILES = (
    ("ones1", ONES1),
    ("ones2", ONES2),
    ("ones3", ONES3),
    ("arrow", ARROW),
    ("chain3", CHAIN3),
    ("big", BIG_EXAMPLE),
)

# The default Monte Carlo tier keeps the suite fast; ACCEPTANCE_FULL=1
# doubles the largest matrix size and tightens the slope bands.
FULL_SWEEP = os.environ.get("ACCEPTANCE_FULL") == "1"
SWEEP_SIZES = (32, 64, 128, 256, 512) if FULL_SWEEP else (32, 64, 128, 256)
ARROW_BAND = (-1.65, -1.35) if FULL_SWEEP else (-1.70, -1.30)
CHAIN_BAND = (-2.15, -1.80) if FULL_SWEEP else (-2.20, -1.80)


def test_reference_pattern_classification():
    # 10x10 reference profile: chain length 4, degree 2/3, one middle block
    # and three pairs with dims {1,1,1,1,2,2,2}; all of it invariant under
    # 100 random symmetric permutations, in under a second.
    t0 = time.perf_counter()
    nf = symmetric_normal_form(BIG_EXAMPLE)
    rel = build_relation(nf)
    assert longest_chain(rel).length == 4
    assert index_exponents(rel).sigma == F(2, 3)
    assert (nf.L, nf.M) == (1, 3)
    assert sorted(nf.dims) == [1, 1, 1, 1, 2, 2, 2]
    rng = random.Random(401)
    for _ in range(100):
        p = list(range(10))
        rng.shuffle(p)
        nf2 = symmetric_normal_form(BIG_EXAMPLE[np.ix_(p, p)])
        assert (nf2.L, nf2.M) == (1, 3)
        assert sorted(nf2.dims) == [1, 1, 1, 1, 2, 2, 2]
        assert longest_chain(build_relation(nf2)).length == 4
    assert time.perf_counter() - t0 < 1.0


def test_smallest_singular_value_scaling():
    # Fitted log-log slope of the mean smallest singular value vs matrix
    # size: the 2-block profile must scale like the -3/2 conjecture and the
    # 3-block profile like -2, within the tier's band, within 15 minutes.
    t0 = time.perf_counter()
    for s, band in ((ARROW, ARROW_BAND), (CHAIN3, CHAIN_BAND)):
        rep = run_sweep(EnsembleConfig(s, SWEEP_SIZES, 200))
        assert band[0] <= rep.slope <= band[1], (rep.slope, band)
    assert time.perf_counter() - t0 <= 900.0


def test_predicted_exponents_match_solver():
    # Per-block slopes of log<v_i> vs log eta on [1e-10, 1e-4] match the
    # exact exponents within 0.02 (0.05 for the 10x10 profile, whose larger
    # exponent denominator amplifies logarithmic corrections).
    t0 = time.perf_counter()
    for s, tol in ((ONES3, 0.02), (ARROW, 0.02), (CHAIN3, 0.02), (BIG_EXAMPLE, 0.05)):
        fit = empirical_exponents(s)
        assert fit.max_deviation <= tol, (fit.max_deviation, tol)
    assert time.perf_counter() - t0 < 30.0


def test_atom_mass_no_support_profile():
    # eta * <v(eta)> at eta = 1e-8 reproduces the exact atom mass 1/3.
    t0 = time.perf_counter()
    am = atom_mass_estimate(NOSUPPORT3, eta_grid=(1e-8,))
    assert am.kappa_exact == F(1, 3)
    assert abs(am.estimates[0] - 1.0 / 3.0) <= 1e-4
    assert time.perf_counter() - t0 < 5.0


def test_zero_energy_limit_residuals():
    # The extrapolated limit weights solve both limit systems to 1e-3 on
    # every supported test profile: the pair-projected product equations
    # and the per-pair constraint functionals.
    for _, s in SUPPORTED_PROFILES:
        data = limit_weights(s, eta_pair=(2e-15, 1e-15))
        assert data.w_residual <= 1e-3, data.w_residual
        rr = rescaled_residuals(data)
        assert rr.f0_residual <= 1e-3, rr.f0_residual
        assert all(abs(x) <= 1e-3 for x in rr.fl_values), rr.fl_values


def test_min_max_solver_property_suite():
    # 500 random solvable boundary problems on DAGs with at most 12
    # vertices: exact self-certification, fixed-point oracle agreement to
    # 1e-9, strictly increasing stage slopes, and the 2**ell perturbation
    # bound for random admissible perturbations, in under 30 seconds.
    t0 = time.perf_counter()
    rng = random.Random(2026)
    for _ in range(500):
        p = random_solvable_problem(rng, 12)
        sol = solve_min_max(p)
        assert verify_solution(p, sol.values)
        assert all(a < b for a, b in zip(sol.deltas, sol.deltas[1:]))
        orc = fixed_point_oracle(p)
        assert orc.converged
        assert all(
            abs(orc.values[v] - float(sol.values[v])) < 1e-9 for v in p.vertices
        )
        d = {v: rng.uniform(-1.0, 1.0) * 1e-12 for v in p.vertices}
        rep = stability_check(p, sol, d)
        assert rep.within_bound, (rep.deviation, rep.bound)
    assert time.perf_counter() - t0 < 30.0


def test_pattern_oracle_equivalence():
    # Fast classifications agree with exhaustive enumeration on 1000 random
    # patterns with K <= 7, in under a minute.
    t0 = time.perf_counter()
    rng = random.Random(2027)
    for _ in range(1000):
        k = rng.randint(1, 7)
        dens = rng.choice([0.2, 0.35, 0.5, 0.7, 0.9])
        p = ZeroPattern.from_matrix(
            [[rng.random() < dens for _ in range(k)] for _ in range(k)]
        )
        sup = has_support(p)
        assert sup == brute_force_oracle(p, "support")
        assert has_total_support(p) == brute_force_oracle(p, "total_support")
        assert fully_indecomposable(p) == brute_force_oracle(p, "fid")
        if sup:
            assert grid(fid_skeleton(p)) == brute_force_oracle(p, "skeleton")
        rows_ok = all(p.rows)
        cols_ok = len({j for row in p.rows for j in row}) == k
        if rows_ok and cols_ok:
            res = maximal_zero_submatrix(p)
            perimeter, _, _ = brute_force_oracle(p, "max_zero")
            if res.tag == "NoSupport":
                assert len(res.witness_i) + len(res.witness_j) == perimeter
                assert perimeter > k
            else:
                assert perimeter <= k
    assert time.perf_counter() - t0 < 60.0


def test_closed_form_density_values():
    # Scalar profile: density at 0 equals 1/pi within 1e-3 at smoothing
    # 1e-4, and v(1) equals (sqrt(5)-1)/2 within 1e-10.
    curve = density_profile(ONES1, np.array([0.0]), epsilon=1e-4)
    assert abs(curve.rho[0] - 1.0 / np.pi) <= 1e-3
    sol = solve_imaginary_axis(ONES1, 1.0)
    assert abs(sol.v[0] - (np.sqrt(5.0) - 1.0) / 2.0) <= 1e-10


def test_density_power_law_prefactor_flattens():
    # tau**sigma * rho(tau) for the 2-block profile (sigma = 1/3) is
    # positive and flat to within 10% relative variation across two decades.
    tau = np.geomspace(1e-5, 1e-3, 17)
    curve = density_profile(ARROW, tau, epsilon=1e-7)
    g = tau ** (1.0 / 3.0) * curve.rho
    assert (g > 0).all()
    assert (g.max() - g.min()) / g.mean() < 0.10
