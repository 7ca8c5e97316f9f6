"""Tests for min-max averaging problems and block exponents."""

import random
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import specdens.minmax
import specdens.patterns
from specdens.errors import (
    BadBoundaryError,
    InfeasibleError,
    NotDAGError,
)
from specdens.minmax import (
    BoundaryProblem,
    analyze,
    index_exponents,
    relation_problem,
    solve_min_max,
    verify_solution,
)
from specdens.normal_form import (
    build_relation, no_support_normal_form, pattern_of, symmetric_normal_form,
)
from specdens.patterns import maximal_zero_submatrix

from oracles import PreconditionViolatedError, fixed_point_oracle, stability_check
from test_normal_form import BIG_EXAMPLE, branchy_mask_form
from test_report import zero_corner


def chain_problem(n_interior):
    """source -> x1 -> ... -> xn -> sink with boundary -1 / +1."""
    vertices = ("s", *range(n_interior), "t")
    edges = []
    prev = "s"
    for i in range(n_interior):
        edges.append((prev, i))
        prev = i
    edges.append((prev, "t"))
    return BoundaryProblem(vertices, tuple(edges), {"s": F(-1), "t": F(1)})


# --- frozen examples ---------------------------------------------------------------


def test_single_interior_chain():
    sol = solve_min_max(chain_problem(1))
    assert sol.values[0] == 0
    assert sol.deltas == (F(1),)


def test_two_interior_chain():
    sol = solve_min_max(chain_problem(2))
    assert (sol.values[0], sol.values[1]) == (F(-1, 3), F(1, 3))
    assert sol.deltas == (F(2, 3),)
    assert sol.stage_sets[0] == frozenset({"s", "t"})
    assert sol.stage_sets[1] == frozenset({"s", "t", 0, 1})


def test_three_vertex_relation():
    rel = build_relation(symmetric_normal_form([[1, 1, 1], [1, 1, 0], [1, 0, 0]]))
    sol = solve_min_max(relation_problem(rel))
    assert [sol.values[i] for i in range(3)] == [F(-1, 2), F(0), F(1, 2)]
    assert sol.deltas == (F(1, 2),)


def test_index_exponents_single_block():
    ex = index_exponents(build_relation(symmetric_normal_form([[1.0]])))
    assert ex.f == (F(0),)
    assert ex.sigma == 0
    assert ex.Q == 1


def test_index_exponents_arrow():
    ex = index_exponents(build_relation(symmetric_normal_form([[1, 1], [1, 0]])))
    assert ex.f == (F(-1, 3), F(1, 3))
    assert ex.sigma == F(1, 3)
    assert ex.Q == 3


def test_index_exponents_k3():
    ex = index_exponents(
        build_relation(symmetric_normal_form([[1, 1, 1], [1, 1, 0], [1, 0, 0]]))
    )
    assert ex.f == (F(-1, 2), F(0), F(1, 2))
    assert ex.sigma == F(1, 2)
    assert ex.Q == 2


def test_index_exponents_branchy_mask():
    rel = build_relation(branchy_mask_form())
    ex = index_exponents(rel)
    assert ex.f == (
        F(-2, 3), F(-2, 9), F(-1, 3), F(0), F(1, 3), F(2, 9), F(2, 3),
    )
    assert ex.sigma == F(2, 3)
    assert ex.Q == 9
    sol = solve_min_max(relation_problem(rel))
    assert sol.deltas == (F(1, 3), F(4, 9))


def test_index_exponents_big_example():
    # Per-position exponents of the canonical form, plus the mapping back to
    # original indices.  Both were cross-checked against direct numerical
    # solutions of 1/v = eta + Sv down to eta = 1e-12 (fitted slopes of
    # log v_i vs log eta match -f to three decimals).
    from test_normal_form import BIG_EXAMPLE

    nf = symmetric_normal_form(BIG_EXAMPLE)
    ex = index_exponents(build_relation(nf))
    assert ex.f == (F(-2, 3), F(-1, 3), F(1, 6), F(0), F(-1, 6), F(1, 3), F(2, 3))
    assert ex.sigma == F(2, 3)
    assert ex.Q == 6
    by_original = {}
    for b in range(nf.n_blocks):
        for i in nf.block_indices(b):
            by_original[nf.perm[i]] = ex.f[b]
    assert by_original == {
        9: F(-2, 3), 1: F(-1, 3), 3: F(-1, 3), 4: F(1, 6), 6: F(0),
        8: F(0), 0: F(-1, 6), 2: F(1, 3), 7: F(1, 3), 5: F(2, 3),
    }


def test_antidiagonal_pair_is_regular():
    ex = index_exponents(build_relation(symmetric_normal_form([[0, 1], [1, 0]])))
    assert ex.f == (F(0), F(0))
    assert ex.sigma == 0


# --- verification and oracle -----------------------------------------------------------


def test_verify_solution_accepts_and_rejects():
    p = chain_problem(2)
    sol = solve_min_max(p)
    assert verify_solution(p, sol.values)
    bad = dict(sol.values)
    bad[0] = F(0)
    assert not verify_solution(p, bad)
    assert not verify_solution(p, {**sol.values, "s": F(-2)})


def test_oracle_matches_exact_solution():
    for p in (chain_problem(1), chain_problem(2), chain_problem(5)):
        sol = solve_min_max(p)
        orc = fixed_point_oracle(p)
        assert orc.converged
        for v in p.vertices:
            assert abs(orc.values[v] - float(sol.values[v])) < 1e-9


def test_oracle_on_branchy_relation():
    p = relation_problem(build_relation(branchy_mask_form()))
    sol = solve_min_max(p)
    orc = fixed_point_oracle(p)
    assert orc.converged
    for v in p.vertices:
        assert abs(orc.values[v] - float(sol.values[v])) < 1e-9


# --- errors -----------------------------------------------------------------------------


def test_cycle_raises():
    p = BoundaryProblem(("a", "b"), (("a", "b"), ("b", "a")), {"a": F(0)})
    with pytest.raises(NotDAGError):
        solve_min_max(p)


def test_self_loop_raises():
    p = BoundaryProblem(("a",), (("a", "a"),), {"a": F(0)})
    with pytest.raises(NotDAGError):
        solve_min_max(p)


def test_missing_boundary_raises():
    p = BoundaryProblem(("a", "b"), (("a", "b"),), {"a": F(0)})
    with pytest.raises(BadBoundaryError):
        solve_min_max(p)


def test_decreasing_boundary_raises():
    p = BoundaryProblem(
        ("s", 0, "t"), (("s", 0), (0, "t")), {"s": F(1), "t": F(-1)}
    )
    with pytest.raises(InfeasibleError):
        solve_min_max(p)


def test_decreasing_direct_edge_raises():
    p = BoundaryProblem(("s", "t"), (("s", "t"),), {"s": F(1), "t": F(0)})
    with pytest.raises(InfeasibleError):
        solve_min_max(p)


# --- stability ---------------------------------------------------------------------------


def test_stability_small_perturbation_within_bound():
    p = relation_problem(build_relation(branchy_mask_form()))
    sol = solve_min_max(p)
    d = {v: 1e-6 * ((hash(repr(v)) % 7) - 3) for v in p.vertices}
    rep = stability_check(p, sol, d)
    assert rep.converged
    assert rep.within_bound
    assert rep.deviation <= rep.sharper_bound * 1.0000001


def test_stability_zero_perturbation_is_exact():
    p = chain_problem(3)
    sol = solve_min_max(p)
    rep = stability_check(p, sol, {})
    assert rep.deviation < 1e-12


def branching_problem():
    """Chain s->a->b->c->t plus shortcut s->d->c.

    Vertex c has two direct predecessors with distinct values (b at 0,
    d at -1/4), so the smallest sibling gap is 1/4 and the closeness
    precondition of the stability estimate is falsifiable.
    """
    return BoundaryProblem(
        ("s", "a", "b", "c", "d", "t"),
        (("s", "a"), ("a", "b"), ("b", "c"), ("c", "t"), ("s", "d"), ("d", "c")),
        {"s": F(-1), "t": F(1)},
    )


def test_stability_finite_sibling_gap():
    p = branching_problem()
    sol = solve_min_max(p)
    assert sol.values["b"] == F(0) and sol.values["d"] == F(-1, 4)
    rep = stability_check(p, sol, {v: 1e-9 for v in p.vertices})
    assert rep.delta == F(1, 4)
    assert rep.within_bound


def test_stability_precondition_violation():
    # A uniform shift of 0.9 moves the perturbed solution far beyond half
    # the smallest sibling gap (1/8), so the check must refuse to certify.
    p = branching_problem()
    sol = solve_min_max(p)
    with pytest.raises(PreconditionViolatedError):
        stability_check(p, sol, {v: 0.9 for v in p.vertices})


# --- random solvable problems --------------------------------------------------------------


def random_solvable_problem(rng, max_vertices=12):
    """Random DAG with a reachability-monotone boundary potential."""
    n = rng.randint(1, max_vertices)
    labels = list(range(n))
    rng.shuffle(labels)  # topological order is a random labelling
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < rng.choice([0.15, 0.3, 0.5]):
                edges.append((labels[i], labels[j]))
    succ = {v: [w for (u, w) in edges if u == v] for v in labels}
    pred = {v: [u for (u, w) in edges if w == v] for v in labels}
    potential = {}
    increments = [F(0), F(1, 4), F(1, 2), F(1), F(3, 2)]
    for i in range(n):
        v = labels[i]
        base = [potential[u] + rng.choice(increments) for u in pred[v]]
        potential[v] = max(base, default=F(0)) if pred[v] else F(0)
    boundary = {
        v for v in labels if not pred[v] or not succ[v]
    }
    for v in labels:
        if rng.random() < 0.2:
            boundary.add(v)
    vertices = tuple(sorted(labels))
    return BoundaryProblem(
        vertices, tuple(edges), {v: potential[v] for v in sorted(boundary)}
    )


def test_random_problems_solve_verify_and_match_oracle():
    rng = random.Random(101)
    for _ in range(120):
        p = random_solvable_problem(rng)
        sol = solve_min_max(p)
        assert verify_solution(p, sol.values)
        assert all(a < b for a, b in zip(sol.deltas, sol.deltas[1:]))
        orc = fixed_point_oracle(p)
        if orc.converged:
            for v in p.vertices:
                assert abs(orc.values[v] - float(sol.values[v])) < 1e-9


def _max_zero_tag(s):
    return maximal_zero_submatrix(pattern_of(s)).tag


def _analyze_tag(s):
    return analyze(s).support_class


@pytest.mark.parametrize(
    "classify, entries, support_class, calls",
    [
        (_analyze_tag, [[1, 1], [1, 0]], "SupportOnly", 2),
        (_analyze_tag, BIG_EXAMPLE, "SupportOnly", 2),
        (_analyze_tag, [[0, 0, 1], [0, 0, 1], [1, 1, 1]], "NoSupport", 1),
        (_max_zero_tag, [[1, 1], [1, 0]], "SupportOnly", 1),
    ],
    ids=["arrow", "reference", "no_support", "max_zero_arrow"],
)
def test_analyze_matching_calls(monkeypatch, classify, entries, support_class,
                                calls):
    # one matching gives the support test, the skeleton and the sides; the
    # audit checks every anti-diagonal block against one more matching
    count = _count_matchings(monkeypatch)
    assert classify(np.array(entries, dtype=float)) == support_class
    assert count[0] == calls


def _count_matchings(monkeypatch) -> list[int]:
    """Count every ``augmenting_matching`` call of the package in the
    returned one-element list."""
    original = specdens.patterns.augmenting_matching
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("specdens")
                and getattr(module, "augmenting_matching", None) is original):
            monkeypatch.setattr(module, "augmenting_matching", counted)
    return count


def test_no_support_matching_calls_do_not_grow(monkeypatch):
    # the audit of the splitting checks its witness with a fixed number of
    # matchings, not one per column
    count = _count_matchings(monkeypatch)
    calls = []
    for k in (20, 200):
        count[0] = 0
        form = no_support_normal_form(zero_corner(k, 3 * k // 5))
        assert form.kappa == F(k // 5, k)
        calls.append(count[0])
    assert calls[0] == calls[1]


@pytest.mark.parametrize(
    "entries", [[[1, 1], [1, 0]], BIG_EXAMPLE], ids=["arrow", "reference"]
)
def test_analyze_finds_the_longest_chain_once(monkeypatch, entries):
    # the exponents' sigma = l/(l+2) self-check reads the chain that analyze
    # keeps; the public index_exponents still finds its own
    original = specdens.minmax.longest_chain
    count = [0]

    def counted(rel):
        count[0] += 1
        return original(rel)

    monkeypatch.setattr(specdens.minmax, "longest_chain", counted)
    an = analyze(np.array(entries, dtype=float))
    assert count[0] == 1
    assert index_exponents(an.relation) == an.exponents
    assert count[0] == 2
