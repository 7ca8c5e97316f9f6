"""Exhaustive and fixed-point references that the tests compare the
library against.

``brute_force_oracle`` re-derives each zero-pattern classification of
:mod:`specdens.patterns` by enumerating permutations and submatrices
(K <= 8); ``grid`` spells a pattern out as its K x K boolean grid,
``fully_indecomposable`` reads full indecomposability off the pipeline's
own fine classes, and ``rows_spread`` tests the strong Hall condition by
enumerating row sets.  ``fixed_point_oracle`` solves a min-max averaging
problem of :mod:`specdens.minmax` by Gauss-Seidel sweeps, independently of
the exact constructive solver, and ``stability_check`` measures how far a
perturbed problem's solution moves against the ``2**ell * max|d|`` bound.
``variational_value`` is the convex functional whose minimiser is the
solution of the Dyson equation on the imaginary axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Mapping, Optional

import numpy as np

from specdens.errors import NoSupportError
from specdens.minmax import BoundaryProblem, ExponentSolution, _validate_structure
from specdens.patterns import ZeroPattern, _fine_classes


class TooLargeError(Exception):
    """The brute-force oracle was called beyond its exhaustive-search limit."""


class PreconditionViolatedError(Exception):
    """A perturbation bound's smallness precondition does not hold."""


# --- zero patterns ----------------------------------------------------------------

_ORACLE_LIMIT = 8


def grid(p: ZeroPattern) -> tuple[tuple[bool, ...], ...]:
    """The K x K boolean grid of a pattern: ``grid(p)[i][j]`` is True iff
    entry (i, j) is present."""
    cells = []
    for row in p.rows:
        flags = [False] * p.k
        for j in row:
            flags[j] = True
        cells.append(tuple(flags))
    return tuple(cells)


def fully_indecomposable(p: ZeroPattern) -> bool:
    """True iff the pattern has a positive diagonal and a single fine class
    (see :func:`specdens.patterns._fine_classes`)."""
    try:
        return max(_fine_classes(p)[1]) == 0
    except NoSupportError:
        return False


def _normalize_query(query: str) -> str:
    return query.replace("_", "").replace("-", "").casefold()


def brute_force_oracle(p: ZeroPattern, query: str):
    """Exhaustive reference for the fast classifications (K <= 8 only).

    query (case/underscore-insensitive):
      - "support": bool, some positive diagonal exists;
      - "total_support": bool, support and every present entry covered;
      - "fid": bool, no p x q zero submatrix with p + q = K;
      - "skeleton": K x K boolean grid of entries on positive diagonals
        (NoSupportError if there is none);
      - "max_zero": (perimeter, I, J) of a maximum-perimeter all-zero
        submatrix with both index sets non-empty, or (0, (), ()) if every
        entry is present.
    """
    if p.k > _ORACLE_LIMIT:
        raise TooLargeError(f"oracle limited to K <= {_ORACLE_LIMIT}, got {p.k}")
    q = _normalize_query(query)
    if q == "support":
        return _oracle_support(p)
    if q == "totalsupport":
        cover = _oracle_on_diagonal(p)
        return cover is not None and cover == grid(p)
    if q == "fid":
        return _oracle_fid(p)
    if q == "skeleton":
        cover = _oracle_on_diagonal(p)
        if cover is None:
            raise NoSupportError("pattern has no positive diagonal")
        return cover
    if q == "maxzero":
        return _oracle_max_zero(p)
    raise ValueError(f"unknown oracle query: {query!r}")


def _oracle_support(p: ZeroPattern) -> bool:
    present = grid(p)
    return any(
        all(present[i][perm[i]] for i in range(p.k))
        for perm in permutations(range(p.k))
    )


def _oracle_on_diagonal(p: ZeroPattern) -> Optional[tuple[tuple[bool, ...], ...]]:
    k, present = p.k, grid(p)
    covered = [[False] * k for _ in range(k)]
    found = False
    for perm in permutations(range(k)):
        if all(present[i][perm[i]] for i in range(k)):
            found = True
            for i in range(k):
                covered[i][perm[i]] = True
    if not found:
        return None
    return tuple(tuple(r) for r in covered)


def _oracle_fid(p: ZeroPattern) -> bool:
    k, present = p.k, grid(p)
    if k == 1:
        return present[0][0]
    idx = range(k)
    for p_rows in range(1, k):
        q_cols = k - p_rows
        for rows in combinations(idx, p_rows):
            for cols in combinations(idx, q_cols):
                if all(not present[i][j] for i in rows for j in cols):
                    return False
    return True


def _oracle_max_zero(p: ZeroPattern):
    k, present = p.k, grid(p)
    best = (0, (), ())
    for p_rows in range(1, k + 1):
        for rows in combinations(range(k), p_rows):
            free = [j for j in range(k) if all(not present[i][j] for i in rows)]
            if free and p_rows + len(free) > best[0]:
                best = (p_rows + len(free), rows, tuple(free))
    return best


def rows_spread(adj) -> bool:
    """Exhaustive reference for row spreading (the strong Hall condition):
    every non-empty set X of rows, ``adj[r]`` listing the columns of row r,
    touches at least |X| + 1 columns."""
    return all(
        len(set().union(*(adj[r] for r in rows))) > size
        for size in range(1, len(adj) + 1)
        for rows in combinations(range(len(adj)), size)
    )


# --- min-max averaging problems ---------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the damped-free fixed-point iteration: float values, the
    last sweep's maximum change, and whether tolerance was reached within
    the sweep budget (non-convergence is reported, not raised)."""

    values: dict
    max_change: float
    sweeps: int
    converged: bool


@dataclass(frozen=True)
class StabilityReport:
    """Perturbed-averaging check.

    g_values solves the averaging identity with an additive perturbation d;
    deviation = max |g - f|; delta is the smallest non-zero gap among values
    of common neighbours (inf when there is none); bound = 2**ell * max|d|
    with ell the longest path of the graph, sharper_bound = 3**(ell/2) *
    max|d|; within_bound says deviation <= bound."""

    g_values: dict
    deviation: float
    delta: float
    bound: float
    sharper_bound: float
    within_bound: bool
    sweeps: int
    converged: bool


def fixed_point_oracle(
    p: BoundaryProblem, max_sweeps: int = 20000, tol: float = 1e-13
) -> OracleResult:
    """Independent floating-point iteration of the averaging identity.

    Gauss-Seidel sweeps in topological order with the boundary pinned and
    interior values started at 0. Non-convergence within the sweep budget is
    reported through the converged flag, not raised."""
    pos, succ, pred, topo = _validate_structure(p)
    g = {v: 0.0 for v in p.vertices}
    for y, fy in p.boundary_values.items():
        g[y] = float(Fraction(fy))
    interior = [v for v in topo if v not in p.boundary_values]
    change = math.inf
    sweeps = 0
    while sweeps < max_sweeps and change > tol:
        change = 0.0
        for x in interior:
            new = 0.5 * (min(g[u] for u in succ[x]) + max(g[u] for u in pred[x]))
            change = max(change, abs(new - g[x]))
            g[x] = new
        sweeps += 1
    return OracleResult(g, change, sweeps, change <= tol)


def stability_check(
    p: BoundaryProblem,
    solution: ExponentSolution,
    d: Mapping,
    tol: float = 1e-12,
    max_sweeps: int = 100_000,
) -> StabilityReport:
    """Solve the perturbed averaging problem and compare with the bound.

    The perturbation d maps vertices to floats; g is computed by damped
    (factor 1/2) Gauss-Seidel sweeps of g(x) = (min succ g + max pred g)/2 +
    d(x) with boundary pinned at f(y) + d(y). PreconditionViolatedError is
    raised when max|g - f| fails to sit strictly below half the smallest
    non-zero common-neighbour gap delta, the regime in which the
    2**ell * max|d| bound is asserted."""
    pos, succ, pred, topo = _validate_structure(p)
    f_exact = solution.values
    f = {v: float(f_exact[v]) for v in p.vertices}
    dmap = {v: float(d.get(v, 0.0)) for v in p.vertices}

    g = dict(f)
    for y in p.boundary_values:
        g[y] = float(Fraction(p.boundary_values[y])) + dmap[y]
    interior = [v for v in topo if v not in p.boundary_values]
    change = math.inf
    sweeps = 0
    while sweeps < max_sweeps and change > tol:
        change = 0.0
        for x in interior:
            target = 0.5 * (
                min(g[u] for u in succ[x]) + max(g[u] for u in pred[x])
            ) + dmap[x]
            new = 0.5 * g[x] + 0.5 * target
            change = max(change, abs(new - g[x]))
            g[x] = new
        sweeps += 1

    # smallest non-zero gap among values of common direct neighbours
    delta: Optional[Fraction] = None
    for x in interior:
        for group in (pred[x], succ[x]):
            for i, u in enumerate(group):
                for v in group[i + 1:]:
                    gap = abs(f_exact[u] - f_exact[v])
                    if gap != 0 and (delta is None or gap < delta):
                        delta = gap
    delta_f = math.inf if delta is None else float(delta)

    deviation = max(abs(g[v] - f[v]) for v in p.vertices)
    if not deviation < delta_f / 2:
        raise PreconditionViolatedError(
            f"perturbed solution deviates by {deviation}, not below "
            f"delta/2 = {delta_f / 2}"
        )

    ell = _longest_path_length(p.vertices, p.edges, pos, succ, topo)
    dnorm = max(abs(x) for x in dmap.values()) if dmap else 0.0
    bound = (2.0 ** ell) * dnorm
    sharper = (3.0 ** (ell / 2.0)) * dnorm
    return StabilityReport(
        g, deviation, delta_f, bound, sharper,
        deviation <= bound * (1 + 1e-12) + 1e-300, sweeps, change <= tol,
    )


def _longest_path_length(vertices, edges, pos, succ, topo) -> int:
    depth = {v: 0 for v in vertices}
    for v in reversed(topo):
        for u in succ[v]:
            depth[v] = max(depth[v], depth[u] + 1)
    return max(depth.values()) if depth else 0


# --- Dyson equation ----------------------------------------------------------------


def variational_value(s, x, eta: float) -> float:
    """Value of the strictly convex functional whose unique minimiser over
    positive vectors is the solution ``v(eta)`` of ``1/v = eta + S v``
    (Ajanki, Erdős and Krüger, arXiv:1506.05095):

        J(x) = <x, S x> / 2 - <log x> + eta <x>,

    with normalized averages ``<y> = mean(y)``.  ValueError unless ``x`` is
    finite and ``x > 0`` entrywise."""
    a = np.asarray(s, dtype=float)
    x = np.asarray(x, dtype=float)
    if not ((x > 0) & np.isfinite(x)).all():
        raise ValueError("x must be finite and strictly positive")
    return float(0.5 * np.mean(x * (a @ x)) - np.mean(np.log(x)) + eta * np.mean(x))
