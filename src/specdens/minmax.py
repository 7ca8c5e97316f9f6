"""Min-max averaging problems on directed acyclic graphs.

Given a DAG, a boundary set containing every vertex with empty past or
future, and monotone boundary values, there is exactly one extension f to
all vertices satisfying, at every interior vertex x,

    f(x) = ( min over successors of x of f  +  max over predecessors of f ) / 2.

The solution is built constructively: repeatedly find, among all pairs of
already-assigned vertices, the path through unassigned vertices minimizing
the value gap per edge, and fill that path with an arithmetic progression.
The per-stage slopes are strictly increasing; applied to the block relation
of a normal form they are exact rationals, the block scaling exponents of
the associated self-consistent Dyson equation.  Every solution is certified
exactly (:func:`verify_solution`) before it is returned.

The module also provides :func:`analyze`, the exact classification of a
profile that every consumer reads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import (
    BadBoundaryError,
    InfeasibleError,
    NoSupportError,
    NotDAGError,
    SelfCheckError,
)
from .normal_form import (
    BlockRelation, ChainResult, NoSupportForm, NormalForm, VarianceProfile,
    as_profile, build_relation, longest_chain, no_support_normal_form,
    symmetric_normal_form,
)

__all__ = [
    "BoundaryProblem",
    "ExponentSolution",
    "IndexExponents",
    "solve_min_max",
    "verify_solution",
    "relation_problem",
    "index_exponents",
    "Analysis",
    "analyze",
]


@dataclass(frozen=True)
class BoundaryProblem:
    """A DAG with boundary data.

    vertices : ordered tuple of hashable labels (the order fixes all
    tie-breaking); edges : directed pairs (u, v) meaning u precedes v;
    boundary_values : mapping from boundary vertices to exact rational
    values. The boundary must contain every vertex with no predecessor or
    no successor.
    """

    vertices: tuple
    edges: tuple[tuple, ...]
    boundary_values: Mapping

    @property
    def boundary_set(self) -> frozenset:
        return frozenset(self.boundary_values)


@dataclass(frozen=True)
class ExponentSolution:
    """Solution of a min-max averaging problem.

    values maps every vertex to its exact rational value; deltas are the
    distinct per-stage slopes in construction order (strictly increasing);
    stage_sets[k] is the set of vertices assigned after stage k
    (stage_sets[0] is the boundary)."""

    values: dict
    deltas: tuple[Fraction, ...]
    stage_sets: tuple[frozenset, ...]


@dataclass(frozen=True)
class IndexExponents:
    """Block scaling exponents of a normal form: exact rational f per block,
    their maximum sigma (the singularity degree), and the least common
    denominator Q of all exponents."""

    f: tuple[Fraction, ...]
    sigma: Fraction
    Q: int


# --- structural helpers ----------------------------------------------------------


def _adjacency(p: BoundaryProblem):
    pos = {v: i for i, v in enumerate(p.vertices)}
    if len(pos) != len(p.vertices):
        raise ValueError("duplicate vertices")
    succ = {v: [] for v in p.vertices}
    pred = {v: [] for v in p.vertices}
    for (u, v) in p.edges:
        if u not in pos or v not in pos:
            raise ValueError(f"edge ({u!r}, {v!r}) uses an unknown vertex")
        if u == v:
            raise NotDAGError(f"self-loop at {u!r}")
        succ[u].append(v)
        pred[v].append(u)
    for v in p.vertices:
        succ[v].sort(key=pos.get)
        pred[v].sort(key=pos.get)
    return pos, succ, pred


def _topological_order(p: BoundaryProblem, pos, succ) -> list:
    indeg = {v: 0 for v in p.vertices}
    for (_, v) in p.edges:
        indeg[v] += 1
    order = sorted((v for v in p.vertices if indeg[v] == 0), key=pos.get)
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        newly = []
        for v in succ[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                newly.append(v)
        order.extend(sorted(newly, key=pos.get))
    if len(order) != len(p.vertices):
        raise NotDAGError("the relation contains a directed cycle")
    return order


def _validate_structure(p: BoundaryProblem):
    pos, succ, pred = _adjacency(p)
    topo = _topological_order(p, pos, succ)
    for y in p.boundary_values:
        if y not in pos:
            raise ValueError(f"boundary vertex {y!r} is not a vertex")
    for v in p.vertices:
        if (not pred[v] or not succ[v]) and v not in p.boundary_values:
            raise BadBoundaryError(
                f"vertex {v!r} has empty past or future but is not boundary"
            )
    return pos, succ, pred, topo


def _check_feasible(p: BoundaryProblem, succ):
    """Boundary data must be monotone along reachability."""
    boundary = list(p.boundary_values)
    for y in boundary:
        seen = {y}
        stack = [y]
        while stack:
            u = stack.pop()
            for w in succ[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        for x in boundary:
            if x in seen and x != y:
                if Fraction(p.boundary_values[x]) < Fraction(p.boundary_values[y]):
                    raise InfeasibleError(
                        f"boundary decreases from {y!r} to reachable {x!r}"
                    )


# --- solver ------------------------------------------------------------------------


def solve_min_max(p: BoundaryProblem) -> ExponentSolution:
    """Construct the unique monotone min-max averaging extension.

    Raises NotDAGError / BadBoundaryError on malformed problems and
    InfeasibleError when the boundary data decreases along reachability.
    The result is self-certified exactly before returning.
    """
    pos, succ, pred, topo = _validate_structure(p)
    _check_feasible(p, succ)
    values: dict = {y: Fraction(v) for y, v in p.boundary_values.items()}
    unassigned = {v for v in p.vertices if v not in values}

    def interior_longest_from(y) -> dict:
        """Longest path length from y to each assigned vertex, through >= 1
        unassigned intermediate vertices."""
        dist = {y: 0}
        best: dict = {}
        for v in topo:
            if v not in dist:
                continue
            dv = dist[v]
            for u in succ[v]:
                if u in unassigned:
                    if dist.get(u, -1) < dv + 1:
                        dist[u] = dv + 1
                elif v != y:
                    # u is assigned and v is an unassigned intermediate, so
                    # the path y -> ... -> v -> u has interior vertices;
                    # direct y -> assigned edges are never counted
                    if best.get(u, 0) < dv + 1:
                        best[u] = dv + 1
        return {x: l for x, l in best.items() if l >= 2}

    def lex_smallest_path(y, x, length: int) -> list:
        """Lexicographically smallest longest path y -> x through unassigned
        vertices (by vertex position)."""
        r: dict = {x: 0}
        for v in reversed(topo):
            if v in unassigned or v == y:
                cands = []
                for u in succ[v]:
                    if u == x:
                        cands.append(1)
                    elif u in unassigned and u in r:
                        cands.append(r[u] + 1)
                if cands:
                    r[v] = max(cands)
        assert r.get(y) == length, "path reconstruction mismatch"
        path = [y]
        rem = length
        while rem > 0:
            v = path[-1]
            if rem == 1:
                assert x in succ[v]
                path.append(x)
            else:
                path.append(
                    min(
                        (u for u in succ[v]
                         if u in unassigned and r.get(u) == rem - 1),
                        key=pos.get,
                    )
                )
            rem -= 1
        return path

    per_pick: list[Fraction] = []
    pick_snapshots: list[frozenset] = []
    while unassigned:
        best = None  # (slope, pos[y], pos[x], y, x, length)
        for y in sorted(values, key=pos.get):
            reach = interior_longest_from(y)
            for x, length in reach.items():
                slope = (values[x] - values[y]) / length
                key = (slope, pos[y], pos[x])
                if best is None or key < best[0]:
                    best = (key, y, x, length)
        if best is None:
            raise SelfCheckError(
                "no assignable path found; boundary validation should have "
                "caught this"
            )
        (slope, _, _), y, x, length = best
        if slope < 0:
            raise InfeasibleError(
                f"negative slope {slope} between {y!r} and {x!r}"
            )
        if per_pick and slope < per_pick[-1]:
            raise SelfCheckError("stage slopes decreased; internal error")
        path = lex_smallest_path(y, x, length)
        for j, v in enumerate(path[1:-1], start=1):
            values[v] = values[y] + slope * j
            unassigned.remove(v)
        per_pick.append(slope)
        pick_snapshots.append(frozenset(values))

    deltas: list[Fraction] = []
    stage_sets: list[frozenset] = [frozenset(p.boundary_values)]
    for slope, snap in zip(per_pick, pick_snapshots):
        if deltas and slope == deltas[-1]:
            stage_sets[-1] = snap
        else:
            deltas.append(slope)
            stage_sets.append(snap)
    if any(a >= b for a, b in zip(deltas, deltas[1:])):
        raise SelfCheckError("stage deltas not strictly increasing")

    if not verify_solution(p, values):
        raise SelfCheckError("solution failed exact self-certification")
    return ExponentSolution(values, tuple(deltas), tuple(stage_sets))


def verify_solution(p: BoundaryProblem, values: Mapping) -> bool:
    """Exact check: boundary match, monotonicity along every edge, and the
    averaging identity at every interior vertex."""
    pos, succ, pred = _adjacency(p)
    if set(values) != set(p.vertices):
        return False
    vals = {v: Fraction(values[v]) for v in p.vertices}
    for y, fy in p.boundary_values.items():
        if vals[y] != Fraction(fy):
            return False
    for (u, v) in p.edges:
        if vals[u] > vals[v]:
            return False
    for x in p.vertices:
        if x in p.boundary_values:
            continue
        if not succ[x] or not pred[x]:
            return False
        lo = min(vals[u] for u in succ[x])
        hi = max(vals[u] for u in pred[x])
        if 2 * vals[x] != lo + hi:
            return False
    return True


# --- block exponents -----------------------------------------------------------------


def relation_problem(rel: BlockRelation) -> BoundaryProblem:
    """Boundary problem of a block relation: blocks plus a source vertex -1
    valued -1 and a sink vertex n valued +1; self-paired (middle) blocks are
    boundary with value 0."""
    n = rel.n
    vertices = (-1, *range(n), n)
    edges = tuple(sorted(rel.edges | rel.extended_edges))
    boundary = {-1: Fraction(-1), n: Fraction(1)}
    for i in range(n):
        if rel.partner[i] == i:
            boundary[i] = Fraction(0)
    return BoundaryProblem(vertices, edges, boundary)


def index_exponents(rel: BlockRelation) -> IndexExponents:
    """Exact block scaling exponents of a normal form's relation.

    Solves the min-max averaging problem on the extended relation and
    checks: every exponent lies strictly between -1 and 1, paired blocks
    have opposite exponents, and the maximum equals l/(l+2) where l is the
    longest chain of the relation. Q is the least common denominator."""
    return _index_exponents(rel, longest_chain(rel))


def _index_exponents(rel: BlockRelation, chain: ChainResult) -> IndexExponents:
    """:func:`index_exponents` checked against the relation's longest
    ``chain``, computed once by the caller."""
    sol = solve_min_max(relation_problem(rel))
    f = tuple(sol.values[i] for i in range(rel.n))
    sigma = max(f)
    for i, fi in enumerate(f):
        if not -1 < fi < 1:
            raise SelfCheckError(f"exponent f[{i}] = {fi} out of (-1, 1)")
        if fi != -f[rel.partner[i]]:
            raise SelfCheckError("exponents are not antisymmetric under pairing")
    ell = chain.length
    if sigma != Fraction(ell, ell + 2):
        raise SelfCheckError(
            f"sigma = {sigma} does not match chain length {ell}"
        )
    q = math.lcm(*(fi.denominator for fi in f))
    return IndexExponents(f, sigma, q)


# --- one analysis per profile --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Analysis:
    """Exact classification of one profile, built by :func:`analyze`.

    ``support_class`` is "NoSupport", "SupportOnly" or "TotalSupport".  With
    support, ``nf``, ``relation``, ``chain`` and ``exponents`` hold the
    normal form, its block relation, longest chain and block exponents;
    without, they are None and ``no_support`` is the three-block splitting,
    built on first use (a profile with a zero row has none, ZeroRowError,
    yet it can still be sampled)."""

    profile: VarianceProfile
    support_class: str
    nf: NormalForm | None = None
    relation: BlockRelation | None = None
    chain: ChainResult | None = None
    exponents: IndexExponents | None = None

    @functools.cached_property
    def no_support(self) -> NoSupportForm:
        return no_support_normal_form(self.profile)


def analyze(s) -> Analysis:
    """Classify a profile once; ``s`` itself when it is already an Analysis.

    Every present entry lies on a positive diagonal iff the profile is
    coupled only within partner blocks, i.e. the relation is empty."""
    if isinstance(s, Analysis):
        return s
    profile = as_profile(s)
    try:
        nf = symmetric_normal_form(profile)
    except NoSupportError:
        return Analysis(profile, "NoSupport")
    rel = build_relation(nf)
    support = "SupportOnly" if rel.edges else "TotalSupport"
    chain = longest_chain(rel)
    return Analysis(profile, support, nf, rel, chain, _index_exponents(rel, chain))
