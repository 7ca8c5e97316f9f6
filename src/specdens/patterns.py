"""Zero-pattern combinatorics for square non-negative matrices.

A square 0/1 pattern is classified by which entries can sit on a *positive
diagonal*, i.e. a permutation sigma with every entry (i, sigma(i)) present:

- *support*: some positive diagonal exists (a perfect matching of the
  bipartite row/column graph);
- *total support*: every present entry lies on some positive diagonal;
- *fully indecomposable* (FID): no p x q all-zero submatrix with p + q = K
  (equivalently: a positive diagonal exists and the column-permuted pattern
  is irreducible).

For patterns without support, the maximal all-zero submatrix (by perimeter
``|I| + |J|``) is produced with a Koenig-style witness; its normalized excess
``(|I| + |J| - K) / K`` is the mass of the point mass at zero in the
associated density of states.

Everything here is exact integer/boolean combinatorics; a brute-force oracle
(`brute_force_oracle`) re-derives each classification by exhaustive search
for cross-checking at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional, Sequence

from .errors import NoSupportError, TooLargeError, ZeroRowError

__all__ = [
    "ZeroPattern",
    "MatchingResult",
    "SupportClass",
    "SkeletonResult",
    "max_bipartite_matching",
    "has_support",
    "has_total_support",
    "is_fully_indecomposable",
    "fid_skeleton",
    "maximal_zero_submatrix",
    "brute_force_oracle",
]


@dataclass(frozen=True)
class ZeroPattern:
    """Zero pattern of a K x K matrix: ``present[i][j]`` is True iff entry
    (i, j) is non-zero. Entries are classified by exact comparison with zero;
    no thresholding is applied."""

    k: int
    present: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("pattern dimension must be >= 1")
        if len(self.present) != self.k or any(len(r) != self.k for r in self.present):
            raise ValueError("present must be a K x K grid")

    @classmethod
    def from_matrix(cls, entries) -> "ZeroPattern":
        """Pattern of a square matrix; an entry is present iff it is exactly
        non-zero."""
        rows = [list(r) for r in entries]
        k = len(rows)
        if any(len(r) != k for r in rows):
            raise ValueError("matrix must be square")
        return cls(k, tuple(tuple(x != 0 for x in r) for r in rows))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ZeroPattern":
        """Pattern from an iterable of 0/1 (or boolean) rows."""
        return cls.from_matrix(rows)

    def permuted(self, row_perm: Sequence[int], col_perm: Sequence[int]) -> "ZeroPattern":
        """Pattern with rows/columns reordered: new (i, j) = old
        (row_perm[i], col_perm[j])."""
        return ZeroPattern(
            self.k,
            tuple(
                tuple(self.present[row_perm[i]][col_perm[j]] for j in range(self.k))
                for i in range(self.k)
            ),
        )

    def row_indices(self, i: int) -> list[int]:
        """Columns present in row i, ascending."""
        return [j for j in range(self.k) if self.present[i][j]]


@dataclass(frozen=True)
class MatchingResult:
    """Maximum bipartite matching between rows and columns of a pattern.

    ``row_match[i]`` is the column matched to row i (None if unmatched);
    ``size`` is the number of matched rows and ``perfect`` says whether all
    K rows are matched."""

    size: int
    row_match: tuple[Optional[int], ...]
    perfect: bool


@dataclass(frozen=True)
class SupportClass:
    """Support classification of a pattern.

    ``tag`` is one of "TotalSupport", "SupportOnly", "NoSupport". For
    "NoSupport", ``witness_i``/``witness_j`` give row/column index sets of a
    maximal all-zero submatrix with ``|I| + |J| > K`` and ``kappa`` equals
    the normalized excess (|I| + |J| - K) / K in (0, 1]; both are None
    otherwise."""

    tag: str
    witness_i: Optional[tuple[int, ...]] = None
    witness_j: Optional[tuple[int, ...]] = None
    kappa: Optional[Fraction] = None


@dataclass(frozen=True)
class SkeletonResult:
    """Entries of a pattern lying on at least one positive diagonal.

    ``on_diagonal[i][j]`` flags entry (i, j); ``skeleton`` is the pattern
    retaining exactly those entries."""

    on_diagonal: tuple[tuple[bool, ...], ...]
    skeleton: ZeroPattern


def augmenting_matching(
    adj: Sequence[Sequence[int]], n_cols: int
) -> list[Optional[int]]:
    """Maximum matching of rows to columns by augmenting paths; returns, for
    each column, its matched row (None if unmatched).

    ``adj[r]`` lists the columns row r may take, in the order they are tried.
    Rows are augmented in ascending order without greedy initialisation,
    each by a depth-first search that starts with no column visited.  The
    search keeps an explicit stack, so the length of an augmenting path is
    not bounded by the interpreter's recursion limit."""
    col_match: list[Optional[int]] = [None] * n_cols
    for root in range(len(adj)):
        visited = [False] * n_cols
        # stack of (row, position of its next column to try); path[d] is the
        # column through which stack[d + 1] was entered
        stack = [(root, 0)]
        path: list[int] = []
        while stack:
            r, pos = stack[-1]
            cols = adj[r]
            while pos < len(cols) and visited[cols[pos]]:
                pos += 1
            if pos == len(cols):
                stack.pop()
                if path:
                    path.pop()
                continue
            c = cols[pos]
            visited[c] = True
            stack[-1] = (r, pos + 1)
            if col_match[c] is None:
                # augment: each row on the stack takes the column it chose
                for (row, _), col in zip(stack, path + [c]):
                    col_match[col] = row
                break
            path.append(c)
            stack.append((col_match[c], 0))
    return col_match


def alternating_reach(
    adj: Sequence[Sequence[int]],
    col_match: Sequence[Optional[int]],
    start_rows: Sequence[int],
) -> tuple[list[bool], list[bool]]:
    """Koenig's alternating reach from ``start_rows``: follow any allowed
    column of a reached row, then the row matched to that column. Returns
    the reached-row and reached-column flags; the sets are closures, so they
    do not depend on the search order."""
    reach_rows = [False] * len(adj)
    reach_cols = [False] * len(col_match)
    for r in start_rows:
        reach_rows[r] = True
    queue = list(start_rows)
    while queue:
        r = queue.pop()
        for c in adj[r]:
            if not reach_cols[c]:
                reach_cols[c] = True
                r2 = col_match[c]
                if r2 is not None and not reach_rows[r2]:
                    reach_rows[r2] = True
                    queue.append(r2)
    return reach_rows, reach_cols


def max_bipartite_matching(p: ZeroPattern) -> MatchingResult:
    """Maximum matching rows -> columns via augmenting paths.

    Deterministic: rows are processed in ascending order and augmenting
    searches scan columns in ascending order, so the matching is a pure
    function of the pattern."""
    k = p.k
    col_match = augmenting_matching([p.row_indices(i) for i in range(k)], k)
    row_match: list[Optional[int]] = [None] * k
    for j, i in enumerate(col_match):
        if i is not None:
            row_match[i] = j
    size = k - row_match.count(None)
    return MatchingResult(size, tuple(row_match), size == k)


def has_support(p: ZeroPattern) -> bool:
    """True iff the pattern admits a positive diagonal."""
    return max_bipartite_matching(p).perfect


def _strongly_connected_components(adj: list[list[int]]) -> list[int]:
    """Tarjan's algorithm, iterative. Returns the component id of each vertex
    (ids are arbitrary but equal exactly within one strongly connected
    component)."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    n_comp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for next_pi in range(pi, len(adj[v])):
                w = adj[v][next_pi]
                if index[w] == -1:
                    work[-1] = (v, next_pi + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comp


def _diagonalized_digraph(p: ZeroPattern, row_match: Sequence[int]) -> list[list[int]]:
    """Digraph of the column permutation that puts the matching on the
    diagonal: vertex c stands for (row c, column row_match[c]); there is an
    edge i -> c iff entry (i, row_match[c]) is present (self-loops omitted)."""
    k = p.k
    return [
        [c for c in range(k) if c != i and p.present[i][row_match[c]]]
        for i in range(k)
    ]


def is_fully_indecomposable(p: ZeroPattern) -> bool:
    """True iff the pattern has no p x q all-zero submatrix with p + q = K.

    Test: a positive diagonal must exist, and the digraph obtained by
    permuting that diagonal into place must be strongly connected. The
    outcome does not depend on which positive diagonal is used."""
    m = max_bipartite_matching(p)
    if not m.perfect:
        return False
    if p.k == 1:
        return True
    comp = _strongly_connected_components(_diagonalized_digraph(p, m.row_match))
    return all(c == comp[0] for c in comp)


def fid_skeleton(p: ZeroPattern) -> SkeletonResult:
    """Entries lying on at least one positive diagonal.

    Raises NoSupportError when no positive diagonal exists. With a matching
    sigma fixed, entry (i, sigma(c)) lies on a positive diagonal iff i == c
    or i and c belong to the same strongly connected component of the
    diagonalized digraph; the resulting set is matching-independent."""
    m = max_bipartite_matching(p)
    if not m.perfect:
        raise NoSupportError("pattern has no positive diagonal")
    k = p.k
    comp = _strongly_connected_components(_diagonalized_digraph(p, m.row_match))
    col_of = m.row_match
    col_to_c = [0] * k
    for c in range(k):
        col_to_c[col_of[c]] = c
    on_diag = tuple(
        tuple(
            p.present[i][j] and (i == col_to_c[j] or comp[i] == comp[col_to_c[j]])
            for j in range(k)
        )
        for i in range(k)
    )
    return SkeletonResult(on_diag, ZeroPattern(k, on_diag))


def has_total_support(p: ZeroPattern) -> bool:
    """True iff every present entry lies on some positive diagonal (and at
    least one exists)."""
    m = max_bipartite_matching(p)
    if not m.perfect:
        return False
    return fid_skeleton(p).on_diagonal == p.present


def maximal_zero_submatrix(p: ZeroPattern) -> SupportClass:
    """Support classification with a maximal-perimeter zero-submatrix witness.

    Requires every row to contain a present entry (ZeroRowError otherwise).
    If a positive diagonal exists the result is "TotalSupport" or
    "SupportOnly". Otherwise Koenig's construction yields row/column sets
    I, J with the I x J submatrix all-zero and |I| + |J| = 2K - max_matching,
    the maximum possible perimeter; kappa = (|I| + |J| - K) / K."""
    k = p.k
    for i in range(k):
        if not any(p.present[i]):
            raise ZeroRowError(f"row {i} is entirely zero")
    adj = [p.row_indices(i) for i in range(k)]
    col_match = augmenting_matching(adj, k)
    size = k - col_match.count(None)
    if size == k:
        tag = "TotalSupport" if fid_skeleton(p).on_diagonal == p.present else "SupportOnly"
        return SupportClass(tag)

    matched = set(col_match)
    reach_rows, reach_cols = alternating_reach(
        adj, col_match, [i for i in range(k) if i not in matched]
    )
    witness_i = tuple(i for i in range(k) if reach_rows[i])
    witness_j = tuple(j for j in range(k) if not reach_cols[j])
    assert len(witness_i) + len(witness_j) == 2 * k - size
    assert all(not p.present[i][j] for i in witness_i for j in witness_j)
    kappa = Fraction(len(witness_i) + len(witness_j) - k, k)
    return SupportClass("NoSupport", witness_i, witness_j, kappa)


# --- exhaustive reference implementations --------------------------------------

_ORACLE_LIMIT = 8


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
        return cover is not None and cover == p.present
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
    return any(
        all(p.present[i][perm[i]] for i in range(p.k))
        for perm in permutations(range(p.k))
    )


def _oracle_on_diagonal(p: ZeroPattern) -> Optional[tuple[tuple[bool, ...], ...]]:
    k = p.k
    covered = [[False] * k for _ in range(k)]
    found = False
    for perm in permutations(range(k)):
        if all(p.present[i][perm[i]] for i in range(k)):
            found = True
            for i in range(k):
                covered[i][perm[i]] = True
    if not found:
        return None
    return tuple(tuple(r) for r in covered)


def _oracle_fid(p: ZeroPattern) -> bool:
    k = p.k
    if k == 1:
        return p.present[0][0]
    idx = range(k)
    for p_rows in range(1, k):
        q_cols = k - p_rows
        for rows in combinations(idx, p_rows):
            for cols in combinations(idx, q_cols):
                if all(not p.present[i][j] for i in rows for j in cols):
                    return False
    return True


def _oracle_max_zero(p: ZeroPattern):
    k = p.k
    best = (0, (), ())
    for p_rows in range(1, k + 1):
        for rows in combinations(range(k), p_rows):
            free = [j for j in range(k) if all(not p.present[i][j] for i in rows)]
            if free and p_rows + len(free) > best[0]:
                best = (p_rows + len(free), rows, tuple(free))
    return best
