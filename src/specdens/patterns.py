"""Zero-pattern combinatorics for square non-negative matrices.

A square 0/1 pattern is classified by which entries can sit on a *positive
diagonal*, i.e. a permutation sigma with every entry (i, sigma(i)) present:

- *support*: some positive diagonal exists (a perfect matching of the
  bipartite row/column graph);
- *total support*: every present entry lies on some positive diagonal;
- *fully indecomposable* (FID): no p x q all-zero submatrix with p + q = K
  (equivalently: a positive diagonal exists and the column-permuted pattern
  is irreducible).

One maximum matching and one strongly-connected-components pass give the
fine decomposition of a supported pattern (Dulmage-Mendelsohn): its classes
are the row sets of the fully indecomposable blocks of the skeleton, and
the skeleton, total support and full indecomposability are all read off it.

For patterns without support, the maximal all-zero submatrix (by perimeter
``|I| + |J|``) is produced with a Koenig-style witness; its normalized excess
``(|I| + |J| - K) / K`` is the mass of the point mass at zero in the
associated density of states.

Everything here is exact integer/boolean combinatorics.  The test suite
checks each classification against exhaustive search at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import NoSupportError, ZeroRowError, _count

__all__ = [
    "ZeroPattern",
    "MatchingResult",
    "SupportClass",
    "max_bipartite_matching",
    "has_support",
    "has_total_support",
    "fid_skeleton",
    "maximal_zero_submatrix",
]


@dataclass(frozen=True)
class ZeroPattern:
    """Zero pattern of a K x K matrix as its row lists: ``rows[i]`` holds,
    ascending, the columns j whose entry (i, j) is non-zero.  Entries are
    classified by exact comparison with zero; no thresholding is applied.
    A pattern takes O(K + nnz) memory.  ValueError unless K is a Python or
    numpy integer >= 1 (kept as a Python int) and ``rows`` is a tuple of K
    tuples of strictly ascending ints in ``range(K)``."""

    k: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k, rows = _count(self.k, "pattern dimension"), self.rows
        object.__setattr__(self, "k", k)
        if type(rows) is not tuple or len(rows) != k or any(
            type(row) is not tuple for row in rows
        ):
            raise ValueError("rows must be a tuple of K tuples")
        for row in rows:
            last = -1
            for j in row:
                if type(j) is not int or not last < j < k:
                    raise ValueError(f"row columns must ascend in range({k})")
                last = j

    @classmethod
    def from_matrix(cls, entries) -> "ZeroPattern":
        """Pattern of a square matrix (anything ``np.asarray`` accepts); an
        entry is present iff it is exactly non-zero.  ValueError unless the
        matrix is two-dimensional and square."""
        a = np.asarray(entries)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        i, j = np.nonzero(a)  # row-major: each row's columns ascend
        cols = tuple(j.tolist())
        ends = i.searchsorted(np.arange(1, a.shape[0] + 1)).tolist()
        rows = tuple(map(cols.__getitem__, map(slice, [0, *ends], ends)))
        return cls(a.shape[0], rows)


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


def augmenting_matching(
    adj: Sequence[Sequence[int]], n_cols: int
) -> list[Optional[int]]:
    """Maximum matching of rows to columns; returns, for each column, its
    matched row (None if unmatched).

    ``adj[r]`` lists the columns row r may take, in the order they are tried.
    A greedy pass first gives each row, in ascending order, its first free
    column.  Every row left unmatched, in ascending order, is then augmented
    by a depth-first search with Duff's lookahead (MC21): a row entered by
    the search first takes a free column if it has one, found through a
    forward-only pointer into its list (a matched column never becomes free
    again), and otherwise descends through its columns in list order.  The
    search keeps an explicit stack, so the length of an augmenting path is
    not bounded by the interpreter's recursion limit, and the result is a
    pure function of ``adj``.  No augmenting path can enter a column that a
    failed search visited, so searches skip those until the next success."""
    col_match: list[Optional[int]] = [None] * n_cols
    # ahead[r]: position in adj[r] before which every column is matched
    ahead = [0] * len(adj)
    unmatched = []
    for r, cols in enumerate(adj):
        for pos, c in enumerate(cols):
            if col_match[c] is None:
                col_match[c] = r
                ahead[r] = pos + 1
                break
        else:
            ahead[r] = len(cols)
            unmatched.append(r)
    visited = [-1] * n_cols  # the stamp of the search that last visited it
    stamp = 0
    for root in unmatched:
        # stack of (row, position of its next column to descend through);
        # path[d] is the column through which stack[d + 1] was entered
        stack = [(root, 0)]
        path: list[int] = []
        while stack:
            r, pos = stack[-1]
            cols = adj[r]
            la = ahead[r]
            while la < len(cols) and col_match[cols[la]] is not None:
                la += 1
            ahead[r] = la
            if la < len(cols):
                # augment: each row on the stack takes the column it chose
                path.append(cols[la])
                for (row, _), col in zip(stack, path):
                    col_match[col] = row
                stamp += 1
                break
            while pos < len(cols) and visited[cols[pos]] == stamp:
                pos += 1
            if pos == len(cols):
                stack.pop()
                if path:
                    path.pop()
                continue
            c = cols[pos]
            visited[c] = stamp
            stack[-1] = (r, pos + 1)
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
    """Maximum matching rows -> columns by :func:`augmenting_matching`, with
    every row's columns in ascending order.

    Deterministic: the matching is a pure function of the pattern.  Which
    maximum matching is returned is not part of the contract; everything
    derived from it here (support, skeleton, full indecomposability, the
    zero-submatrix witness) is the same for every maximum matching."""
    k = p.k
    col_match = augmenting_matching(p.rows, k)
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
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # each frame holds a vertex and the iterator over its remaining edges
        work = [(root, iter(adj[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
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
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comp


def _fine_classes(
    p: ZeroPattern, col_match: Optional[Sequence[Optional[int]]] = None
) -> tuple[Sequence[int], list[int]]:
    """Fine decomposition of a supported pattern (Dulmage-Mendelsohn).

    Returns a perfect matching sigma, as the row ``col_match[j]`` matched to
    each column j, and the strongly connected component id of every row in
    the digraph that puts the matching on the diagonal: an edge
    i -> col_match[j] for every present (i, j), self-loops omitted.  The
    rows of one id form a class C, and (C, sigma(C)) is one fully
    indecomposable block of the skeleton.  ``col_match``, when given, is a
    maximum matching the caller already holds.  Raises NoSupportError when
    no positive diagonal exists."""
    if col_match is None:
        col_match = augmenting_matching(p.rows, p.k)
    if None in col_match:
        raise NoSupportError("pattern has no positive diagonal")
    digraph = [
        [c for c in map(col_match.__getitem__, cols) if c != i]
        for i, cols in enumerate(p.rows)
    ]
    return col_match, _strongly_connected_components(digraph)


def _skeleton_rows(
    p: ZeroPattern, col_match: Optional[Sequence[Optional[int]]] = None
) -> tuple[tuple[int, ...], ...]:
    """The rows of :func:`fid_skeleton`, from the matching ``col_match``
    when one is given.  Raises NoSupportError."""
    col_match, comp = _fine_classes(p, col_match)
    col_comp = [comp[i] for i in col_match]
    return tuple(
        tuple(j for j in cols if col_comp[j] == comp[i])
        for i, cols in enumerate(p.rows)
    )


def fid_skeleton(p: ZeroPattern) -> ZeroPattern:
    """The skeleton: the pattern of the entries lying on at least one
    positive diagonal.

    Raises NoSupportError when no positive diagonal exists. With a perfect
    matching fixed, entry (i, j) lies on a positive diagonal iff row i and
    the row matched to column j belong to the same fine class; the
    resulting set is matching-independent."""
    return ZeroPattern(p.k, _skeleton_rows(p))


def has_total_support(p: ZeroPattern) -> bool:
    """True iff every present entry lies on some positive diagonal (and at
    least one exists)."""
    try:
        return _skeleton_rows(p) == p.rows
    except NoSupportError:
        return False


def maximal_zero_submatrix(p: ZeroPattern) -> SupportClass:
    """Support classification with a maximal-perimeter zero-submatrix witness.

    Requires every row to contain a present entry (ZeroRowError otherwise).
    If a positive diagonal exists the result is "TotalSupport" or
    "SupportOnly". Otherwise Koenig's construction yields row/column sets
    I, J with the I x J submatrix all-zero and |I| + |J| = 2K - max_matching,
    the maximum possible perimeter; kappa = (|I| + |J| - K) / K."""
    k, adj = p.k, p.rows
    if not all(adj):
        raise ZeroRowError(f"row {adj.index(())} is entirely zero")
    col_match = augmenting_matching(adj, k)
    size = k - col_match.count(None)
    if size == k:
        tag = "TotalSupport" if _skeleton_rows(p, col_match) == adj else "SupportOnly"
        return SupportClass(tag)

    matched = set(col_match)
    reach_rows, reach_cols = alternating_reach(
        adj, col_match, [i for i in range(k) if i not in matched]
    )
    witness_i = tuple(i for i in range(k) if reach_rows[i])
    witness_j = tuple(j for j in range(k) if not reach_cols[j])
    assert len(witness_i) + len(witness_j) == 2 * k - size
    assert all(reach_cols[j] for i in witness_i for j in adj[i])
    kappa = Fraction(len(witness_i) + len(witness_j) - k, k)
    return SupportClass("NoSupport", witness_i, witness_j, kappa)
