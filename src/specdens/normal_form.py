"""Symmetric block normal form of a non-negative variance profile.

A symmetric profile S whose zero pattern admits a positive diagonal can be
brought, by one symmetric permutation, into a block form organized in three
bands. Writing n = L + 2M for the number of blocks:

- band 1 (blocks 0..M-1) and band 3 (blocks M+L..n-1) pair up
  anti-diagonally: block j pairs with block n-1-j, and the paired
  off-diagonal blocks are fully indecomposable;
- band 2 (blocks M..M+L-1) holds L fully indecomposable principal blocks,
  mutually disconnected;
- the (2,3), (3,2) and (3,3) bands vanish, and the (1,3)/(3,1) bands vanish
  strictly below the block anti-diagonal: no block couples past its partner.

The boolean block mask of the permuted profile induces a strict relation on
blocks, i < j whenever block i is coupled to the partner of block j; this
relation is acyclic and its longest chain controls how singular the
associated density of states is at zero.

Profiles without a positive diagonal instead admit a symmetric 3-block
splitting whose lower-right corner vanishes; the normalized perimeter excess
of that corner is the exact mass of the point mass at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CyclicRelationError,
    HasSupportError,
    NegativeEntryError,
    NotSymmetricError,
    StructureViolationError,
)
from .patterns import (
    ZeroPattern,
    _fine_classes,
    alternating_reach,
    augmenting_matching,
    has_support,
    maximal_zero_submatrix,
)

__all__ = [
    "VarianceProfile",
    "as_profile",
    "pattern_of",
    "NormalForm",
    "NoSupportForm",
    "BlockRelation",
    "ChainResult",
    "symmetric_normal_form",
    "no_support_normal_form",
    "verify_normal_form",
    "build_relation",
    "longest_chain",
]


class VarianceProfile:
    """Symmetric entrywise non-negative K x K matrix of variances.

    Entries are stored as float64 exactly as given (no thresholding), in C
    order whatever the layout of the input, so that the solvers' BLAS calls
    and their results do not depend on it; the zero pattern is defined by
    exact comparison with 0. The array is made read-only so a profile can be
    shared safely.
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=float, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("profile must be a square matrix")
        if a.shape[0] < 1:
            raise ValueError("profile must be at least 1 x 1")
        if not np.isfinite(a).all():
            raise ValueError("profile entries must be finite")
        if not np.array_equal(a, a.T):
            raise NotSymmetricError("profile is not symmetric")
        if (a < 0).any():
            raise NegativeEntryError("profile has a negative entry")
        a.flags.writeable = False
        self.entries = a

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"VarianceProfile(k={self.k})"


def as_profile(s) -> VarianceProfile:
    """Coerce a matrix-like object into a validated VarianceProfile; an
    :class:`~specdens.minmax.Analysis` gives its ``profile``."""
    if isinstance(s, VarianceProfile):
        return s
    profile = getattr(s, "profile", None)
    return profile if isinstance(profile, VarianceProfile) else VarianceProfile(s)


def pattern_of(s) -> ZeroPattern:
    """Zero pattern of a profile (exact comparison with zero)."""
    return ZeroPattern.from_matrix(as_profile(s).entries)


@dataclass(eq=False)
class NormalForm:
    """Result of the symmetric block normal form.

    perm : tuple of int
        Symmetric permutation, new position -> original index: the profile
        in block order is ``S[perm][:, perm]``.
    dims : tuple of int
        Block dimensions in block order (len L + 2M).
    L, M : int
        Number of middle blocks and of anti-diagonal pairs.
    mask : ndarray of bool, shape (L+2M, L+2M)
        Block coupling mask of the permuted profile: mask[i, j] is True iff
        the (i, j) block contains a non-zero entry.
    """

    perm: tuple[int, ...]
    dims: tuple[int, ...]
    L: int
    M: int
    mask: np.ndarray

    @property
    def n_blocks(self) -> int:
        return self.L + 2 * self.M

    def partner(self, i: int) -> int:
        """Index of the block paired with block i (i itself for middles)."""
        n = self.n_blocks
        if i < self.M or i >= self.M + self.L:
            return n - 1 - i
        return i

    def block_indices(self, i: int) -> range:
        """Index range of block i inside the permuted profile."""
        start = sum(self.dims[:i])
        return range(start, start + self.dims[i])


@dataclass(eq=False)
class NoSupportForm:
    """Symmetric 3-block splitting of a profile without positive diagonal.

    perm : new position -> original index; sizes : the three block sizes
    (first, middle, last); the last block, against the middle-plus-last
    column range, is entirely zero. witness_i / witness_j are the original
    row / column index sets of that maximal zero corner (witness_i is the
    last block, witness_j the union of middle and last); kappa is the
    normalized perimeter excess (|I| + |J| - K) / K, the exact mass of the
    point mass at zero of the associated density of states.
    """

    perm: tuple[int, ...]
    sizes: tuple[int, int, int]
    witness_i: tuple[int, ...]
    witness_j: tuple[int, ...]
    kappa: Fraction


@dataclass(frozen=True)
class BlockRelation:
    """Strict relation between blocks of a normal form.

    i precedes j (written i < j here) iff i != j and the mask couples block
    i to the partner of block j. The relation is acyclic; extended_edges
    additionally routes a source vertex -1 to every minimal block and every
    maximal block to a sink vertex n.
    """

    n: int
    partner: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    extended_edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class ChainResult:
    """Longest chain of the block relation: number of edges and the
    lexicographically smallest witness path (block indices)."""

    length: int
    witness: tuple[int, ...]


# --- symmetric normal form ------------------------------------------------------


def _block_mask(p: ZeroPattern, perm, dims) -> np.ndarray:
    """mask[a, b]: block (a, b) of the pattern conjugated by perm is non-empty."""
    block = np.repeat(np.arange(len(dims)), dims)[np.argsort(perm)]
    mask = np.zeros((len(dims), len(dims)), dtype=bool)
    cols = np.array([j for row in p.rows for j in row], dtype=np.intp)
    mask[np.repeat(block, list(map(len, p.rows))), block[cols]] = True
    return mask


def _block_rows(p: ZeroPattern, perm, pos, rows: range, cols: range):
    """Row lists, in local ascending columns, of block (rows, cols) of the
    pattern conjugated by ``perm``, whose inverse is ``pos``."""
    return tuple(
        tuple(sorted(pos[j] - cols.start for j in p.rows[perm[r]] if pos[j] in cols))
        for r in rows
    )


def symmetric_normal_form(s) -> NormalForm:
    """Compute the symmetric block normal form of a supported profile.

    Steps: (1) one matching sigma and one strongly-connected-components
    pass give the fine classes of the zero pattern: each class C is the row
    set of a fully indecomposable block (C, sigma(C)) of the skeleton, the
    entries lying on positive diagonals; (2) every class is a side, and as
    the skeleton is symmetric sigma(C) is either C (a fully indecomposable
    principal block) or the class of its partner side; (3) repeatedly
    extract a side whose coupling row (in the full profile) touches nothing
    but its own partner, sending it to the outermost free slot of the last
    band and its partner to the matching slot of the first band; leftover
    principal blocks form the middle band, sorted by (dimension, smallest
    index).

    Raises NotSymmetricError / NegativeEntryError on invalid input,
    NoSupportError when no positive diagonal exists, and
    StructureViolationError if the block structure cannot be realized
    (not reachable for valid symmetric profiles).
    """
    profile = as_profile(s)
    pat = pattern_of(profile)
    # NoSupportError when there is no support
    col_match, comp = _fine_classes(pat)
    present = profile.entries != 0

    # rows[c]: the class c; cols[c]: its columns sigma(c), the row set of
    # its partner (c itself for a middle)
    rows: dict[int, list[int]] = {}
    cols: dict[int, list[int]] = {}
    for i in range(profile.k):
        rows.setdefault(comp[i], []).append(i)
        cols.setdefault(comp[col_match[i]], []).append(i)
    side_indices = list(rows.values())
    side_of = {tuple(side): sid for sid, side in enumerate(side_indices)}
    try:
        side_partner = [side_of[tuple(cols[c])] for c in rows]
    except KeyError:
        raise StructureViolationError(
            "a skeleton block's transpose is not a skeleton block"
        ) from None

    def coupled(a: int, b: int) -> bool:
        return bool(present[np.ix_(side_indices[a], side_indices[b])].any())

    remaining = set(range(len(side_indices)))
    pivot_pairs: list[tuple[int, int]] = []  # (last-band side, first-band side)
    middles: list[int] = []
    while remaining:
        candidates = [
            sid
            for sid in remaining
            if all(
                not coupled(sid, other)
                for other in remaining
                if other != side_partner[sid]
            )
        ]
        if not candidates:
            raise StructureViolationError(
                "no extractable block: profile admits no symmetric block "
                "normal form"
            )
        sid = min(candidates, key=lambda x: side_indices[x][0])
        if side_partner[sid] == sid:
            middles.append(sid)
            remaining.remove(sid)
        else:
            pivot_pairs.append((sid, side_partner[sid]))
            remaining.remove(sid)
            remaining.remove(side_partner[sid])

    middles.sort(key=lambda x: (len(side_indices[x]), side_indices[x][0]))
    block_sets = (
        [side_indices[q] for _, q in pivot_pairs]
        + [side_indices[c] for c in middles]
        + [side_indices[p] for p, _ in reversed(pivot_pairs)]
    )
    m_pairs = len(pivot_pairs)
    l_mid = len(middles)

    perm = tuple(i for block in block_sets for i in block)
    dims = tuple(len(block) for block in block_sets)
    nf = NormalForm(perm, dims, l_mid, m_pairs, _block_mask(pat, perm, dims))
    _verify_normal_form(pat, nf)
    return nf


def verify_normal_form(s, nf: NormalForm) -> None:
    """Audit a claimed normal form against the profile's zero pattern;
    raises StructureViolationError on the first failure.  One matching
    certifies every anti-diagonal block (i, partner(i)) fully
    indecomposable: a perfect matching of those blocks' entries takes the
    rows of block i into block partner(i), and the block's digraph under it
    is strongly connected."""
    _verify_normal_form(pattern_of(s), nf)


def _verify_normal_form(pat: ZeroPattern, nf: NormalForm) -> None:
    n = nf.n_blocks
    partner = np.array([nf.partner(i) for i in range(n)], dtype=np.intp)

    def fail(msg: str):
        raise StructureViolationError(f"normal form invariant violated: {msg}")

    if sorted(nf.perm) != list(range(pat.k)):
        fail("perm is not a permutation")
    if sum(nf.dims) != pat.k or len(nf.dims) != n or any(d < 1 for d in nf.dims):
        fail("block dimensions do not tile the matrix")

    mask = _block_mask(pat, nf.perm, nf.dims)
    if not np.array_equal(mask, nf.mask):
        fail("mask does not match the permuted profile")
    if (mask & (np.arange(n) > partner[:, None])).any():
        fail("a block is coupled past its partner, against the bands")

    # the entries of the blocks (i, partner(i)): every block is fully
    # indecomposable iff they have a perfect matching and n fine classes
    block = np.repeat(np.arange(n), nf.dims)[np.argsort(nf.perm)].tolist()
    blocks = ZeroPattern(pat.k, tuple(
        tuple(j for j in cols if block[j] == b)
        for cols, b in zip(pat.rows, partner[block].tolist())
    ))
    col_match = augmenting_matching(blocks.rows, pat.k)
    if None in col_match or max(_fine_classes(blocks, col_match)[1]) != n - 1:
        fail("an anti-diagonal block is not fully indecomposable")


# --- no-support splitting ---------------------------------------------------------


def no_support_normal_form(s) -> NoSupportForm:
    """Symmetric 3-block splitting of a profile without positive diagonal.

    The blocks are (complement of J, J minus I, I) where the I x J submatrix
    is all-zero with nested I, a subset of J, of maximal perimeter |I| + |J|;
    among those, |J| is made as large as possible. The returned splitting
    always satisfies: the middle principal block has a positive diagonal,
    and every non-empty set of first-block rows touches strictly more
    third-block columns than its size (row spreading).

    Raises ZeroRowError when a row vanishes identically and
    HasSupportError when the profile has a positive diagonal.
    """
    pat = pattern_of(s)
    k = pat.k
    cls = maximal_zero_submatrix(pat)  # ZeroRowError propagates
    if cls.tag != "NoSupport":
        raise HasSupportError("profile has a positive diagonal")

    # Koenig's witness (I, J) has the smallest I and the largest J of all
    # maximal-perimeter zero submatrices.  The profile is symmetric, so the
    # nested pair (I & J, I | J) is one of them as well; hence I lies in J,
    # and no nested pair of maximal perimeter has a larger column side.
    set_i, set_j = set(cls.witness_i), set(cls.witness_j)
    block1 = [i for i in range(k) if i not in set_j]
    block2 = [i for i in cls.witness_j if i not in set_i]
    perm = tuple(block1 + block2 + list(cls.witness_i))
    sizes = (len(block1), len(block2), len(cls.witness_i))
    form = NoSupportForm(perm, sizes, cls.witness_i, cls.witness_j, cls.kappa)
    _verify_no_support_form(pat, form)
    return form


def _strong_hall(adj, n_cols: int) -> bool:
    """True iff every non-empty set X of rows, ``adj[r]`` listing the columns
    of row r among ``n_cols``, touches at least |X| + 1 columns: iff a
    maximum matching covers every row, and one reach from the free columns
    over the transposed lists finds every row."""
    col_match = augmenting_matching(adj, n_cols)
    row_match = [None] * len(adj)
    for c, r in enumerate(col_match):
        if r is not None:
            row_match[r] = c
    transposed: list[list[int]] = [[] for _ in range(n_cols)]
    for r, cols in enumerate(adj):
        for c in cols:
            transposed[c].append(r)
    free = [c for c, r in enumerate(col_match) if r is None]
    reached = alternating_reach(transposed, row_match, free)[1]
    return None not in row_match and all(reached)


def _verify_no_support_form(p: ZeroPattern, form: NoSupportForm) -> None:
    """Audit a splitting against the profile's pattern ``p``."""
    k = p.k
    n1, n2, n3 = form.sizes

    def fail(msg: str):
        raise StructureViolationError(f"no-support splitting invalid: {msg}")

    if sorted(form.perm) != list(range(k)):
        fail("perm is not a permutation")
    if n1 + n2 + n3 != k or n1 < 1 or n3 < 1:
        fail("block sizes are inconsistent")
    perm, pos = form.perm, np.argsort(form.perm).tolist()
    witnesses = (set(form.witness_i), set(form.witness_j))
    if witnesses != (set(perm[n1 + n2:]), set(perm[n1:])):
        fail("witness sets do not match perm")
    # the pattern is symmetric: the last rows against the middle and last
    # columns are the whole zero corner and its transpose
    if any(pos[j] >= n1 for i in perm[n1 + n2:] for j in p.rows[i]):
        fail("zero corner is not zero")
    mid = range(n1, n1 + n2)
    if n2 and not has_support(ZeroPattern(n2, _block_rows(p, perm, pos, mid, mid))):
        fail("middle block has no positive diagonal")
    if not _strong_hall(_block_rows(p, perm, pos, range(n1), range(n1 + n2, k)), n3):
        fail("first-block rows do not spread over the zero-corner columns")
    if form.kappa != Fraction(n3 + (n2 + n3) - k, k) or not 0 < form.kappa <= 1:
        fail("kappa does not match the block sizes")


# --- block relation and chains ------------------------------------------------------


def _topological_order(n: int, edges) -> tuple[list[int], list[list[int]]]:
    """Kahn order of the vertices ``0 .. n-1`` under ``edges`` and the
    successor lists.  Raises CyclicRelationError if there is a cycle."""
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, j in edges:
        succ[i].append(j)
        indeg[j] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    head = 0
    while head < len(order):
        i = order[head]
        head += 1
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != n:
        raise CyclicRelationError("block relation contains a cycle")
    return order, succ


def build_relation(nf: NormalForm) -> BlockRelation:
    """Strict precedence between blocks: i precedes j iff i != j and the
    mask couples block i to the partner of block j. Raises
    CyclicRelationError if the relation fails to be acyclic (impossible for
    masks produced by symmetric_normal_form, but asserted regardless)."""
    n = nf.n_blocks
    partner = tuple(nf.partner(i) for i in range(n))
    edges = frozenset(
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and nf.mask[i, partner[j]]
    )
    _topological_order(n, edges)

    firsts = [i for i in range(n) if not any(a == i for _, a in edges)]
    lasts = [i for i in range(n) if not any(a == i for a, _ in edges)]
    extended = frozenset(
        [(-1, i) for i in firsts] + [(i, n) for i in lasts]
    )
    return BlockRelation(n, partner, edges, extended)


def longest_chain(rel: BlockRelation) -> ChainResult:
    """Longest chain (edge count) of the strict block relation, with the
    lexicographically smallest witness path.  Raises CyclicRelationError if
    the relation has a cycle."""
    order, succ = _topological_order(rel.n, rel.edges)
    depth = [0] * rel.n
    for v in reversed(order):
        depth[v] = max((depth[u] + 1 for u in succ[v]), default=0)
    length = max(depth)
    start = depth.index(length)
    witness = [start]
    while depth[witness[-1]] > 0:
        v = witness[-1]
        witness.append(min(u for u in succ[v] if depth[u] == depth[v] - 1))
    return ChainResult(length, tuple(witness))
