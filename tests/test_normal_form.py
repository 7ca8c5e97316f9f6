"""Tests for the symmetric block normal form and the block relation."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from specdens import normal_form
from specdens.dyson import density_profile, solve_imaginary_axis
from specdens.errors import (
    CyclicRelationError,
    HasSupportError,
    NegativeEntryError,
    NoSupportError,
    NotSymmetricError,
    StructureViolationError,
    ZeroRowError,
)
from specdens.minmax import analyze
from specdens.montecarlo import sample_block_hermitian
from specdens.normal_form import (
    BlockRelation,
    NoSupportForm,
    NormalForm,
    VarianceProfile,
    build_relation,
    longest_chain,
    no_support_normal_form,
    pattern_of,
    symmetric_normal_form,
)
from specdens.patterns import (
    ZeroPattern,
    fid_skeleton,
    has_support,
    maximal_zero_submatrix,
)

from oracles import fully_indecomposable

# 10 x 10 reference profile with three pairs, one middle block and a
# longest chain of four edges.
BIG_EXAMPLE = np.array(
    [[int(c) for c in row] for row in [
        "0001100001",
        "0011000111",
        "0101000000",
        "1111000100",
        "1000000001",
        "0000000001",
        "0000001010",
        "0101000001",
        "0100001010",
        "1100110100",
    ]],
    dtype=float,
)

# A hand-built 7-block mask with a valid band structure (dims (1,2,1,2,1,2,1))
# whose induced relation needs two averaging stages with denominators 3 and 9.
# It is not the mask of BIG_EXAMPLE; it exists to pin relation and exponent
# expectations to one fixed, non-trivial ordering.
BRANCHY_MASK = np.array(
    [
        [0, 1, 1, 0, 1, 1, 1],
        [1, 1, 1, 0, 0, 1, 0],
        [1, 1, 0, 1, 1, 0, 0],
        [0, 0, 1, 1, 0, 0, 0],
        [1, 0, 1, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0],
    ],
    dtype=bool,
)


def branchy_mask_form() -> NormalForm:
    """NormalForm carrying the hand-built 7-block mask above."""
    dims = (1, 2, 1, 2, 1, 2, 1)
    return NormalForm(
        perm=tuple(range(10)),
        dims=dims,
        L=1,
        M=3,
        mask=BRANCHY_MASK.copy(),
    )


# --- profile validation -----------------------------------------------------------


def test_profile_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        VarianceProfile([[1, 2], [3, 4]])


def test_profile_rejects_negative():
    with pytest.raises(NegativeEntryError):
        VarianceProfile([[1, -1], [-1, 1]])


def test_profile_rejects_non_square():
    with pytest.raises(ValueError):
        VarianceProfile([[1, 2, 3], [2, 1, 2]])


@pytest.mark.parametrize("consumer", [
    lambda s: solve_imaginary_axis(s, 1e-3).v,
    lambda s: density_profile(s, [-0.5, 0.0, 0.5], epsilon=1e-3).rho,
    lambda s: sample_block_hermitian(s, 3, np.random.default_rng(2)),
], ids=["axis", "density", "sample"])
def test_profile_consumers_accept_an_analysis(consumer):
    arrow = [[1.0, 1.0], [1.0, 0.0]]
    assert np.array_equal(consumer(analyze(arrow)), consumer(arrow))


# --- symmetric normal form ----------------------------------------------------------


def test_normal_form_2x2_arrow():
    nf = symmetric_normal_form([[1, 1], [1, 0]])
    assert (nf.L, nf.M) == (0, 1)
    assert nf.dims == (1, 1)
    assert nf.mask.astype(int).tolist() == [[1, 1], [1, 0]]


def test_normal_form_all_ones():
    for k in (1, 3, 5):
        nf = symmetric_normal_form(np.ones((k, k)))
        assert (nf.L, nf.M) == (1, 0)
        assert nf.dims == (k,)
        assert nf.mask.tolist() == [[True]]


def test_normal_form_k3_chain():
    nf = symmetric_normal_form([[1, 1, 1], [1, 1, 0], [1, 0, 0]])
    assert (nf.L, nf.M) == (1, 1)
    assert nf.dims == (1, 1, 1)
    assert nf.mask.astype(int).tolist() == [[1, 1, 1], [1, 1, 0], [1, 0, 0]]


def test_normal_form_antidiagonal_pair():
    nf = symmetric_normal_form([[0, 1], [1, 0]])
    assert (nf.L, nf.M) == (0, 1)
    rel = build_relation(nf)
    assert rel.edges == frozenset()


def test_normal_form_big_example():
    nf = symmetric_normal_form(BIG_EXAMPLE)
    assert (nf.L, nf.M) == (1, 3)
    assert sorted(nf.dims) == [1, 1, 1, 1, 2, 2, 2]
    assert longest_chain(build_relation(nf)).length == 4


def test_normal_form_no_support_raises():
    with pytest.raises(NoSupportError):
        symmetric_normal_form([[0, 0, 1], [0, 0, 1], [1, 1, 1]])


def test_normal_form_invariant_under_symmetric_permutation():
    rng = random.Random(5)
    base = symmetric_normal_form(BIG_EXAMPLE)
    base_sig = (base.L, base.M, sorted(base.dims),
                longest_chain(build_relation(base)).length)
    k = 10
    for _ in range(100):
        p = list(range(k))
        rng.shuffle(p)
        s = BIG_EXAMPLE[np.ix_(p, p)]
        nf = symmetric_normal_form(s)
        sig = (nf.L, nf.M, sorted(nf.dims),
               longest_chain(build_relation(nf)).length)
        assert sig == base_sig


def test_normal_form_random_profiles_pass_audit():
    # the audit runs inside symmetric_normal_form; also check block sums
    rng = random.Random(31)
    n_done = 0
    while n_done < 120:
        k = rng.randint(1, 7)
        a = np.array([[rng.random() < 0.45 for _ in range(k)] for _ in range(k)])
        s = ((a | a.T) * 1.0) if rng.random() < 0.5 else ((a & a.T) * 1.0)
        prof = VarianceProfile(s)
        if not has_support(pattern_of(prof)):
            continue
        nf = symmetric_normal_form(prof)
        assert sum(nf.dims) == k
        assert nf.L + 2 * nf.M == len(nf.dims)
        n_done += 1


def test_verify_normal_form_catches_tampering():
    s = [[1, 1, 1], [1, 1, 0], [1, 0, 0]]
    nf = symmetric_normal_form(s)
    bad_mask = nf.mask.copy()
    bad_mask[2, 2] = True
    bad = NormalForm(nf.perm, nf.dims, nf.L, nf.M, bad_mask)
    with pytest.raises(StructureViolationError):
        normal_form._verify_normal_form(pattern_of(s), bad)
    # empty or negative blocks, also when the dimensions sum to K
    for dims in [(2, 0, 0), (2, 1, -1), (3, 0, 0), (2, 2, -1)]:
        bad = NormalForm(nf.perm, dims, nf.L, nf.M, nf.mask)
        with pytest.raises(StructureViolationError, match="tile"):
            normal_form._verify_normal_form(pattern_of(s), bad)
    # arrow with its two blocks swapped: the last band couples to itself
    swapped = NormalForm((1, 0), (1, 1), 0, 1, np.array([[0, 1], [1, 1]], dtype=bool))
    with pytest.raises(StructureViolationError, match="past its partner"):
        normal_form._verify_normal_form(pattern_of([[1, 1], [1, 0]]), swapped)
    # two fully indecomposable blocks merged into one, with a matching mask
    merged = NormalForm((0, 1), (2,), 1, 0, np.ones((1, 1), dtype=bool))
    with pytest.raises(StructureViolationError, match="fully indecomposable"):
        normal_form._verify_normal_form(pattern_of(np.eye(2)), merged)
    # a pair of unequal blocks whose mask keeps the bands
    s = np.ones((3, 3))
    s[2, 2] = 0.0
    mask = np.array([[1, 1], [1, 0]], dtype=bool)
    uneven = NormalForm((0, 1, 2), (2, 1), 0, 1, mask)
    with pytest.raises(StructureViolationError, match="fully indecomposable"):
        normal_form._verify_normal_form(pattern_of(s), uneven)


def test_verify_no_support_form_catches_tampering():
    s = [[0, 0, 1], [0, 0, 1], [1, 1, 1]]
    form = no_support_normal_form(s)
    assert form.perm == (2, 0, 1)
    # a zero corner holding the non-zero entry (1, 2)
    bad = replace(form, perm=(0, 1, 2), witness_i=(1, 2), witness_j=(1, 2))
    with pytest.raises(StructureViolationError, match="zero corner"):
        normal_form._verify_no_support_form(pattern_of(s), bad)
    # witnesses that name other indices than the blocks of perm
    for witnesses in [dict(witness_i=(0, 2)), dict(witness_j=(1, 2)),
                      dict(witness_i=(0,)), dict(witness_j=(0, 1, 2))]:
        with pytest.raises(StructureViolationError, match="witness"):
            normal_form._verify_no_support_form(pattern_of(s), replace(form, **witnesses))
    # a zero corner of maximal perimeter whose first-block rows do not
    # spread: row 0 touches one of the three corner columns
    s = np.zeros((5, 5))
    for i, j in [(0, 0), (0, 2), (1, 1), (1, 3), (1, 4)]:
        s[i, j] = s[j, i] = 1.0
    assert maximal_zero_submatrix(pattern_of(s)).kappa == Fraction(1, 5)
    bad = NoSupportForm(
        tuple(range(5)), (2, 0, 3), (2, 3, 4), (2, 3, 4), Fraction(1, 5)
    )
    with pytest.raises(StructureViolationError, match="spread"):
        normal_form._verify_no_support_form(pattern_of(s), bad)


# --- the sides against their predecessor ----------------------------------------------


def _reference_components(adj):
    k = len(adj)
    seen = [False] * k
    comps = []
    for start in range(k):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        queue = [start]
        while queue:
            i = queue.pop()
            for j in adj[i]:
                if not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    queue.append(j)
        comps.append(sorted(comp))
    return comps


def _reference_sub_pattern(comp, adj):
    # comp is ascending, so the renumbered rows ascend too
    at = {v: t for t, v in enumerate(comp)}
    return ZeroPattern(len(comp), tuple(tuple(at[j] for j in adj[i]) for i in comp))


def _reference_two_color(comp, adj):
    color = {comp[0]: 0}
    queue = [comp[0]]
    while queue:
        i = queue.pop()
        for j in adj[i]:
            if j not in color:
                color[j] = 1 - color[i]
                queue.append(j)
    if any(color[i] == color[j] for i in comp for j in adj[i]):
        raise StructureViolationError("neither fully indecomposable nor two-sided")
    side0 = [i for i in comp if color[i] == 0]
    side1 = [i for i in comp if color[i] == 1]
    if len(side0) != len(side1):
        raise StructureViolationError("two-sided component has unequal sides")
    return side0, side1


def _reference_normal_form(s):
    """(perm, dims, L, M, mask) of the normal form with its sides built the
    earlier way: the undirected components of the skeleton, a fresh full
    indecomposability test of each, and a two-colouring of every component
    that fails it."""
    entries = VarianceProfile(s).entries
    adj = [list(row) for row in fid_skeleton(pattern_of(entries)).rows]
    present = entries != 0
    side_indices, side_partner = [], []
    for comp in _reference_components(adj):
        if fully_indecomposable(_reference_sub_pattern(comp, adj)):
            side_indices.append(comp)
            side_partner.append(len(side_partner))
        else:
            side0, side1 = _reference_two_color(comp, adj)
            a = len(side_indices)
            side_indices += [side0, side1]
            side_partner += [a + 1, a]

    def coupled(a, b):
        return bool(present[np.ix_(side_indices[a], side_indices[b])].any())

    remaining = set(range(len(side_indices)))
    pivot_pairs, middles = [], []
    while remaining:
        candidates = [
            sid for sid in remaining
            if all(not coupled(sid, other) for other in remaining
                   if other != side_partner[sid])
        ]
        sid = min(candidates, key=lambda x: side_indices[x][0])
        remaining -= {sid, side_partner[sid]}
        if side_partner[sid] == sid:
            middles.append(sid)
        else:
            pivot_pairs.append((sid, side_partner[sid]))
    middles.sort(key=lambda x: (len(side_indices[x]), side_indices[x][0]))
    block_sets = (
        [side_indices[q] for _, q in pivot_pairs]
        + [side_indices[c] for c in middles]
        + [side_indices[p] for p, _ in reversed(pivot_pairs)]
    )
    perm = tuple(i for block in block_sets for i in block)
    dims = tuple(len(block) for block in block_sets)
    n = len(dims)
    offs = np.cumsum((0,) + dims)
    permuted = present[np.ix_(perm, perm)]
    mask = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            mask[i, j] = permuted[offs[i]:offs[i + 1], offs[j]:offs[j + 1]].any()
    return perm, dims, len(middles), len(pivot_pairs), mask


def _symmetric_cases():
    """Seeded symmetric profiles with K <= 30 at densities 0.05-0.5, every
    other one with a zero diagonal and half of them with a planted
    symmetric positive diagonal (disjoint transpositions), plus
    symmetrically permuted blow-ups of the 10 x 10 reference profile."""
    rng = np.random.default_rng(47)
    cases = []
    for n in range(2000):
        k = int(rng.integers(1, 31))
        upper = np.triu(rng.random((k, k)) < rng.uniform(0.05, 0.5))
        s = upper | upper.T
        if n % 2:
            np.fill_diagonal(s, False)
        if n % 4 >= 2:
            p = rng.permutation(k)
            s[p[0:k - 1:2], p[1::2]] = s[p[1::2], p[0:k - 1:2]] = True
        cases.append(s * 1.0)
    for b in (1, 2, 3, 20):
        blowup = np.kron(BIG_EXAMPLE, np.ones((b, b)))
        for _ in range(3):
            p = rng.permutation(10 * b)
            cases.append(blowup[np.ix_(p, p)])
    return cases


def test_sides_match_the_component_construction():
    supported = paired = 0
    for s in _symmetric_cases():
        try:
            expected = _reference_normal_form(s)
        except NoSupportError:
            with pytest.raises(NoSupportError):
                symmetric_normal_form(s)
            continue
        nf = symmetric_normal_form(s)
        assert (nf.perm, nf.dims, nf.L, nf.M) == expected[:4]
        assert np.array_equal(nf.mask, expected[4])
        supported += 1
        paired += nf.M > 0
    assert supported > 1000 and paired > 400


# --- no-support splitting -------------------------------------------------------------


def test_no_support_form_example():
    form = no_support_normal_form([[0, 0, 1], [0, 0, 1], [1, 1, 1]])
    assert form.sizes == (1, 0, 2)
    assert form.kappa == Fraction(1, 3)
    assert form.witness_i == (0, 1)
    assert form.witness_j == (0, 1)


def test_no_support_form_rejects_supported():
    with pytest.raises(HasSupportError):
        no_support_normal_form([[1, 1], [1, 0]])


def test_no_support_form_rejects_zero_row():
    with pytest.raises(ZeroRowError):
        no_support_normal_form([[1, 1, 0], [1, 0, 0], [0, 0, 0]])


def _random_no_support_profile(rng, k, density):
    while True:
        a = np.array([[rng.random() < density for _ in range(k)] for _ in range(k)])
        s = (a | a.T) * 1.0
        prof = VarianceProfile(s)
        pat = pattern_of(prof)
        if not all(pat.rows):
            continue
        if has_support(pat):
            continue
        return prof, pat


def test_no_support_form_random_matches_matching_bound():
    rng = random.Random(41)
    for _ in range(60):
        k = rng.randint(3, 8)
        prof, pat = _random_no_support_profile(rng, k, 0.22)
        form = no_support_normal_form(prof)
        cls = maximal_zero_submatrix(pat)
        assert form.kappa == cls.kappa
        # witness zero corner is genuinely zero in original coordinates
        for i in form.witness_i:
            for j in form.witness_j:
                assert prof.entries[i, j] == 0
        assert set(form.witness_i) <= set(form.witness_j)


def _max_height_reference(s):
    """Exhaustive reference for no_support_normal_form (2^K subsets).

    Over every non-empty index set B, A is the set of rows of B with no
    non-zero in the columns of B; keep the first B (in bit order) of maximal
    perimeter |A| + |B| and, among those, of maximal |B|.  Returns (perm,
    sizes, kappa, witness_i, witness_j) built as the library builds them."""
    present = np.asarray(s) != 0
    k = present.shape[0]
    row_bits = [sum(1 << j for j in range(k) if present[i, j]) for i in range(k)]
    best_b, best_a, best_perim = 0, 0, 0
    for b in range(1, 1 << k):
        a = 0
        for i in range(k):
            if (b >> i) & 1 and not (row_bits[i] & b):
                a |= 1 << i
        perim = b.bit_count() + a.bit_count()
        if perim > best_perim or (
            perim == best_perim and b.bit_count() > best_b.bit_count()
        ):
            best_b, best_a, best_perim = b, a, perim
    set_a = [i for i in range(k) if (best_a >> i) & 1]
    set_b = [i for i in range(k) if (best_b >> i) & 1]
    block1 = [i for i in range(k) if i not in set_b]
    block2 = [i for i in set_b if i not in set_a]
    perm = tuple(block1 + block2 + set_a)
    sizes = (len(block1), len(block2), len(set_a))
    kappa = Fraction(best_perim - k, k)
    return perm, sizes, kappa, tuple(set_a), tuple(set_b)


def _form_tuple(form):
    return form.perm, form.sizes, form.kappa, form.witness_i, form.witness_j


def test_no_support_form_matches_max_height_reference():
    rng = random.Random(53)
    for _ in range(150):
        k = rng.randint(3, 12)
        prof, _ = _random_no_support_profile(rng, k, rng.choice([0.1, 0.15, 0.22, 0.3]))
        expected = _max_height_reference(prof.entries)
        assert _form_tuple(no_support_normal_form(prof)) == expected


def test_no_support_form_zero_corner_k16_matches_reference():
    s = np.ones((16, 16))
    s[:9, :9] = 0.0
    form = no_support_normal_form(s)
    assert form.kappa == Fraction(1, 8)
    assert _form_tuple(form) == _max_height_reference(s)


def test_no_support_form_large_uses_repair_path():
    # K = 18 is past the exhaustive reference; check against the matching bound
    rng = random.Random(43)
    prof, pat = _random_no_support_profile(rng, 18, 0.055)
    form = no_support_normal_form(prof)
    assert form.kappa == maximal_zero_submatrix(pat).kappa


# --- relation and chains ---------------------------------------------------------------


def test_relation_arrow_2x2():
    rel = build_relation(symmetric_normal_form([[1, 1], [1, 0]]))
    assert rel.edges == frozenset({(0, 1)})
    assert rel.extended_edges == frozenset({(-1, 0), (1, 2)})
    ch = longest_chain(rel)
    assert ch.length == 1 and ch.witness == (0, 1)


def test_relation_single_block():
    rel = build_relation(symmetric_normal_form([[1.0]]))
    assert rel.edges == frozenset()
    assert rel.extended_edges == frozenset({(-1, 0), (0, 1)})
    ch = longest_chain(rel)
    assert ch.length == 0 and ch.witness == (0,)


def test_relation_k3_chain():
    rel = build_relation(symmetric_normal_form([[1, 1, 1], [1, 1, 0], [1, 0, 0]]))
    assert rel.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    ch = longest_chain(rel)
    assert ch.length == 2 and ch.witness == (0, 1, 2)


def test_relation_branchy_mask():
    rel = build_relation(branchy_mask_form())
    expected = {
        (0, 1), (0, 2), (0, 4), (0, 5),
        (1, 4), (1, 5), (1, 6),
        (2, 3), (2, 5), (2, 6),
        (3, 4), (4, 6), (5, 6),
    }
    assert rel.edges == frozenset(expected)
    assert rel.extended_edges == frozenset({(-1, 0), (6, 7)})
    ch = longest_chain(rel)
    assert ch.length == 4
    assert ch.witness == (0, 2, 3, 4, 6)


def test_relation_big_example_canonical():
    # Frozen canonical form of BIG_EXAMPLE.  The per-index growth exponents
    # implied by this relation were cross-checked against direct numerical
    # solutions of the self-consistent equation at eta down to 1e-12.
    nf = symmetric_normal_form(BIG_EXAMPLE)
    assert nf.perm == (9, 1, 3, 4, 6, 8, 0, 2, 7, 5)
    assert nf.dims == (1, 2, 1, 2, 1, 2, 1)
    rel = build_relation(nf)
    assert rel.edges == frozenset({
        (0, 1), (0, 2), (0, 4), (0, 5),
        (1, 2), (1, 3), (1, 5), (1, 6),
        (2, 6), (3, 5), (4, 5), (4, 6), (5, 6),
    })
    assert rel.extended_edges == frozenset({(-1, 0), (6, 7)})
    ch = longest_chain(rel)
    assert ch.length == 4
    assert ch.witness == (0, 1, 3, 5, 6)


def test_longest_chain_of_a_1200_block_path():
    n = 1200
    rel = BlockRelation(
        n,
        tuple(range(n)),
        frozenset((i, i + 1) for i in range(n - 1)),
        frozenset({(-1, 0), (n - 1, n)}),
    )
    ch = longest_chain(rel)
    assert ch.length == n - 1
    assert ch.witness == tuple(range(n))


def test_longest_chain_rejects_a_cycle():
    rel = BlockRelation(2, (1, 0), frozenset({(0, 1), (1, 0)}), frozenset())
    with pytest.raises(CyclicRelationError):
        longest_chain(rel)


def test_relation_mirror_symmetry():
    # i < j implies partner(j) < partner(i); holds for every random profile
    rng = random.Random(47)
    n_done = 0
    while n_done < 60:
        k = rng.randint(2, 7)
        a = np.array([[rng.random() < 0.5 for _ in range(k)] for _ in range(k)])
        s = (a | a.T) * 1.0
        if not has_support(pattern_of(VarianceProfile(s))):
            continue
        rel = build_relation(symmetric_normal_form(s))
        for (i, j) in rel.edges:
            assert (rel.partner[j], rel.partner[i]) in rel.edges
        n_done += 1
