"""Tests for zero-pattern combinatorics."""

import random
from fractions import Fraction

import numpy as np
import pytest

from specdens import normal_form, patterns
from specdens.errors import NoSupportError, ZeroRowError
from specdens.normal_form import _strong_hall
from specdens.patterns import (
    ZeroPattern,
    fid_skeleton,
    has_support,
    has_total_support,
    is_fully_indecomposable,
    max_bipartite_matching,
    maximal_zero_submatrix,
)

from oracles import TooLargeError, brute_force_oracle, grid, rows_spread
from test_normal_form import BIG_EXAMPLE


def pat(rows):
    return ZeroPattern.from_matrix(rows)


def permuted(p, row_perm, col_perm):
    """Pattern with rows/columns reordered: new (i, j) = old
    (row_perm[i], col_perm[j])."""
    return pat(np.array(grid(p))[np.ix_(row_perm, col_perm)])


def random_pattern(rng, k, density):
    return pat([[1 if rng.random() < density else 0 for _ in range(k)] for _ in range(k)])


# --- the pattern itself ------------------------------------------------------------


def test_pattern_is_its_row_lists():
    p = pat(np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1e-300, 0.0, -1.0]]))
    assert p == ZeroPattern(3, ((1,), (), (0, 2)))
    assert pat([[True, False], [True, True]]).rows == ((0,), (0, 1))


@pytest.mark.parametrize("entries", [
    np.ones((2, 2, 2)),  # ndim 3
    np.array([1.0, 0.0]),  # ndim 1
    [[1, 0], [1]],  # ragged
    np.ones((2, 3)),  # not square
    np.zeros((0, 0)),  # empty
])
def test_from_matrix_rejects_malformed_input(entries):
    with pytest.raises(ValueError):
        ZeroPattern.from_matrix(entries)


@pytest.mark.parametrize("k, rows", [
    (2, ((True, 2), (False, True))),  # a boolean grid, not row lists
    (2, ((0, 2), (1,))),  # column out of range
    (2, ((-1,), (1,))),  # negative column
    (2, ((1, 0), (1,))),  # unsorted
    (2, ((0, 0), (1,))),  # repeated
    (2, ((0.0,), (1,))),  # not an integer
    (2, ((True,), (1,))),  # a bool
    (2, ((0,),)),  # too few rows
    (2, ([0], (1,))),  # a row that is not a tuple
    (2, [(0,), (1,)]),  # rows that are not a tuple
    (0, ()),  # empty
    (True, ((0,),)),  # a bool dimension
])
def test_pattern_rejects_malformed_rows(k, rows):
    with pytest.raises(ValueError):
        ZeroPattern(k, rows)


# --- matching -------------------------------------------------------------------


def test_matching_all_present_2x2():
    m = max_bipartite_matching(pat([[1, 1], [1, 1]]))
    assert m.size == 2 and m.perfect
    assert sorted(m.row_match) == [0, 1]


def test_matching_deficient_3x3():
    m = max_bipartite_matching(pat([[0, 0, 1], [0, 0, 1], [1, 1, 1]]))
    assert m.size == 2 and not m.perfect


def test_matching_zero_1x1():
    m = max_bipartite_matching(pat([[0]]))
    assert m.size == 0 and not m.perfect and m.row_match == (None,)


def test_matching_deterministic():
    p = pat([[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    assert max_bipartite_matching(p) == max_bipartite_matching(p)


# --- support classes --------------------------------------------------------------


def test_support_examples():
    assert has_support(pat([[1, 1], [1, 0]]))
    assert not has_support(pat([[0, 0, 1], [0, 0, 1], [1, 1, 1]]))


def test_total_support_examples():
    assert not has_total_support(pat([[1, 1], [1, 0]]))
    assert has_total_support(pat([[0, 1], [1, 0]]))
    assert has_total_support(pat([[1, 1], [1, 1]]))


def test_fid_examples():
    assert is_fully_indecomposable(pat([[1, 1], [1, 1]]))
    # permutation pattern: total support but decomposable
    assert not is_fully_indecomposable(pat([[0, 1], [1, 0]]))
    assert is_fully_indecomposable(pat([[1, 1, 0], [1, 1, 1], [0, 1, 1]]))
    assert is_fully_indecomposable(pat([[1]]))
    assert not is_fully_indecomposable(pat([[0]]))


def test_fid_implies_total_support_implies_support():
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(1, 6)
        p = random_pattern(rng, k, rng.choice([0.3, 0.5, 0.8]))
        if is_fully_indecomposable(p):
            assert has_total_support(p)
        if has_total_support(p):
            assert has_support(p)


def test_fid_skeleton_example():
    assert fid_skeleton(pat([[1, 1], [1, 0]])) == pat([[0, 1], [1, 0]])


def test_fid_skeleton_no_support_raises():
    with pytest.raises(NoSupportError):
        fid_skeleton(pat([[0, 0, 1], [0, 0, 1], [1, 1, 1]]))


def test_skeleton_has_total_support():
    rng = random.Random(11)
    n_checked = 0
    while n_checked < 200:
        k = rng.randint(1, 7)
        p = random_pattern(rng, k, rng.choice([0.35, 0.5, 0.7]))
        if not has_support(p):
            continue
        sk = fid_skeleton(p)
        assert has_total_support(sk)
        # idempotent
        assert fid_skeleton(sk) == sk
        n_checked += 1


def test_skeleton_matching_independent_under_permutation():
    # conjugating by (P, Q) changes which matching the scan finds; the
    # skeleton must transform covariantly.
    rng = random.Random(13)
    n_checked = 0
    while n_checked < 100:
        k = rng.randint(2, 7)
        p = random_pattern(rng, k, 0.5)
        if not has_support(p):
            continue
        rp = list(range(k))
        cp = list(range(k))
        rng.shuffle(rp)
        rng.shuffle(cp)
        sk_then_perm = permuted(fid_skeleton(p), rp, cp)
        perm_then_sk = fid_skeleton(permuted(p, rp, cp))
        assert sk_then_perm == perm_then_sk
        n_checked += 1


# --- no-support witnesses -----------------------------------------------------------


def test_maximal_zero_submatrix_example():
    res = maximal_zero_submatrix(pat([[0, 0, 1], [0, 0, 1], [1, 1, 1]]))
    assert res.tag == "NoSupport"
    assert res.witness_i == (0, 1)
    assert res.witness_j == (0, 1)
    assert res.kappa == Fraction(1, 3)


def test_maximal_zero_submatrix_support_only():
    res = maximal_zero_submatrix(pat([[1, 1], [1, 0]]))
    assert res.tag == "SupportOnly"
    assert res.kappa is None


def test_maximal_zero_submatrix_total_support():
    assert maximal_zero_submatrix(pat([[0, 1], [1, 0]])).tag == "TotalSupport"


def test_maximal_zero_submatrix_zero_row():
    with pytest.raises(ZeroRowError):
        maximal_zero_submatrix(pat([[1, 0], [0, 0]]))


def test_kappa_in_unit_interval_and_witness_zero():
    rng = random.Random(17)
    n_checked = 0
    while n_checked < 200:
        k = rng.randint(2, 7)
        p = random_pattern(rng, k, 0.3)
        if not all(p.rows):
            continue
        res = maximal_zero_submatrix(p)
        if res.tag != "NoSupport":
            continue
        assert 0 < res.kappa <= 1
        assert len(res.witness_i) + len(res.witness_j) > k
        assert all(j not in p.rows[i] for i in res.witness_i for j in res.witness_j)
        n_checked += 1


# --- permutation invariance ----------------------------------------------------------


def test_classification_permutation_invariant():
    rng = random.Random(19)
    for _ in range(150):
        k = rng.randint(1, 6)
        p = random_pattern(rng, k, rng.choice([0.3, 0.6]))
        rp = list(range(k))
        cp = list(range(k))
        rng.shuffle(rp)
        rng.shuffle(cp)
        q = permuted(p, rp, cp)
        assert has_support(p) == has_support(q)
        assert has_total_support(p) == has_total_support(q)
        assert is_fully_indecomposable(p) == is_fully_indecomposable(q)


# --- oracle agreement ------------------------------------------------------------------


def test_oracle_limit():
    with pytest.raises(TooLargeError):
        brute_force_oracle(pat([[1] * 9 for _ in range(9)]), "support")


def _assert_oracle_agreement(p):
    m = max_bipartite_matching(p)
    _assert_maximum_matching(p, m.row_match, m.size)
    assert m.perfect == has_support(p) == brute_force_oracle(p, "support")
    assert has_total_support(p) == brute_force_oracle(p, "total_support")
    assert is_fully_indecomposable(p) == brute_force_oracle(p, "fid")
    if m.perfect:
        assert grid(fid_skeleton(p)) == brute_force_oracle(p, "skeleton")
    elif all(p.rows):
        res = maximal_zero_submatrix(p)
        perimeter, _, _ = brute_force_oracle(p, "max_zero")
        assert len(res.witness_i) + len(res.witness_j) == perimeter
        assert all(j not in p.rows[i] for i in res.witness_i for j in res.witness_j)


def test_oracle_agreement_random():
    rng = random.Random(23)
    for _ in range(250):
        k = rng.randint(1, 6)
        _assert_oracle_agreement(random_pattern(rng, k, rng.choice([0.25, 0.45, 0.7])))
    # up to the oracle's limit, a third of them with a planted diagonal
    rng = random.Random(37)
    for n in range(120):
        k = rng.randint(7, 8)
        rows = [[rng.random() < rng.choice([0.2, 0.4, 0.7]) for _ in range(k)]
                for _ in range(k)]
        if n % 3 == 0:
            for i in range(k):
                rows[i][(i + n) % k] = True
        _assert_oracle_agreement(pat(rows))


def test_oracle_rejects_unknown_query():
    with pytest.raises(ValueError):
        brute_force_oracle(pat([[1]]), "banana")


# --- the matching kernel against its predecessor ----------------------------------------


def _reference_matching(adj, n_cols):
    """The augmenting-path kernel without greedy start or lookahead: rows in
    ascending order, each by a depth-first search over its columns in list
    order that starts with no column visited."""
    col_match = [None] * n_cols
    for root in range(len(adj)):
        visited = [False] * n_cols
        stack = [(root, 0)]
        path = []
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
                for (row, _), col in zip(stack, path + [c]):
                    col_match[col] = row
                break
            path.append(c)
            stack.append((col_match[c], 0))
    return col_match


def _square_cases():
    """Seeded square patterns, K <= 40 at several densities (a third with a
    planted positive diagonal, a third with a planted entry in every row),
    plus permuted K = 200 blow-ups of the 10 x 10 reference profile."""
    rng = random.Random(29)
    cases = []
    for n in range(2001):
        k = rng.randint(1, 40)
        density = rng.choice([0.03, 0.08, 0.15, 0.3, 0.5, 0.8])
        rows = [[rng.random() < density for _ in range(k)] for _ in range(k)]
        sigma = list(range(k))
        rng.shuffle(sigma)
        for i in range(k):
            if n % 3 == 1:
                rows[i][sigma[i]] = True
            elif n % 3 == 2:
                rows[i][rng.randrange(k)] = True
        cases.append(pat(rows))
    blowup = pat(np.kron(BIG_EXAMPLE, np.ones((20, 20))) != 0)
    for _ in range(4):
        rp, cp = list(range(200)), list(range(200))
        rng.shuffle(rp)
        rng.shuffle(cp)
        cases.append(permuted(blowup, rp, rp))
        cases.append(permuted(blowup, rp, cp))
    return cases


def _rectangular_cases():
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(400):
        rows = int(rng.integers(1, 13))
        cols = rows + int(rng.integers(0, 13))
        cases.append(rng.random((rows, cols)) < rng.choice([0.1, 0.25, 0.5, 0.8]))
    return cases


def _row_lists(rect):
    """``_strong_hall`` arguments of a boolean rows x cols matrix."""
    return [np.flatnonzero(row).tolist() for row in rect], rect.shape[1]


def _kernel_outputs(p):
    """Everything the package derives from a maximum matching of p."""
    m = max_bipartite_matching(p)
    out = {
        "size": m.size,
        "fid": is_fully_indecomposable(p),
        "total_support": has_total_support(p),
    }
    if m.perfect:
        out["skeleton"] = fid_skeleton(p)
    elif all(p.rows):
        res = maximal_zero_submatrix(p)
        out["witness"] = (res.witness_i, res.witness_j, res.kappa)
    return out


def _assert_maximum_matching(p, row_match, size):
    cols = [j for j in row_match if j is not None]
    assert len(cols) == len(set(cols)) == size
    assert all(j is None or j in p.rows[i] for i, j in enumerate(row_match))


def test_kernel_agrees_with_reference_kernel(monkeypatch):
    squares, rects = _square_cases(), _rectangular_cases()
    new = [_kernel_outputs(p) for p in squares]
    new_matches = [max_bipartite_matching(p).row_match for p in squares]
    new_hall = [_strong_hall(*_row_lists(r)) for r in rects]
    monkeypatch.setattr(patterns, "augmenting_matching", _reference_matching)
    monkeypatch.setattr(normal_form, "augmenting_matching", _reference_matching)
    ref = [_kernel_outputs(p) for p in squares]
    ref_matches = [max_bipartite_matching(p).row_match for p in squares]
    for p, row_match, out, expected in zip(squares, new_matches, new, ref):
        _assert_maximum_matching(p, row_match, expected["size"])
        assert out == expected
    assert [_strong_hall(*_row_lists(r)) for r in rects] == new_hall
    # the two kernels often pick different maximum matchings, and nothing
    # derived from the matching notices
    assert sum(a != b for a, b in zip(new_matches, ref_matches)) > 100
    assert 0 < sum(new_hall) < len(new_hall)


def test_strong_hall_matches_subset_enumeration():
    # every 0/1 rectangle with at most 3 rows and 4 columns, empty shapes too
    seen = {True: 0, False: 0}
    for rows in range(4):
        for cols in range(5):
            for bits in range(1 << (rows * cols)):
                adj = [
                    [c for c in range(cols) if bits >> (r * cols + c) & 1]
                    for r in range(rows)
                ]
                expected = rows_spread(adj)
                assert _strong_hall(adj, cols) == expected, (adj, cols)
                seen[expected] += 1
    assert seen[True] > 1000 and seen[False] > 1000
