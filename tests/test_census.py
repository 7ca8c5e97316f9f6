"""Census of every labelled symmetric 0/1 pattern with K <= 4.

There are 2 + 8 + 64 + 1024 = 1098 of them.  Each one is checked against
the exhaustive oracle (support, total support, full indecomposability and
the skeleton), classified by ``analyze`` before and after a seeded
symmetric permutation, and, without support and without a zero row, its
point mass at zero is compared with the Koenig witness."""

import random
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest

from specdens.errors import ZeroRowError
from specdens.minmax import analyze
from specdens.normal_form import pattern_of
from specdens.patterns import (
    fid_skeleton,
    has_support,
    has_total_support,
    maximal_zero_submatrix,
)

from oracles import brute_force_oracle, fully_indecomposable, grid


def symmetric_patterns(k):
    """All 2**(K(K+1)/2) symmetric 0/1 K x K matrices, in bit order."""
    cells = list(combinations_with_replacement(range(k), 2))
    for bits in range(1 << len(cells)):
        a = np.zeros((k, k))
        for n, (i, j) in enumerate(cells):
            if bits >> n & 1:
                a[i, j] = a[j, i] = 1.0
        yield a


def _invariants(s):
    """Class and sigma (supported) or kappa (no support, no zero row) of
    ``analyze``; None in place of kappa when a row vanishes."""
    an = analyze(s)
    if an.nf is not None:
        return an.support_class, an.exponents.sigma
    try:
        return an.support_class, an.no_support.kappa
    except ZeroRowError:
        return an.support_class, None


def test_census_of_symmetric_patterns_up_to_k4():
    rng = random.Random(4)
    classes = Counter()
    for k in range(1, 5):
        for s in symmetric_patterns(k):
            p = pattern_of(s)
            support = brute_force_oracle(p, "support")
            total = brute_force_oracle(p, "total_support")
            assert has_support(p) == support
            assert has_total_support(p) == total
            assert fully_indecomposable(p) == brute_force_oracle(p, "fid")
            if support:
                assert grid(fid_skeleton(p)) == brute_force_oracle(p, "skeleton")
            tag, value = _invariants(s)
            expected = (
                "TotalSupport" if total else "SupportOnly" if support else "NoSupport"
            )
            assert tag == expected
            classes[tag] += 1
            perm = list(range(k))
            rng.shuffle(perm)
            assert _invariants(s[np.ix_(perm, perm)]) == (tag, value)
            if tag == "NoSupport" and value is not None:
                assert value == maximal_zero_submatrix(p).kappa
            elif tag == "NoSupport":
                with pytest.raises(ZeroRowError):
                    maximal_zero_submatrix(p)
    assert classes == {"TotalSupport": 376, "SupportOnly": 422, "NoSupport": 300}
