"""Tests for canonical JSON serialization, profile parsing, and CSV output."""

import json
import math
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from specdens.dyson import DensityCurve, empirical_exponents
from specdens.errors import NegativeEntryError, NotSymmetricError
from specdens.minmax import analyze
from specdens.montecarlo import EnsembleConfig, SweepReport, run_sweep
from specdens.normal_form import VarianceProfile, pattern_of
from specdens.report import (
    canonical_json,
    classification_document,
    density_csv,
    fraction_str,
    parse_profile_text,
    scaling_table_csv,
    sweep_csv,
)

ARROW = [[1.0, 1.0], [1.0, 0.0]]
NOSUPPORT3 = [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]
CHAIN3 = [[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
# 10 x 10 reference profile: three pairs, one middle block, chain length 4.
REFERENCE = [[float(c) for c in row] for row in [
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
]]


def tridiagonal(k):
    a = np.eye(k)
    i = np.arange(k - 1)
    a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def zero_corner(k, z):
    """All ones but a z x z zero corner: no support, kappa (2z - k) / k."""
    a = np.ones((k, k))
    a[:z, :z] = 0.0
    return a


# --- canonical JSON ---------------------------------------------------------------


def test_keys_sorted_and_floats_formatted():
    text = canonical_json({"b": 1.0, "a": 0.5, "c": [1, None, True]})
    assert text == '{"a": 0.5, "b": 1, "c": [1, null, true]}'


def test_fraction_serialization():
    assert fraction_str(F(2, 3)) == "2/3"
    assert fraction_str(F(2, 4)) == "1/2"
    assert fraction_str(F(0)) == "0/1"
    assert fraction_str(F(-1, 3)) == "-1/3"
    assert canonical_json({"x": F(-2, 6)}) == '{"x": "-1/3"}'


def test_non_finite_floats_become_strings():
    assert canonical_json([math.inf, -math.inf, math.nan]) == '["inf", "-inf", "nan"]'


def test_negative_zero_normalized():
    text = canonical_json({"x": -0.0})
    assert text == '{"x": 0}'
    assert canonical_json(json.loads(text)) == text


def test_round_trip_is_byte_identical():
    doc = {
        "tiny": 1e-300,
        "big": 1.23456789012e17,
        "neg": -0.030303030303,
        "frac": F(7, 9),
        "nested": {"z": [1, 2.5, "s"], "a": None},
        "twelve": 0.308202345678,
    }
    text = canonical_json(doc)
    assert canonical_json(json.loads(text)) == text


def test_rejects_unserializable():
    with pytest.raises(TypeError):
        canonical_json({"x": object()})
    with pytest.raises(TypeError):
        canonical_json({1: "non-string key"})


# --- profile parsing --------------------------------------------------------------


def test_parse_csv_profile():
    p = parse_profile_text("1,1\n1,0\n")
    assert p.k == 2
    assert p.entries[1, 1] == 0.0  # exact zero preserved


def test_parse_json_profile():
    p = parse_profile_text('{"K": 2, "entries": [[1, 1], [1, 0]]}')
    assert p.k == 2


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_profile_text("")
    with pytest.raises(ValueError):
        parse_profile_text("{not json")
    with pytest.raises(ValueError):
        parse_profile_text('{"K": 3, "entries": [[1]]}')
    with pytest.raises(ValueError):
        parse_profile_text("1,two\n3,4\n")
    with pytest.raises(NotSymmetricError):
        parse_profile_text("1,2\n3,4\n")
    with pytest.raises(NegativeEntryError):
        parse_profile_text("1,-1\n-1,1\n")
    for text in (
        '{"K": null, "entries": [[1]]}',
        '{"K": [2], "entries": [[1]]}',
        '{"entries": [[{}]]}',
        '{"K": 1e400, "entries": [[1]]}',
        '{"entries": ' + "[" * 100_000 + "]" * 100_000 + "}",
        '{"K": 2.7, "entries": [[1, 1], [1, 0]]}',
        '{"K": true, "entries": [[1]]}',
        '{"K": "2", "entries": [[1, 1], [1, 0]]}',
    ):
        with pytest.raises(ValueError, match="invalid JSON profile"):
            parse_profile_text(text)


# --- classification documents -----------------------------------------------------


def test_document_supported_profile():
    doc = classification_document(ARROW)
    assert classification_document(analyze(ARROW)) == doc
    assert doc["schema"] == 1
    assert doc["support_class"] == "SupportOnly"
    assert doc["kappa"] is None
    assert doc["sigma"] == "1/3"
    assert doc["Q"] == 3
    assert doc["f"] == ["-1/3", "1/3"]
    assert doc["longest_chain"] == {"length": 1, "witness": [0, 1]}
    assert doc["relation_edges"] == [[0, 1]]


def test_document_flat_profile():
    doc = classification_document(np.ones((4, 4)))
    assert classification_document(analyze(np.ones((4, 4)))) == doc
    assert doc["support_class"] == "TotalSupport"
    assert doc["sigma"] == "0/1"
    assert doc["block_dims"] == [4]


def test_document_no_support_profile():
    doc = classification_document(NOSUPPORT3)
    assert classification_document(analyze(NOSUPPORT3)) == doc
    assert doc["support_class"] == "NoSupport"
    assert doc["kappa"] == "1/3"
    assert doc["sigma"] is None
    assert doc["mask"] is None
    assert doc["block_dims"] is not None  # three-block decomposition sizes


# Canonical documents pinned byte for byte.  Every value is an exact integer
# or rational, so the strings do not depend on the platform.
GOLDEN_DOCUMENTS = {
    "arrow": (ARROW, (
        '{"L": 0, "M": 1, "Q": 3, "block_dims": [1, 1], "f": ["-1/3", "1/3"], '
        '"kappa": null, "longest_chain": {"length": 1, "witness": [0, 1]}, '
        '"mask": [[1, 1], [1, 0]], "permutation": [0, 1], '
        '"relation_edges": [[0, 1]], "schema": 1, "sigma": "1/3", '
        '"support_class": "SupportOnly"}'
    )),
    "chain3": (CHAIN3, (
        '{"L": 1, "M": 1, "Q": 2, "block_dims": [1, 1, 1], '
        '"f": ["-1/2", "0/1", "1/2"], "kappa": null, '
        '"longest_chain": {"length": 2, "witness": [0, 1, 2]}, '
        '"mask": [[1, 1, 1], [1, 1, 0], [1, 0, 0]], "permutation": [0, 1, 2], '
        '"relation_edges": [[0, 1], [0, 2], [1, 2]], "schema": 1, '
        '"sigma": "1/2", "support_class": "SupportOnly"}'
    )),
    "ones3": (np.ones((3, 3)), (
        '{"L": 1, "M": 0, "Q": 1, "block_dims": [3], "f": ["0/1"], '
        '"kappa": null, "longest_chain": {"length": 0, "witness": [0]}, '
        '"mask": [[1]], "permutation": [0, 1, 2], "relation_edges": [], '
        '"schema": 1, "sigma": "0/1", "support_class": "TotalSupport"}'
    )),
    "reference": (REFERENCE, (
        '{"L": 1, "M": 3, "Q": 6, "block_dims": [1, 2, 1, 2, 1, 2, 1], '
        '"f": ["-2/3", "-1/3", "1/6", "0/1", "-1/6", "1/3", "2/3"], '
        '"kappa": null, "longest_chain": {"length": 4, "witness": [0, 1, 3, 5, 6]}, '
        '"mask": [[0, 1, 1, 0, 1, 1, 1], [1, 1, 0, 1, 1, 1, 0], '
        '[1, 0, 0, 0, 1, 0, 0], [0, 1, 0, 1, 0, 0, 0], [1, 1, 1, 0, 0, 0, 0], '
        '[1, 1, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0]], '
        '"permutation": [9, 1, 3, 4, 6, 8, 0, 2, 7, 5], '
        '"relation_edges": [[0, 1], [0, 2], [0, 4], [0, 5], [1, 2], [1, 3], '
        '[1, 5], [1, 6], [2, 6], [3, 5], [4, 5], [4, 6], [5, 6]], "schema": 1, '
        '"sigma": "2/3", "support_class": "SupportOnly"}'
    )),
    "nosupport3": (NOSUPPORT3, (
        '{"L": null, "M": null, "Q": null, "block_dims": [1, 0, 2], "f": null, '
        '"kappa": "1/3", "longest_chain": null, "mask": null, '
        '"permutation": [2, 0, 1], "relation_edges": null, "schema": 1, '
        '"sigma": null, "support_class": "NoSupport"}'
    )),
    "zero_corner16": (zero_corner(16, 9), (
        '{"L": null, "M": null, "Q": null, "block_dims": [7, 0, 9], "f": null, '
        '"kappa": "1/8", "longest_chain": null, "mask": null, '
        '"permutation": [9, 10, 11, 12, 13, 14, 15, 0, 1, 2, 3, 4, 5, 6, 7, 8], '
        '"relation_edges": null, "schema": 1, "sigma": null, '
        '"support_class": "NoSupport"}'
    )),
    "zero_diagonal_path12": (tridiagonal(12) - np.eye(12), (
        '{"L": 0, "M": 6, "Q": 7, '
        '"block_dims": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], '
        '"f": ["-5/7", "-3/7", "-1/7", "1/7", "3/7", "5/7", '
        '"-5/7", "-3/7", "-1/7", "1/7", "3/7", "5/7"], "kappa": null, '
        '"longest_chain": {"length": 5, "witness": [0, 1, 2, 3, 4, 5]}, '
        '"mask": [[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1], '
        '[0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0], '
        '[0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0], '
        '[0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0], '
        '[0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0], '
        '[0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0], '
        '[0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0], '
        '[0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0], '
        '[0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0], '
        '[0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0], '
        '[1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], '
        '[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]], '
        '"permutation": [1, 3, 5, 7, 9, 11, 10, 8, 6, 4, 2, 0], '
        '"relation_edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [6, 7], '
        '[7, 8], [8, 9], [9, 10], [10, 11]], "schema": 1, "sigma": "5/7", '
        '"support_class": "SupportOnly"}'
    )),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DOCUMENTS))
def test_document_golden_bytes(name):
    profile, expected = GOLDEN_DOCUMENTS[name]
    assert canonical_json(classification_document(profile)) == expected


def test_document_long_tridiagonal():
    # augmenting paths as long as the profile: no recursion limit applies;
    # a pattern is its row lists, O(K + nnz) memory and no K x K grid
    profile = VarianceProfile(tridiagonal(3000))
    tracemalloc.start()
    try:
        pattern_of(profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    doc = classification_document(profile)
    assert doc["support_class"] == "TotalSupport"
    assert doc["sigma"] == "0/1"


def test_document_holds_no_copy_of_the_profile():
    # the normal form and its audit read the pattern, never a permuted
    # K x K copy of the profile
    profile = VarianceProfile(tridiagonal(1500))
    tracemalloc.start()
    try:
        classification_document(profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < profile.entries.nbytes / 2


# --- CSV --------------------------------------------------------------------------


def test_scaling_table_csv():
    fit = empirical_exponents(ARROW, eta_min=1e-6, eta_max=1e-3)
    text = scaling_table_csv(fit)
    lines = text.strip().splitlines()
    assert lines[0] == "block,f_pred,slope_fit,abs_err"
    assert len(lines) == 3
    assert lines[1].startswith("0,-1/3,")


def test_density_csv():
    curve = DensityCurve(
        tau=np.array([0.0, 0.5]), rho=np.array([0.25, 0.125]), epsilon=1e-6
    )
    assert density_csv(curve) == "tau,rho\n0,0.25\n0.5,0.125\n"


def test_csv_cells_of_special_floats():
    # the bytes the cells had when nan and the infinities were spelled out
    # by hand
    values = [math.nan, math.inf, -math.inf, -0.0, 1e-320, 5e300]
    cells = ["nan", "inf", "-inf", "-0", "9.99988867183e-321", "5e+300"]
    curve = DensityCurve(tau=np.array(values), rho=np.array(values[::-1]), epsilon=1e-3)
    assert density_csv(curve) == "tau,rho\n" + "".join(
        f"{t},{r}\n" for t, r in zip(cells, cells[::-1])
    )
    rep = SweepReport(
        sizes=tuple(range(1, 7)), dims=tuple(range(2, 13, 2)), trials=2, master_seed=0,
        smin=np.zeros((6, 2)), mean_smin=tuple(values),
        stderr_smin=tuple(np.float64(x) for x in values[::-1]), mean_cond=tuple(values),
        slope=0.0, predicted_slope=None,
    )
    assert sweep_csv(rep).splitlines()[1:] == [
        f"{n},{2 * n},{a},{b},{a}" for n, a, b in zip(range(1, 7), cells, cells[::-1])
    ]


def test_sweep_csv():
    rep = run_sweep(EnsembleConfig(ARROW, (4, 8), trials=3, master_seed=1))
    lines = sweep_csv(rep).strip().splitlines()
    assert lines[0] == "size_n,dim_N,mean_smin,stderr_smin,mean_cond"
    assert lines[1].startswith("4,8,")
    assert lines[2].startswith("8,16,")
