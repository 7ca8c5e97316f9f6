"""Single-fault table of the numeric arguments.

Every numeric scalar argument of a public function, and every numeric flag
of the CLI, is one of two kinds (see the README's "Arguments"):

* a count: a Python or numpy integer, not a bool, with a minimum;
* a finite real: a Python int or float or a numpy integer or floating
  scalar, not a bool, with a lower bound, strict or not.

Each row names one argument once, with its kind.  The bad values are
derived from the kind, and each one must be rejected before any solve or
trial runs: the library raises NonPositiveInputError, a ValueError and a
TypeError, with the one message of the kind, the CLI exits 2 with one ``error:`` line (or argparse's own
``SystemExit(2)``).  A numpy scalar of the right kind must give the same
output as its Python value.  Vectors, matrices, profiles and the complex
``z`` of the plane solver are not scalars of either kind; their own tests
check them.
"""

import dataclasses
import math
import time
import warnings
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

import specdens.cli as cli
from specdens import dyson, montecarlo
from specdens.dyson import (
    DensityCurve,
    atom_mass_estimate,
    density_profile,
    empirical_exponents,
    limit_weights,
    quantile,
    solve_imaginary_axis,
    solve_upper_half_plane,
    variational_value,
)
from specdens.errors import NonPositiveInputError
from specdens.montecarlo import EnsembleConfig, run_sweep, sample_block_hermitian
from specdens.patterns import ZeroPattern

ARROW = np.array([[1.0, 1.0], [1.0, 0.0]])
NOSUPPORT3 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
_TAUS = np.linspace(0.0, 2.0, 4001)
SEMICIRCLE = DensityCurve(
    tau=_TAUS, rho=np.sqrt(np.clip(4.0 - _TAUS**2, 0.0, None)) / (2.0 * math.pi), epsilon=0.0
)


@dataclasses.dataclass(frozen=True)
class Count:
    minimum: int = 1

    def bad_values(self):
        below = [x for x in (self.minimum - 1, 0, -1) if x < self.minimum]
        return [True, np.True_, math.nan, math.inf, -math.inf, "1", np.float64(4.0), 2.5,
                *dict.fromkeys(below)]

    def message(self, label):
        return f"{label} must be an integer >= {self.minimum}"

    def twin(self, value):
        return np.int64(value)


@dataclasses.dataclass(frozen=True)
class Real:
    lower: float = -math.inf
    strict: bool = False

    def bad_values(self):
        below = [x for x in (0, -1) if x < self.lower or (self.strict and x == self.lower)]
        return [True, np.True_, math.nan, math.inf, -math.inf, "0.5", np.complex128(0.5),
                *below]

    def message(self, label):
        if self.lower == -math.inf:
            return f"{label} must be a finite real"
        return f"{label} must be a finite real {'>' if self.strict else '>='} {self.lower:g}"

    def twin(self, value):
        twin = np.float32(value)
        assert float(twin) == value
        return twin


COUNT, COUNT0, COUNT2 = Count(1), Count(0), Count(2)
POSITIVE, NON_NEGATIVE, ANY = Real(0.0, strict=True), Real(0.0), Real()


class Row(NamedTuple):
    id: str
    kind: object
    call: Callable
    good: object
    label: str = ""  # the argument's name in the message, when not the id's
    extra: tuple = ()  # more bad values of the kind

    @property
    def name(self):
        return self.label or self.id.split("-")[-1]


_FIT = dict(eta_min=2.0**-20, eta_max=2.0**-10, points_per_decade=2)
_PAIR = (2.0**-39, 2.0**-40)


def _sweep(**kw):
    return run_sweep(EnsembleConfig(ARROW, **{**dict(sizes=(2, 4), trials=2, workers=1), **kw}))


LIBRARY = [
    Row("solve_imaginary_axis-eta", POSITIVE, lambda x: solve_imaginary_axis(ARROW, x), 0.5),
    Row("solve_imaginary_axis-tol", POSITIVE,
        lambda x: solve_imaginary_axis(ARROW, 0.3, tol=x), 2.0**-30, extra=(-1.0, 0.0)),
    Row("solve_imaginary_axis-max_iter", COUNT,
        lambda x: solve_imaginary_axis(ARROW, 0.3, max_iter=x), 1000, extra=(-5, 2.0)),
    Row("solve_upper_half_plane-tol", POSITIVE,
        lambda x: solve_upper_half_plane(ARROW, 0.3 + 1e-3j, tol=x), 2.0**-30,
        extra=(-1.0, 0.0)),
    Row("solve_upper_half_plane-max_iter", COUNT,
        lambda x: solve_upper_half_plane(ARROW, 0.3 + 1e-3j, max_iter=x), 1000,
        extra=(-5, 2.0)),
    Row("density_profile-epsilon", POSITIVE,
        lambda x: density_profile(ARROW, [0.3], epsilon=x), 2.0**-10),
    Row("density_profile-tol", POSITIVE,
        lambda x: density_profile(ARROW, [0.3], epsilon=1e-3, tol=x), 2.0**-30,
        extra=(-1.0, 0.0)),
    Row("density_profile-max_iter", COUNT,
        lambda x: density_profile(ARROW, [0.3], epsilon=1e-3, max_iter=x), 1000,
        extra=(-5, 2.0)),
    Row("variational_value-eta", NON_NEGATIVE,
        lambda x: variational_value(ARROW, [1.0, 2.0], x), 0.5),
    Row("empirical_exponents-eta_min", POSITIVE,
        lambda x: empirical_exponents(ARROW, **{**_FIT, "eta_min": x}), _FIT["eta_min"]),
    Row("empirical_exponents-eta_max", POSITIVE,
        lambda x: empirical_exponents(ARROW, **{**_FIT, "eta_max": x}), _FIT["eta_max"]),
    Row("empirical_exponents-points_per_decade", COUNT,
        lambda x: empirical_exponents(ARROW, **{**_FIT, "points_per_decade": x}), 2,
        extra=(-3,)),
    Row("empirical_exponents-tol", POSITIVE,
        lambda x: empirical_exponents(ARROW, **_FIT, tol=x), 2.0**-40, extra=(-1.0, 0.0)),
    Row("limit_weights-eta_pair_0", POSITIVE,
        lambda x: limit_weights(ARROW, eta_pair=(x, _PAIR[1])), _PAIR[0], label="eta_pair[0]"),
    Row("limit_weights-eta_pair_1", POSITIVE,
        lambda x: limit_weights(ARROW, eta_pair=(_PAIR[0], x)), _PAIR[1], label="eta_pair[1]"),
    Row("limit_weights-tol", POSITIVE, lambda x: limit_weights(ARROW, tol=x), 2.0**-43,
        extra=(-1.0, 0.0)),
    Row("atom_mass_estimate-eta_grid_0", POSITIVE,
        lambda x: atom_mass_estimate(NOSUPPORT3, eta_grid=(x, 2.0**-20)), 2.0**-13,
        label="eta_grid[0]"),
    Row("atom_mass_estimate-tol", POSITIVE,
        lambda x: atom_mass_estimate(NOSUPPORT3, tol=x), 2.0**-40, extra=(-1.0, 0.0)),
    Row("quantile-sigma", NON_NEGATIVE, lambda x: quantile(SEMICIRCLE, x, 100), 0.5,
        extra=("1/3", Fraction(10**400))),
    Row("quantile-n", COUNT, lambda x: quantile(SEMICIRCLE, 0.0, x), 100),
    Row("sample_block_hermitian-n", COUNT,
        lambda x: sample_block_hermitian(ARROW, x, np.random.default_rng(1)), 4,
        label="block size n"),
    Row("run_sweep-sizes", COUNT, lambda x: _sweep(sizes=(x, 4)), 2, label="sizes[0]"),
    Row("run_sweep-trials", COUNT2, lambda x: _sweep(trials=x), 2),
    Row("run_sweep-workers", COUNT, lambda x: _sweep(workers=x), 1, extra=(1.5,)),
    Row("run_sweep-master_seed", COUNT0, lambda x: _sweep(master_seed=x), 7),
    Row("ZeroPattern-k", COUNT, lambda x: ZeroPattern(x, ((0,),)), 1,
        label="pattern dimension"),
]


@pytest.fixture
def nothing_solves(monkeypatch):
    """Every solve and every Monte Carlo trial fails the test."""

    def fail(*args, **kwargs):
        raise AssertionError("a solve or trial ran before the argument was checked")

    monkeypatch.setattr(dyson, "_stage", fail)
    monkeypatch.setattr(montecarlo, "_trial", fail)


@pytest.mark.parametrize("row", LIBRARY, ids=[row.id for row in LIBRARY])
def test_a_bad_value_is_rejected_up_front(row, nothing_solves):
    # unchecked, tol = nan, -1 or 0 would spend the whole 100k-iteration
    # budget, and a bool would run as 1
    for value in [*row.kind.bad_values(), *row.extra]:
        t0 = time.perf_counter()
        with pytest.raises(NonPositiveInputError) as exc:
            row.call(value)
        assert str(exc.value) == row.kind.message(row.name), value
        assert time.perf_counter() - t0 < 0.5


def test_the_kind_error_is_a_value_error_and_a_type_error():
    assert issubclass(NonPositiveInputError, ValueError)
    assert issubclass(NonPositiveInputError, TypeError)


def _same(a, b) -> bool:
    """Same type and value, field by field; arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and (a == b or (a != a and b != b))


@pytest.mark.parametrize("row", LIBRARY, ids=[row.id for row in LIBRARY])
def test_a_numpy_scalar_gives_the_python_output(row):
    assert _same(row.call(row.kind.twin(row.good)), row.call(row.good))


CLI = [
    ("scaling", "--eta-min", POSITIVE),
    ("scaling", "--eta-max", POSITIVE),
    ("scaling", "--per-decade", COUNT),
    ("scaling", "--tolerance", NON_NEGATIVE),
    ("density", "--tau-min", ANY),
    ("density", "--tau-max", ANY),
    ("density", "--points", COUNT),
    ("density", "--epsilon", POSITIVE),
    ("simulate", "--sizes", COUNT),
    ("simulate", "--trials", COUNT2),
    ("simulate", "--seed", COUNT0),
    ("simulate", "--threads", COUNT),
]
# report takes the flags of scaling and simulate, read by the same code
_SMALL_SWEEP = ["--sizes", "2,4", "--trials", "2", "--threads", "1"]


@pytest.fixture
def arrow_file(tmp_path):
    path = tmp_path / "arrow.csv"
    path.write_text("1,1\n1,0\n")
    return str(path)


def _exit_code(argv, capsys):
    """Exit code of the CLI on ``argv``, argparse's included; the stdout must
    be empty, and a code of the CLI's own comes with one ``error:`` line."""
    try:
        code, own = cli.main(argv), True
    except SystemExit as exc:
        code, own = exc.code, False
    captured = capsys.readouterr()
    assert captured.out == ""
    if own:
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return code


@pytest.mark.parametrize(
    "command, flag, kind", CLI, ids=[f"{command} {flag}" for command, flag, _ in CLI]
)
def test_a_bad_flag_exits_2(command, flag, kind, arrow_file, capsys, nothing_solves):
    base = [command, arrow_file, *(_SMALL_SWEEP if command == "simulate" else [])]
    for value in kind.bad_values():
        if isinstance(value, np.generic):
            continue  # a command line holds no numpy scalars
        text = "x" if isinstance(value, str) else str(value)  # every flag is text
        assert _exit_code([*base, f"{flag}={text}"], capsys) == 2, text


def test_a_density_span_beyond_the_float_range_exits_2(arrow_file, capsys):
    # finite bounds whose span overflows: np.linspace would warn (a
    # traceback under -W error) and the grid would hold NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["density", arrow_file, "--tau-min=-1e308", "--tau-max", "1e308"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tau_grid must be a non-empty 1-D array of finite values\n"
