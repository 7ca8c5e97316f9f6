"""The package's public names: each library module's ``__all__``, once."""

import contextlib
import io
import re
import types
from pathlib import Path

import specdens
from specdens import dyson, errors, minmax, montecarlo, normal_form, patterns, report

MODULES = (dyson, errors, minmax, montecarlo, normal_form, patterns, report)
README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

# names that were public once and are not any more: the test-only
# references live in tests/oracles.py, fid_skeleton returns the skeleton
# ZeroPattern itself, some were aliases, and the rest only the tests called
REMOVED = (
    "brute_force_oracle",
    "fixed_point_oracle",
    "stability_check",
    "OracleResult",
    "StabilityReport",
    "TooLargeError",
    "PreconditionViolatedError",
    "Rational",
    "SkeletonResult",
    "quantile",
    "QuantileFit",
    "GridTooCoarseError",
    "condition_number",
    "SingularMatrixError",
    "variational_value",
    "verify_normal_form",
    "is_fully_indecomposable",
)


def _readme_section(heading: str) -> str:
    """The README text under ``heading`` up to the next heading."""
    start = README.index(f"{heading}\n")
    end = README.find("\n#", start + len(heading))
    return README[start:] if end == -1 else README[start:end]


def test_public_names_are_the_union_of_the_module_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed))
    for module in MODULES:
        assert all(hasattr(module, name) for name in module.__all__)
    public = {
        name
        for name, value in vars(specdens).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(specdens.__all__) == set(listed)


def test_removed_names_are_absent():
    for name in REMOVED:
        assert not hasattr(specdens, name)
        assert not any(hasattr(module, name) for module in MODULES)
    assert not hasattr(specdens.ZeroPattern, "from_rows")
    # a pattern is its row lists: no grid, no cached second copy
    pattern = specdens.ZeroPattern.from_matrix([[1.0, 0.0], [1.0, 1.0]])
    for name in ("present", "permuted", "row_indices", "_adjacency"):
        assert not hasattr(pattern, name)
    assert isinstance(specdens.fid_skeleton(pattern), specdens.ZeroPattern)
    assert not hasattr(specdens.VarianceProfile, "from_rows")
    # a normal form or a no-support splitting holds no copy of the profile
    nf = specdens.symmetric_normal_form([[1.0, 1.0], [1.0, 0.0]])
    form = specdens.no_support_normal_form([[0, 0, 1], [0, 0, 1], [1, 1, 1]])
    for result in (nf, form):
        assert not hasattr(result, "permuted_profile")
    for name in ("scaling_section", "weights_section", "residuals_section",
                 "sweep_section"):
        assert not hasattr(specdens, name) and name not in report.__all__


def test_the_readme_names_every_removed_name():
    # each name inside a code span of the section, e.g. `minmax.OracleResult`
    spans = re.findall(r"`([^`]*)`", _readme_section("### Removed names"))
    named = {word for span in spans for word in re.findall(r"\w+", span)}
    assert set(REMOVED) <= named, set(REMOVED) - named


def test_the_readme_quick_start_runs():
    section = _readme_section("## Library quick start")
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["SupportOnly", "(Fraction(-1, 3), Fraction(1, 3)) 1/3"]
