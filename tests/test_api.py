"""The package's public names: each library module's ``__all__``, once."""

import types

import specdens
from specdens import dyson, errors, minmax, montecarlo, normal_form, patterns, report

MODULES = (dyson, errors, minmax, montecarlo, normal_form, patterns, report)

# names that were public once and are not any more: the test-only
# references live in tests/oracles.py, fid_skeleton returns the skeleton
# ZeroPattern itself, the rest were aliases
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
)


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
    for name in ("scaling_section", "weights_section", "residuals_section",
                 "sweep_section"):
        assert not hasattr(specdens, name) and name not in report.__all__
