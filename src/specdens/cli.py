"""Command-line interface.

Commands

* ``classify``  — combinatorial classification (support class, atom mass,
  normal form, exponents) as canonical JSON or text.
* ``scaling``   — solve the self-consistent equation on an ``eta`` grid and
  compare fitted per-block slopes against the exact exponents.
* ``density``   — density of states on an energy grid as two-column CSV.
* ``simulate``  — Monte Carlo smallest-singular-value sweep as CSV plus a
  fitted-slope comment line.
* ``report``    — one JSON document bundling classification, scaling fit,
  limiting weights and constraint residuals (optionally the Monte Carlo
  sweep); numeric sections that fail carry an ``error`` entry instead of
  aborting the document.  The profile is classified once for all sections.

Profiles are read from CSV (K lines of K comma-separated decimals) or JSON
``{"K": int, "entries": [[...]]}``.  Data goes to stdout, logs to stderr.

Exit codes: 0 success; 1 check failed (scaling deviation above tolerance,
or a profile without support where support is required, or with support
where its absence is required); 2 unreadable or invalid profile, or an
invalid argument value (such as a non-positive ``--epsilon`` or a NaN,
infinite or negative ``--tolerance``); 3 profile with an identically zero
row; 4 internal structure violation (including a cyclic block relation) or a
result failing its self-check; 5 numerical
failure (solver non-convergence, an iterate leaving the upper half-plane,
a failed eigendecomposition); 6 any other error of the package.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .dyson import (
    density_profile,
    empirical_exponents,
    limit_weights,
    rescaled_residuals,
)
from .errors import (
    CyclicRelationError,
    EigFailureError,
    HasSupportError,
    ImaginarySignLostError,
    NegativeEntryError,
    NonConvergenceError,
    NoSupportError,
    NotSymmetricError,
    SelfCheckError,
    SpecdensError,
    StructureViolationError,
    ZeroRowError,
    _count,
    _real,
)
from .minmax import analyze
from .montecarlo import EnsembleConfig, run_sweep
from .report import (
    canonical_json,
    classification_document,
    density_csv,
    parse_profile_text,
    residuals_section,
    scaling_section,
    scaling_table_csv,
    sweep_csv,
    sweep_section,
    weights_section,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_ZERO_ROW = 3
EXIT_STRUCTURE = 4
EXIT_NUMERICAL = 5
EXIT_OTHER = 6

_DEFAULT_SIZES = "32,64,128,256,512"


def _load_profile(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read profile {path!r}: {exc}") from None
    profile = parse_profile_text(text)
    zero = np.flatnonzero(~(profile.entries != 0).any(axis=1))
    if zero.size:
        raise ZeroRowError(f"profile row {int(zero[0])} is identically zero")
    return profile


def _parse_sizes(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; :func:`run_sweep` checks them."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"invalid size list {text!r}") from None


def _classify_text(doc: dict) -> str:
    lines = [f"support class: {doc['support_class']}"]
    if doc["kappa"] is not None:
        lines.append(f"atom mass at zero: {doc['kappa']}")
        lines.append(f"decomposition sizes: {doc['block_dims']}")
        lines.append(f"permutation: {doc['permutation']}")
        return "\n".join(lines) + "\n"
    lines.append(f"blocks: {len(doc['block_dims'])} "
                 f"(L={doc['L']} middle, M={doc['M']} pairs), "
                 f"dims {doc['block_dims']}")
    lines.append(f"permutation: {doc['permutation']}")
    chain = doc["longest_chain"]
    lines.append(
        f"longest chain: length {chain['length']} via {chain['witness']}"
    )
    lines.append(f"exponents f: {doc['f']}")
    lines.append(f"sigma: {doc['sigma']}   Q: {doc['Q']}")
    return "\n".join(lines) + "\n"


def _cmd_classify(args) -> int:
    profile = _load_profile(args.profile)
    doc = classification_document(profile)
    if args.out == "json":
        print(canonical_json(doc))
    else:
        sys.stdout.write(_classify_text(doc))
    return EXIT_OK


def _fit(s, args):
    return empirical_exponents(
        s,
        eta_min=args.eta_min,
        eta_max=args.eta_max,
        points_per_decade=args.per_decade,
    )


def _sweep(s, args):
    return run_sweep(
        EnsembleConfig(
            s,
            sizes=_parse_sizes(args.sizes),
            trials=args.trials,
            master_seed=args.seed,
            workers=args.threads,
        )
    )


def _cmd_scaling(args) -> int:
    # a NaN or infinite tolerance would pass every fit, a negative one none
    _real(args.tolerance, "tolerance", 0.0)
    fit = _fit(_load_profile(args.profile), args)
    sys.stdout.write(scaling_table_csv(fit))
    if fit.max_deviation > args.tolerance:
        print(
            f"scaling check failed: max deviation {fit.max_deviation:.4g} "
            f"> tolerance {args.tolerance:g}",
            file=sys.stderr,
        )
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_density(args) -> int:
    profile = _load_profile(args.profile)
    bounds = _real(args.tau_min, "tau_min"), _real(args.tau_max, "tau_max")
    # a span beyond the float range gives non-finite points: a ValueError
    with np.errstate(all="ignore"):
        taus = np.linspace(*bounds, _count(args.points, "points"))
    curve = density_profile(profile, taus, epsilon=args.epsilon)
    sys.stdout.write(density_csv(curve))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    rep = _sweep(_load_profile(args.profile), args)
    sys.stdout.write(sweep_csv(rep))
    predicted = (
        "none" if rep.predicted_slope is None else f"{rep.predicted_slope:.6g}"
    )
    print(f"# slope {rep.slope:.6g} predicted {predicted}")
    return EXIT_OK


def _cmd_report(args) -> int:
    an = analyze(_load_profile(args.profile))
    doc = classification_document(an)
    if an.nf is not None:  # the profile has support
        try:
            doc["scaling_fit"] = scaling_section(_fit(an, args))
        except Exception as exc:  # report sections degrade, never abort
            doc["scaling_fit"] = {"error": str(exc)}
        try:
            data = limit_weights(an)
            doc["limit_weights"] = weights_section(data)
            doc["residuals"] = residuals_section(rescaled_residuals(data))
        except Exception as exc:
            doc["limit_weights"] = {"error": str(exc)}
            doc["residuals"] = {"error": str(exc)}
    if args.with_mc:
        try:
            doc["sweep"] = sweep_section(_sweep(an, args))
        except Exception as exc:
            doc["sweep"] = {"error": str(exc)}
    print(canonical_json(doc))
    return EXIT_OK


def _add_mc_flags(parser) -> None:
    parser.add_argument("--sizes", default=_DEFAULT_SIZES,
                        help="comma-separated per-block sizes n "
                             f"(default {_DEFAULT_SIZES})")
    parser.add_argument("--trials", type=int, default=200,
                        help="trials per size (default 200)")
    parser.add_argument("--seed", type=int, default=20240,
                        help="master seed (default 20240)")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: usable cores)")


def _add_eta_flags(parser) -> None:
    parser.add_argument("--eta-min", type=float, default=1e-10,
                        help="smallest eta (default 1e-10)")
    parser.add_argument("--eta-max", type=float, default=1e-2,
                        help="largest eta (default 1e-2)")
    parser.add_argument("--per-decade", type=int, default=4,
                        help="grid points per decade (default 4)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdens",
        description="Singularity classification and numerical checks for "
                    "self-consistent densities of states of variance profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="combinatorial classification")
    p.add_argument("profile", help="profile file (CSV or JSON)")
    p.add_argument("--out", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scaling", help="fitted vs predicted block exponents")
    p.add_argument("profile")
    _add_eta_flags(p)
    p.add_argument("--tolerance", type=float, default=0.05,
                   help="max allowed |fitted - predicted| (default 0.05)")
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("density", help="density of states as CSV")
    p.add_argument("profile")
    p.add_argument("--tau-min", type=float, default=-2.5)
    p.add_argument("--tau-max", type=float, default=2.5)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("simulate", help="Monte Carlo smallest-singular-value sweep")
    p.add_argument("profile")
    _add_mc_flags(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("report", help="bundled JSON report")
    p.add_argument("profile")
    p.add_argument("--with-mc", action="store_true",
                   help="include the Monte Carlo sweep section")
    _add_eta_flags(p)
    _add_mc_flags(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, NotSymmetricError, NegativeEntryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ZeroRowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_ROW
    except NoSupportError as exc:
        print(f"error: profile has no support: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except HasSupportError as exc:
        print(f"error: profile has support: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (StructureViolationError, CyclicRelationError, SelfCheckError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_STRUCTURE
    except (NonConvergenceError, ImaginarySignLostError, EigFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SpecdensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
