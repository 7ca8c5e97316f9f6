"""Serialization of analysis results: canonical JSON documents and CSV.

The JSON form is canonical so that documents can be compared byte for
byte: object keys are sorted, floats are rendered with ``%.12g`` (a
12-significant-digit decimal parses back to the identical double, so
re-serializing a parsed document reproduces the input exactly), rational
numbers are reduced ``"p/q"`` strings, and every document carries
``"schema": 1``.  Non-finite floats (possible in condition-number
averages) are rendered as the strings ``"inf"``/``"-inf"``/``"nan"``
since JSON has no literal for them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .dyson import (
    DensityCurve,
    RescaledData,
    RescaledResiduals,
    ScalingFit,
)
from .minmax import analyze
from .montecarlo import SweepReport
from .normal_form import VarianceProfile

__all__ = [
    "canonical_json",
    "fraction_str",
    "parse_profile_text",
    "classification_document",
    "scaling_table_csv",
    "density_csv",
    "sweep_csv",
]

SCHEMA_VERSION = 1

# classification keys besides "schema" and "support_class"; unfilled stay null
_DOCUMENT_KEYS = (
    "kappa", "L", "M", "block_dims", "permutation", "mask", "relation_edges",
    "longest_chain", "sigma", "Q", "f",
)


# --- canonical JSON ---------------------------------------------------------------


def fraction_str(f: Fraction) -> str:
    """Reduced ``"p/q"`` form; the denominator is always present so exact
    values are never confused with floats (``Fraction(0)`` -> ``"0/1"``)."""
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        x = 0.0  # normalize -0.0, whose repr would not survive a round trip
    return "%.12g" % x


def _encode(obj) -> str:
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {key!r}")
            items.append(f"{json.dumps(key)}: {_encode(obj[key])}")
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(x) for x in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, Fraction):
        return json.dumps(fraction_str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(doc) -> str:
    """Canonical JSON text of ``doc`` (no trailing newline).  Serializing
    ``json.loads(canonical_json(doc))`` returns the identical string."""
    return _encode(doc)


# --- profile files ----------------------------------------------------------------


def parse_profile_text(text: str) -> VarianceProfile:
    """Parse a profile from JSON ``{"K": ..., "entries": [[...]]}`` or from
    CSV (K lines of K comma-separated decimals).  Symmetry and
    non-negativity are enforced at parse time; exact zeros are preserved.
    Raises ValueError (or the profile validation errors) on bad input."""
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty profile file")
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"invalid JSON profile: {exc}") from None
        if not isinstance(doc, dict) or "entries" not in doc:
            raise ValueError('JSON profile must be {"K": int, "entries": [[...]]}')
        try:
            profile = VarianceProfile(doc["entries"])
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"invalid JSON profile: {exc}") from None
        k = doc.get("K", profile.k)
        if type(k) is not int:
            raise ValueError(f'invalid JSON profile: "K" must be an integer, not {type(k).__name__}')
        if k != profile.k:
            raise ValueError(
                f'profile says "K": {doc["K"]} but entries are {profile.k} x {profile.k}'
            )
        return profile
    rows = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(cell) for cell in line.split(",")])
        except ValueError:
            raise ValueError(f"invalid CSV profile line: {line!r}") from None
    return VarianceProfile(rows)


# --- document sections ------------------------------------------------------------


def classification_document(s) -> dict:
    """Combinatorial classification of a profile (or of its
    :func:`analyze` result) as a schema-1 document.

    With support: normal form (permutation, block dimensions, mask), the
    block relation, the longest chain, the exponents ``f``, ``sigma`` and
    ``Q``; ``kappa`` is null.  Without support: ``kappa`` and the
    three-block decomposition witnessing it; the normal-form keys are
    null."""
    an = analyze(s)
    doc = dict.fromkeys(_DOCUMENT_KEYS)
    doc.update(schema=SCHEMA_VERSION, support_class=an.support_class)
    if an.nf is None:
        form = an.no_support
        doc.update(
            kappa=fraction_str(form.kappa),
            block_dims=[int(x) for x in form.sizes],
            permutation=[int(x) for x in form.perm],
        )
        return doc
    nf, ex = an.nf, an.exponents
    doc.update(
        L=nf.L,
        M=nf.M,
        block_dims=[int(d) for d in nf.dims],
        permutation=[int(x) for x in nf.perm],
        mask=[[int(bool(x)) for x in row] for row in nf.mask],
        relation_edges=[[int(i), int(j)] for i, j in sorted(an.relation.edges)],
        longest_chain={
            "length": an.chain.length,
            "witness": [int(x) for x in an.chain.witness],
        },
        sigma=fraction_str(ex.sigma),
        Q=ex.Q,
        f=[fraction_str(x) for x in ex.f],
    )
    return doc


def scaling_section(fit: ScalingFit) -> dict:
    return {
        "eta_min": float(fit.eta.min()),
        "eta_max": float(fit.eta.max()),
        "points": int(fit.eta.size),
        "predicted_slopes": list(fit.predicted_slopes),
        "fitted_slopes": list(fit.fitted_slopes),
        "max_deviation": fit.max_deviation,
    }


def weights_section(data: RescaledData) -> dict:
    return {
        "h": [fraction_str(x) for x in data.h],
        "Q": data.exponents.Q,
        "w": None if data.w is None else [float(x) for x in data.w],
        "w_residual": data.w_residual,
        "eta_pair": None if data.eta_pair is None else list(data.eta_pair),
    }


def residuals_section(rr: RescaledResiduals) -> dict:
    return {
        "f0_residual": rr.f0_residual,
        "fl_values": list(rr.fl_values),
        "fl_residual": rr.fl_residual,
    }


def sweep_section(rep: SweepReport) -> dict:
    return {
        "sizes": list(rep.sizes),
        "dims": list(rep.dims),
        "trials": rep.trials,
        "master_seed": rep.master_seed,
        "mean_smin": list(rep.mean_smin),
        "stderr_smin": list(rep.stderr_smin),
        "mean_cond": list(rep.mean_cond),
        "slope": rep.slope,
        "predicted_slope": rep.predicted_slope,
    }


# --- CSV --------------------------------------------------------------------------


_FLOAT_CELL = "%.12g"  # also spells nan, inf and -inf


def _csv_cell(x) -> str:
    if isinstance(x, (float, np.floating)):
        return _FLOAT_CELL % x
    return str(x)


def scaling_table_csv(fit: ScalingFit) -> str:
    """Per-block comparison table: block, f_pred (exact), slope_fit of the
    measured average (against ``-f``), abs_err."""
    lines = ["block,f_pred,slope_fit,abs_err"]
    for b, f in enumerate(fit.exponents.f):
        fitted = fit.fitted_slopes[b]
        err = abs(fitted - fit.predicted_slopes[b])
        lines.append(
            f"{b},{fraction_str(f)},{_csv_cell(fitted)},{_csv_cell(err)}"
        )
    return "\n".join(lines) + "\n"


def density_csv(curve: DensityCurve) -> str:
    row = f"{_FLOAT_CELL},{_FLOAT_CELL}"  # the cells of two floats
    cells = zip(np.asarray(curve.tau).tolist(), np.asarray(curve.rho).tolist())
    return "\n".join(["tau,rho", *(row % pair for pair in cells)]) + "\n"


def sweep_csv(rep: SweepReport) -> str:
    lines = ["size_n,dim_N,mean_smin,stderr_smin,mean_cond"]
    for row in zip(rep.sizes, rep.dims, rep.mean_smin, rep.stderr_smin, rep.mean_cond):
        n, dim, *floats = row
        lines.append(",".join([str(n), str(dim)] + [_csv_cell(x) for x in floats]))
    return "\n".join(lines) + "\n"
