"""Seeded workloads of the specdens benchmark.

Each workload builds its profiles from the benchmark seed alone; the
library only ever sees the generated profiles.  A workload offers:

* ``texts()``        — the profiles as CSV, for the set-up measurement;
* ``bind(profiles)`` — the parsed profiles the passes run on;
* ``run_pass(tr)``   — one pass of the user-facing operations, each one an
  :class:`Op` with its latency and output; ``tr`` records a span around
  every call into a library module (``spans.OFF`` records nothing);
* ``check(op)``      — correctness of one op's output, run outside the
  timed region: ``None`` or ``(layer, message)``;
* ``replay(tr, workdir)`` — traced only: direct calls into the public
  functions of the layers beneath the operations, for the per-layer
  metrics (``workdir`` holds the profile files of the CLI calls).

Span names are ``<module>.<call>``, the module being the specdens module
whose public function the span times.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from specdens import cli
from specdens.dyson import (
    atom_mass_estimate,
    density_profile,
    empirical_exponents,
    limit_weights,
    rescaled_residuals,
    solve_imaginary_axis,
    solve_upper_half_plane,
)
from specdens.minmax import index_exponents, relation_problem, verify_solution
from specdens.montecarlo import (
    EnsembleConfig,
    run_sweep,
    sample_block_hermitian,
    smallest_singular_value,
)
from specdens.normal_form import (
    BlockRelation,
    build_relation,
    longest_chain,
    no_support_normal_form,
    pattern_of,
    symmetric_normal_form,
)
from specdens.patterns import (
    has_total_support,
    max_bipartite_matching,
    maximal_zero_submatrix,
)
from specdens.report import (
    canonical_json,
    classification_document,
    density_csv,
    parse_profile_text,
    residuals_section,
    scaling_section,
    sweep_csv,
    weights_section,
)

LAYERS = ("patterns", "normal_form", "minmax", "dyson", "montecarlo", "report", "cli")

# The 10x10 reference profile of the acceptance suite: chain length 4,
# sigma = 2/3, one middle block and three pairs.
REFERENCE = np.array(
    [[int(c) for c in row] for row in (
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
    )],
    dtype=float,
)
ARROW = np.array([[1.0, 1.0], [1.0, 0.0]])
CHAIN3 = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
ONES3 = np.ones((3, 3))
NOSUPPORT3 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])


@dataclass
class Op:
    """One user-facing operation: its latency, output and any exception."""

    kind: str
    case: int
    seconds: float
    output: object = None
    error: BaseException | None = None


@dataclass
class Replay:
    """Per-layer numbers measured by direct calls in a traced run."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list = field(default_factory=list)  # (layer, message)


def csv_text(a: np.ndarray) -> str:
    return "".join(",".join(format(float(x), ".17g") for x in row) + "\n" for row in a)


def error_layer(exc: BaseException, default: str) -> str:
    """The specdens module in which ``exc`` was raised, else ``default``."""
    layer = default
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.parent.name == "specdens" and path.stem in LAYERS:
            layer = path.stem
    return layer


def _sym_perm(a: np.ndarray, perm) -> np.ndarray:
    return a[np.ix_(perm, perm)]


def tridiagonal(k: int) -> np.ndarray:
    a = np.eye(k)
    i = np.arange(k - 1)
    a[i, i + 1] = a[i + 1, i] = 1.0
    return a


def zero_diagonal_path(k: int) -> np.ndarray:
    return tridiagonal(k) - np.eye(k)


def zero_corner(k: int, z: int) -> np.ndarray:
    """All ones except a z x z zero corner: no support when 2z > k, with
    atom mass (2z - k) / k."""
    a = np.ones((k, k))
    a[:z, :z] = 0.0
    return a


RANDOM_KS = tuple(range(4, 13))
RANDOM_DENSITIES = (0.25, 0.35, 0.5, 0.7)


def random_pattern(rng: np.random.Generator, i: int) -> np.ndarray:
    """The ``i``-th random symmetric 0/1 profile of a batch, without a zero
    row.  Its size K and entry density cycle through every pair of
    ``RANDOM_KS`` and ``RANDOM_DENSITIES``, so every seed's batch has the
    same mix of sizes and densities; only the entries are random."""
    k = RANDOM_KS[i % len(RANDOM_KS)]
    density = RANDOM_DENSITIES[(i // len(RANDOM_KS)) % len(RANDOM_DENSITIES)]
    while True:
        upper = np.triu(rng.random((k, k)) < density)
        a = (upper | upper.T).astype(float)
        if a.any(axis=1).all():
            return a


def _run_op(ops: list, kind: str, case: int, fn) -> None:
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # an op failure is counted, not fatal
        ops.append(Op(kind, case, time.perf_counter() - t0, error=exc))
        return
    ops.append(Op(kind, case, time.perf_counter() - t0, out))


def _cli_call(tr, argv: list, workdir: Path, text: str, rep: Replay, accept) -> None:
    """Run ``specdens <argv>`` in-process on a profile file holding
    ``text`` (``{}`` in argv stands for its path); ``accept(code, out)``
    judges the captured stdout."""
    path = workdir / "cli-profile.csv"
    path.write_text(text, encoding="utf-8")
    argv = [str(path) if a == "{}" else a for a in argv]
    out = io.StringIO()
    rep.attempted += 1
    try:
        with tr.span("cli.main"), contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:
        rep.failures.append((error_layer(exc, "cli"), f"cli {argv[0]}: {exc!r}"))
        return
    finally:
        path.unlink()
    if not accept(code, out.getvalue()):
        rep.failures.append(("cli", f"cli {argv[0]}: exit {code}, unexpected output"))


def replay_classification_parts(tr, profiles, rep: Replay) -> float:
    """Time each public stage behind ``classification_document`` once per
    profile, and return the seconds of one pass of its parts: the fewest
    stage calls that determine every field of the document.

    Those are ``max_bipartite_matching`` (support), then for a supported
    profile ``symmetric_normal_form``, ``build_relation`` with
    ``longest_chain``, and ``index_exponents`` (the class is TotalSupport
    exactly when the relation has no edge); without support,
    ``no_support_normal_form`` (it carries kappa).  ``has_total_support``
    and ``maximal_zero_submatrix`` are timed too but are not parts: they
    recompute what the parts already determine."""
    parts = 0.0
    for profile in profiles:
        rep.attempted += 1
        layer = "patterns"
        try:
            p = pattern_of(profile)
            t0 = time.perf_counter()
            with tr.span("patterns.matching"):
                matching = max_bipartite_matching(p)
            parts += time.perf_counter() - t0
            if matching.perfect:
                with tr.span("patterns.total_support"):
                    has_total_support(p)
                layer = "normal_form"
                t0 = time.perf_counter()
                with tr.span("normal_form.snf"):
                    nf = symmetric_normal_form(profile)
                with tr.span("normal_form.relation"):
                    rel = build_relation(nf)
                    longest_chain(rel)
                layer = "minmax"
                with tr.span("minmax.exponents"):
                    index_exponents(rel)
                parts += time.perf_counter() - t0
            else:
                with tr.span("patterns.max_zero"):
                    maximal_zero_submatrix(p)
                layer = "normal_form"
                t0 = time.perf_counter()
                with tr.span("normal_form.no_support"):
                    no_support_normal_form(profile)
                parts += time.perf_counter() - t0
        except Exception as exc:
            rep.failures.append((error_layer(exc, layer), f"replay: {exc!r}"))
    return parts


def certified_exponents(doc: dict) -> bool:
    """Rebuild the min-max boundary problem from the document's relation
    and check its exponents exactly with ``verify_solution``."""
    n = len(doc["block_dims"])
    m, l_mid = doc["M"], doc["L"]
    partner = tuple(i if m <= i < m + l_mid else n - 1 - i for i in range(n))
    edges = frozenset((int(i), int(j)) for i, j in doc["relation_edges"])
    sources = {i for i, _ in edges}
    targets = {j for _, j in edges}
    extended = frozenset(
        [(-1, i) for i in range(n) if i not in targets]
        + [(i, n) for i in range(n) if i not in sources]
    )
    problem = relation_problem(BlockRelation(n, partner, edges, extended))
    values = {-1: Fraction(-1), n: Fraction(1)}
    values.update({i: Fraction(f) for i, f in enumerate(doc["f"])})
    if not verify_solution(problem, values):
        return False
    return Fraction(doc["sigma"]) == max(values[i] for i in range(n))


class Workload:
    """Plumbing shared by the workloads; ``arrays`` are the generated
    profiles and ``profiles`` their parsed form."""

    name: str
    arrays: list
    profiles: list

    def texts(self) -> list[str]:
        return [csv_text(a) for a in self.arrays]

    def bind(self, profiles) -> None:
        self.profiles = profiles


# --- classify_mix -------------------------------------------------------------------


class ClassifyMix(Workload):
    """``specdens classify``: ``classification_document`` then
    ``canonical_json`` for every profile of a seeded batch."""

    name = "classify_mix"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 1])
        n_random, n_reference = (20, 3) if tiny else (300, 40)
        k_tri, k_path, blow = (30, 20, 2) if tiny else (300, 120, 6)
        cases = [("random", random_pattern(rng, i)) for i in range(n_random)]
        cases += [
            ("reference", _sym_perm(REFERENCE, rng.permutation(10)))
            for _ in range(n_reference)
        ]
        cases += [
            ("tridiagonal", tridiagonal(k_tri)),
            ("path", zero_diagonal_path(k_path)),
            ("no_support", zero_corner(16, 9)),
            ("blowup", np.kron(REFERENCE, np.ones((blow, blow)))),
        ]
        self.labels = [label for label, _ in cases]
        self.arrays = [a for _, a in cases]

    def run_pass(self, tr) -> list[Op]:
        ops: list[Op] = []

        def classify(profile):
            with tr.span("op.classify"):
                with tr.span("report.document"):
                    doc = classification_document(profile)
                with tr.span("report.json"):
                    return canonical_json(doc)

        for case, profile in enumerate(self.profiles):
            _run_op(ops, "classify", case, lambda: classify(profile))
        return ops

    def check(self, op: Op):
        text = op.output
        doc = json.loads(text)
        if canonical_json(doc) != text:
            return "report", "canonical JSON does not round-trip"
        label = self.labels[op.case]
        k = self.arrays[op.case].shape[0]
        cls = doc["support_class"]
        if label == "no_support":
            if cls != "NoSupport" or doc["kappa"] != "1/8":
                return "patterns", f"K=16 zero corner: {cls}, kappa {doc['kappa']}"
        if cls == "NoSupport":
            kappa = Fraction(doc["kappa"])
            if not 0 < kappa < 1 or sorted(doc["permutation"]) != list(range(k)):
                return "normal_form", f"bad no-support form, kappa {kappa}"
            return None
        if sum(doc["block_dims"]) != k or sorted(doc["permutation"]) != list(range(k)):
            return "normal_form", "normal form does not tile the profile"
        if not certified_exponents(doc):
            return "minmax", "exponents fail verify_solution"
        chain = doc["longest_chain"]["length"]
        if label in ("reference", "blowup"):
            if chain != 4 or doc["sigma"] != "2/3":
                return "normal_form", f"{label}: chain {chain}, sigma {doc['sigma']}"
            if label == "reference" and (
                (doc["L"], doc["M"]) != (1, 3)
                or sorted(doc["block_dims"]) != [1, 1, 1, 1, 2, 2, 2]
            ):
                return "normal_form", "reference: wrong block structure"
        if label == "tridiagonal" and (cls != "TotalSupport" or doc["sigma"] != "0/1"):
            return "patterns", f"tridiagonal: {cls}, sigma {doc['sigma']}"
        if label == "path":
            half = k // 2
            want = str(Fraction(half - 1, half + 1))
            if cls != "SupportOnly" or chain != half - 1 or Fraction(doc["sigma"]) != Fraction(want):
                return "normal_form", f"path: {cls}, chain {chain}, sigma {doc['sigma']}"
        return None

    @staticmethod
    def digest(ops: list[Op]) -> str:
        """SHA-256 of one pass's canonical JSON documents, one per line."""
        h = hashlib.sha256()
        for op in ops:
            h.update((op.output or "").encode() + b"\n")
        return h.hexdigest()

    def class_counts(self, ops: list[Op]) -> dict:
        counts: dict[str, int] = {}
        for op in ops:
            if op.output is not None and self.labels[op.case] == "random":
                cls = json.loads(op.output)["support_class"]
                counts[cls] = counts.get(cls, 0) + 1
        return counts

    def replay(self, tr, workdir: Path) -> Replay:
        rep = Replay()
        parts = replay_classification_parts(tr, self.profiles, rep)
        rep.metrics["classification_parts_s"] = parts
        for case in (self.labels.index("reference"), self.labels.index("no_support")):
            expected = canonical_json(classification_document(self.profiles[case])) + "\n"
            _cli_call(
                tr, ["classify", "{}"], workdir, csv_text(self.arrays[case]), rep,
                lambda code, out, expected=expected: code == 0 and out == expected,
            )
        return rep


# --- qve_numerics -------------------------------------------------------------------


class QveNumerics(Workload):
    """``specdens report`` without Monte Carlo, ``specdens density`` and the
    atom-mass estimate, on permuted and rescaled profiles.

    Profile ``c S`` is solved where ``S`` would be, through the exact
    covariance ``v(eta; cS) = c^(-1/2) v(c^(-1/2) eta; S)``: every eta, tau
    and epsilon is multiplied by ``r = c^(1/2)``, so the checks against the
    unscaled tolerances still apply."""

    name = "qve_numerics"
    AXIS_ETAS = (1e-2, 1e-6, 1e-10)
    PLANE_ZS = (0.5 + 1e-3j, 1e-3j, 1.0 + 1e-6j)

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 2])
        base = [("arrow", ARROW), ("chain3", CHAIN3), ("ones3", ONES3),
                ("reference", REFERENCE)]
        base += [(f"blowup{10 * b}", np.kron(REFERENCE, np.ones((b, b)))) for b in (10, 20)]
        base.append(("no_support3", NOSUPPORT3))
        self.labels, self.arrays, self.roots, self.points = [], [], [], []
        for label, a in base:
            c = 10.0 ** rng.uniform(-3.0, 3.0)
            self.labels.append(label)
            self.arrays.append(c * _sym_perm(a, rng.permutation(a.shape[0])))
            self.roots.append(math.sqrt(c))
            points = 1001 if a.shape[0] <= 10 else 201
            self.points.append(points // 10 + 1 if tiny else points)

    def run_pass(self, tr) -> list[Op]:
        ops: list[Op] = []

        def report(profile, r):
            with tr.span("op.report"):
                with tr.span("report.document"):
                    doc = classification_document(profile)
                with tr.span("dyson.exponent_fit"):
                    fit = empirical_exponents(
                        profile, eta_min=1e-10 * r, eta_max=1e-2 * r, points_per_decade=4
                    )
                with tr.span("dyson.limit_weights"):
                    data = limit_weights(profile, eta_pair=(2e-12 * r, 1e-12 * r))
                with tr.span("dyson.residuals"):
                    res = rescaled_residuals(data)
                with tr.span("report.json"):
                    doc["scaling_fit"] = scaling_section(fit)
                    doc["limit_weights"] = weights_section(data)
                    doc["residuals"] = residuals_section(res)
                    canonical_json(doc)
            # Pair l's constraint value scales like r^(-h_l) under the
            # covariance; map it back to the unscaled profile.
            fl = max(
                (abs(x) * r ** float(h) for x, h in zip(res.fl_values, data.h)),
                default=0.0,
            )
            return fit.max_deviation, data.w_residual, res.f0_residual, fl

        def density(profile, r, points):
            with tr.span("op.density"):
                with tr.span("dyson.density"):
                    curve = density_profile(
                        profile, np.linspace(-2.5, 2.5, points) * r, epsilon=1e-6 * r
                    )
                with tr.span("report.csv"):
                    density_csv(curve)
            return curve.rho

        def atom(profile, r):
            with tr.span("op.atom"), tr.span("dyson.atom_mass"):
                am = atom_mass_estimate(profile, eta_grid=(1e-4 * r, 1e-6 * r, 1e-8 * r))
            return am.kappa_exact, am.kappa_numeric

        for i, profile in enumerate(self.profiles):
            r = self.roots[i]
            if self.labels[i] == "no_support3":
                _run_op(ops, "atom", i, lambda: atom(profile, r))
                continue
            _run_op(ops, "report", i, lambda: report(profile, r))
            _run_op(ops, "density", i, lambda: density(profile, r, self.points[i]))
        return ops

    def check(self, op: Op):
        label = self.labels[op.case]
        if op.kind == "report":
            dev, w_res, f0, fl = op.output
            if not dev <= 0.05:
                return "dyson", f"{label}: exponent fit deviation {dev:.3g} > 0.05"
            if not max(w_res, f0, fl) <= 1e-3:
                return "dyson", f"{label}: limit residuals {w_res:.3g} {f0:.3g} {fl:.3g}"
        elif op.kind == "density":
            rho = op.output
            if not (np.isfinite(rho).all() and (rho > 0).all()):
                return "dyson", f"{label}: density not finite and positive"
        else:
            exact, numeric = op.output
            if exact != Fraction(1, 3) or not abs(numeric - 1.0 / 3.0) <= 1e-4:
                return "dyson", f"{label}: atom mass {exact} vs {numeric:.8g}"
        return None

    def replay(self, tr, workdir: Path) -> Replay:
        rep = Replay()
        supported = [i for i, label in enumerate(self.labels) if label != "no_support3"]
        rep.metrics["classification_parts_s"] = replay_classification_parts(
            tr, [self.profiles[i] for i in supported], rep
        )
        axis_iters = plane_iters = 0
        for i in supported:
            profile, r = self.profiles[i], self.roots[i]
            for eta in self.AXIS_ETAS:
                rep.attempted += 1
                try:
                    with tr.span("dyson.axis_cold"):
                        axis_iters += solve_imaginary_axis(profile, eta * r).iterations
                except Exception as exc:
                    rep.failures.append((error_layer(exc, "dyson"), f"axis: {exc!r}"))
            for z in self.PLANE_ZS:
                rep.attempted += 1
                try:
                    with tr.span("dyson.plane_cold"):
                        plane_iters += solve_upper_half_plane(profile, z * r).iterations
                except Exception as exc:
                    rep.failures.append((error_layer(exc, "dyson"), f"plane: {exc!r}"))
        rep.metrics["dyson.axis_cold_iterations"] = axis_iters
        rep.metrics["dyson.plane_cold_iterations"] = plane_iters
        _cli_call(
            tr, ["density", "{}", "--points", "101"], workdir, csv_text(ARROW), rep,
            lambda code, out: code == 0 and len(out.splitlines()) == 102,
        )
        _cli_call(
            tr, ["scaling", "{}"], workdir, csv_text(ARROW), rep,
            lambda code, out: code == 0 and out.startswith("block,f_pred"),
        )
        return rep


# --- mc_sweep -----------------------------------------------------------------------


class McSweep(Workload):
    """``specdens simulate``: ``run_sweep`` with the library's default
    worker pool and the environment's BLAS threading, then ``sweep_csv``."""

    name = "mc_sweep"
    SIZES = (32, 64, 128, 256)
    TRIALS = 4

    def __init__(self, seed: int, tiny: bool = False):
        self.master_seed = int(seed)
        self.trials = 2 if tiny else self.TRIALS
        self.labels = ["arrow", "chain3"]
        self.arrays = [ARROW, CHAIN3]
        self.expected_slopes = [-1.5, -2.0]

    @classmethod
    def dims(cls) -> list[int]:
        return sorted(n * a.shape[0] for a in (ARROW, CHAIN3) for n in cls.SIZES)

    def run_pass(self, tr) -> list[Op]:
        ops: list[Op] = []

        def simulate(profile):
            config = EnsembleConfig(profile, self.SIZES, self.trials, master_seed=self.master_seed)
            with tr.span("op.simulate"):
                with tr.span("montecarlo.sweep"):
                    rep = run_sweep(config)
                with tr.span("report.csv"):
                    sweep_csv(rep)
            return rep

        for i, profile in enumerate(self.profiles):
            _run_op(ops, "simulate", i, lambda: simulate(profile))
        return ops

    def check(self, op: Op):
        rep = op.output
        k = self.arrays[op.case].shape[0]
        label = self.labels[op.case]
        if not abs(rep.predicted_slope - self.expected_slopes[op.case]) <= 1e-12:
            return "montecarlo", f"{label}: predicted slope {rep.predicted_slope}"
        if rep.dims != tuple(n * k for n in self.SIZES) or rep.smin.shape != (len(self.SIZES), self.trials):
            return "montecarlo", f"{label}: wrong sweep shape"
        if not (np.isfinite(rep.smin).all() and (rep.smin > 0).all()):
            return "montecarlo", f"{label}: smallest singular value not finite and positive"
        return None

    def replay(self, tr, workdir: Path) -> Replay:
        """Serial baseline: one trial at a time from this thread, split into
        sampling and the eigensolver, on the sweep's own seeds and dims."""
        rep = Replay()
        for profile, a in zip(self.profiles, self.arrays):
            for i, n in enumerate(self.SIZES):
                dim = n * a.shape[0]
                sample, eig = [], []
                for t in range(self.trials):
                    rep.attempted += 1
                    seq = np.random.SeedSequence([self.master_seed, i, t])
                    rng = np.random.Generator(np.random.Philox(seq))
                    try:
                        t0 = time.perf_counter()
                        with tr.span("montecarlo.sample"):
                            h = sample_block_hermitian(profile, n, rng)
                        t1 = time.perf_counter()
                        with tr.span("montecarlo.eig"):
                            smin = smallest_singular_value(h)
                        t2 = time.perf_counter()
                    except Exception as exc:
                        rep.failures.append((error_layer(exc, "montecarlo"), f"trial: {exc!r}"))
                        continue
                    if not (math.isfinite(smin) and smin > 0):
                        rep.failures.append(("montecarlo", f"trial d{dim}: smin {smin}"))
                    sample.append(t1 - t0)
                    eig.append(t2 - t1)
                if sample:
                    rep.metrics[f"montecarlo.sample_ms.d{dim}"] = 1e3 * sum(sample) / len(sample)
                    rep.metrics[f"montecarlo.eig_ms.d{dim}"] = 1e3 * sum(eig) / len(eig)
        _cli_call(
            tr, ["simulate", "{}", "--sizes", "16,32", "--trials", "4"], workdir,
            csv_text(ARROW), rep,
            lambda code, out: code == 0 and out.splitlines()[-1].startswith("# slope"),
        )
        return rep


WORKLOADS = {w.name: w for w in (ClassifyMix, QveNumerics, McSweep)}


def parse_all(texts: list[str]):
    return [parse_profile_text(t) for t in texts]
