"""specdens benchmark: one command per workload, from a seed.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload classify_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload untraced and prints the end-to-end metrics;
``--trace 1`` runs it with spans around every call into a library module
and prints the per-layer metrics, including the tracing overhead.  Either
way the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; earlier lines give the
machine context and, for ``classify_mix``, the digest of its canonical
JSON output.  The library is imported from ``src/`` of the checkout; the
run exits with status 2 and prints no result when it is missing.  See
``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import OFF, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 7

# Per-layer metrics and the span whose per-pass total gives each one.
PASS_TOTALS = {
    "report.document_s": "report.document",
    "report.json_s": "report.json",
    "report.csv_s": "report.csv",
    "dyson.exponent_fit_s": "dyson.exponent_fit",
    "dyson.limit_weights_s": "dyson.limit_weights",
    "dyson.residuals_s": "dyson.residuals",
    "dyson.density_s": "dyson.density",
    "dyson.atom_mass_s": "dyson.atom_mass",
    "montecarlo.sweep_s": "montecarlo.sweep",
}
REPLAY_TOTALS = {
    "patterns.matching_s": "patterns.matching",
    "patterns.total_support_s": "patterns.total_support",
    "patterns.max_zero_s": "patterns.max_zero",
    "normal_form.snf_s": "normal_form.snf",
    "normal_form.no_support_s": "normal_form.no_support",
    "normal_form.relation_s": "normal_form.relation",
    "minmax.exponents_s": "minmax.exponents",
    "cli.main_s": "cli.main",
}


def percentile(values, q: float) -> float:
    """The q-th percentile, ``q`` in (0, 100): the median for 50,
    otherwise the nearest rank."""
    if q == 50:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def blas_context() -> dict:
    """BLAS library, version and runtime thread count of numpy's bundled
    OpenBLAS, as far as they can be read."""
    import numpy as np

    info = {"library": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if getter is None:
                    continue
                getter.restype, getter.argtypes = ctypes.c_int, []
                info["threads"] = getter()
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if config is not None:
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    info["config"] = config().decode(errors="replace")
                return info
    return info


def nproc() -> int:
    """Processors this process may run on, as ``nproc`` counts them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def machine_context() -> dict:
    import numpy as np

    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_context(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


SETUP_CODE = (
    "import json, sys\n"
    f"sys.path.insert(0, {str(SRC)!r})\n"
    "import specdens\n"
    "from specdens.report import parse_profile_text\n"
    "for text in json.load(sys.stdin):\n"
    "    parse_profile_text(text)\n"
)


def setup_once(payload: str) -> float:
    """Wall time of a fresh interpreter that imports specdens and parses
    the profiles in ``payload`` (a JSON list of texts) with
    ``parse_profile_text``."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE], input=payload, text=True,
        capture_output=True, check=True, timeout=120, cwd=ROOT,
    )
    return time.perf_counter() - t0


class Tally:
    """Attempted and failed operations, with failures per layer."""

    def __init__(self, layers):
        self.attempted = 0
        self.by_layer = {layer: 0 for layer in layers}
        self.messages: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.by_layer.values())

    def fail(self, layer: str, message: str) -> None:
        self.by_layer[layer] += 1
        if len(self.messages) < 20:
            self.messages.append(f"[{layer}] {message}")

    def judge(self, workload, ops, error_layer) -> None:
        for op in ops:
            self.attempted += 1
            if op.error is not None:
                self.fail(error_layer(op.error, "report"), f"{op.kind} #{op.case}: {op.error!r}")
                continue
            verdict = workload.check(op)
            if verdict is not None:
                self.fail(*verdict)


def run_passes(workload, tracers, seconds: float, after_pass=None):
    """Run passes, cycling through ``tracers``, until the next pass would
    end after ``seconds``; at least one pass per tracer.  ``after_pass``,
    if given, is called after each pass, outside its timing.  Returns, per
    tracer, a list of (wall seconds, ops, (first, end) span marks)."""
    results = [[] for _ in tracers]
    start = time.perf_counter()
    i = 0
    while True:
        slot = i % len(tracers)
        tr = tracers[slot]
        first = tr.mark()
        t0 = time.perf_counter()
        ops = workload.run_pass(tr)
        wall = time.perf_counter() - t0
        end = tr.mark()
        results[slot].append((wall, ops, (first, end)))
        if after_pass is not None:
            after_pass()
        i += 1
        elapsed = time.perf_counter() - start
        if i >= len(tracers) and elapsed + wall > seconds:
            return results


def typical_latencies(passes) -> list[float]:
    """Each op's median latency over the passes, in seconds.  Every pass
    runs the same ops on the same inputs, so an op's repeats differ only by
    what else held the processors meanwhile."""
    repeats: dict = {}
    for _, ops, _ in passes:
        for op in ops:
            repeats.setdefault((op.kind, op.case), []).append(op.seconds)
    return [statistics.median(times) for times in repeats.values()]


def end_to_end(workload, args, tally, error_layer) -> dict:
    # Set-up is timed once after every pass, so that its samples span the
    # same stretch of time as the passes; the first, unmeasured start lets
    # the bytecode cache fill.
    payload = json.dumps(workload.texts())
    setup_once(payload)
    setup_times: list[float] = []
    (passes,) = run_passes(
        workload, [OFF], args.seconds, lambda: setup_times.append(setup_once(payload))
    )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_once(payload))
    for _, ops, _ in passes:
        tally.judge(workload, ops, error_layer)
    report_digest(workload, passes, tally)
    print(f"samples passes {len(passes)} ops {sum(len(ops) for _, ops, _ in passes)}"
          f" setups {len(setup_times)}")
    print("per-pass " + json.dumps({
        "wall_s": [w for w, _, _ in passes],
        "op_p50_ms": [1e3 * percentile([op.seconds for op in ops], 50) for _, ops, _ in passes],
        "op_p95_ms": [1e3 * percentile([op.seconds for op in ops], 95) for _, ops, _ in passes],
        "setup_s": setup_times,
    }))
    good = tally.attempted - tally.failed
    typical = typical_latencies(passes)

    def op_ms(q: float) -> float:
        """q-th percentile over the ops of each op's median latency."""
        return 1e3 * percentile(typical, q)

    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(w for w, _, _ in passes), "s"),
        "op_p50_ms": (op_ms(50), "ms"),
        "op_p95_ms": (op_ms(95), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "success_rate": (good / tally.attempted, "ratio"),
    }


def report_digest(workload, passes, tally) -> None:
    if not hasattr(workload, "digest"):
        return
    digests = {workload.digest(ops) for _, ops, _ in passes}
    for digest in sorted(digests):
        print(f"digest {workload.name} sha256 {digest}")
    if len(digests) > 1:
        tally.fail("report", "canonical JSON differs between passes")
    print(f"classes {json.dumps(workload.class_counts(passes[0][1]), sort_keys=True)}")


def per_layer(workload, args, tally, error_layer, context) -> dict:
    from workloads import McSweep

    tracer = Tracer()
    OUT.mkdir(exist_ok=True)
    replay = workload.replay(tracer, OUT)
    tally.attempted += replay.attempted
    for layer, message in replay.failures:
        tally.fail(layer, message)
    replay_totals = tracer.totals()
    plain, traced = run_passes(workload, [OFF, tracer], args.seconds)
    for _, ops, _ in plain + traced:
        tally.judge(workload, ops, error_layer)
    report_digest(workload, plain + traced, tally)
    print(f"samples untraced passes {len(plain)} traced passes {len(traced)}")

    def pass_median(span: str) -> float:
        return statistics.median(tracer.totals(*marks).get(span, 0.0) for _, _, marks in traced)

    m = {name: (pass_median(span), "s") for name, span in PASS_TOTALS.items()}
    m.update({name: (replay_totals.get(span, 0.0), "s") for name, span in REPLAY_TOTALS.items()})
    parts = replay.metrics.get("classification_parts_s", 0.0)
    doc = m["report.document_s"][0]
    m["report.recompute_ratio"] = (doc / parts if parts > 0 else 0.0, "ratio")
    for name in ("axis_cold", "plane_cold"):
        durations = tracer.durations(f"dyson.{name}")
        mean_ms = 1e3 * sum(durations) / len(durations) if durations else 0.0
        m[f"dyson.{name}_ms"] = (mean_ms, "ms")
        m[f"dyson.{name}_iterations"] = (replay.metrics.get(f"dyson.{name}_iterations", 0), "count")
    serial_s = 0.0
    for dim in McSweep.dims():
        for kind in ("sample", "eig"):
            value = replay.metrics.get(f"montecarlo.{kind}_ms.d{dim}", 0.0)
            m[f"montecarlo.{kind}_ms.d{dim}"] = (value, "ms")
            serial_s += value / 1e3
    sweep = m["montecarlo.sweep_s"][0]
    trials = getattr(workload, "trials", 0)
    efficiency = serial_s * trials / (sweep * nproc()) if sweep > 0 else 0.0
    m["montecarlo.parallel_efficiency"] = (efficiency, "ratio")
    for layer, count in tally.by_layer.items():
        m[f"{layer}.failures"] = (count, "count")
    overhead = statistics.median(w for w, _, _ in traced) - statistics.median(w for w, _, _ in plain)
    m["trace.overhead_s"] = (overhead, "s")
    tracer.dump(OUT / f"spans-{workload.name}-seed{args.seed}.json", context)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "specdens" / "__init__.py").is_file():
        print(f"error: no specdens sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import specdens

    if Path(specdens.__file__).resolve().parent != SRC / "specdens":
        print(f"error: imported specdens from {specdens.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    context = machine_context()
    print("context " + json.dumps(context, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.size == "tiny")
    workload.bind(workloads.parse_all(workload.texts()))
    tally = Tally(workloads.LAYERS)
    if args.trace:
        metrics = per_layer(workload, args, tally, workloads.error_layer, context)
    else:
        metrics = end_to_end(workload, args, tally, workloads.error_layer)
    for message in tally.messages:
        print(f"failure {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
