"""Monte Carlo verification of the smallest-singular-value scaling law.

Samples Hermitian random matrices whose entry variances follow a variance
profile blown up from ``K`` blocks to dimension ``N = n K`` (entry ``(i, j)``
has variance ``s[block(i), block(j)] / N``; blocks where the profile
vanishes are exactly zero), measures the smallest singular value across
sizes and trials, and fits the log-log slope of its mean against the
dimension.  When the density of states diverges at zero like
``tau**(-sigma)``, the smallest singular value shrinks like
``N**(-1/(1-sigma))`` rather than the regular ``1/N``; the fitted slope is
compared against this prediction.

Sampling is reproducible bit for bit: trial ``(t)`` at size index ``(i)``
uses a counter-based generator seeded from ``[master_seed, i, t]``, so the
result is independent of the number of worker threads, and all reductions
run in index order.  A sweep runs its trials on a thread pool sized to the
usable cores and pins numpy's bundled OpenBLAS to one thread while it runs,
so the pool does not oversubscribe the cores and every eigenvalue
computation takes the same single-threaded path whatever the process's
BLAS thread count.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EigFailureError, SingularMatrixError
from .minmax import analyze
from .normal_form import as_profile

__all__ = [
    "EnsembleConfig",
    "SweepReport",
    "sample_block_hermitian",
    "smallest_singular_value",
    "condition_number",
    "run_sweep",
]


@dataclass(frozen=True, eq=False)
class EnsembleConfig:
    """Plan for a smallest-singular-value sweep.

    ``profile`` may also be its :func:`~specdens.minmax.analyze` result.
    ``sizes`` are per-block sizes ``n`` (matrix dimension is ``n * K``);
    ``trials`` independent samples are drawn per size; ``workers`` sizes the
    thread pool (the eigensolver releases the interpreter lock, so threads
    scale; determinism does not depend on the worker count).  ``None``
    means the number of usable cores, or one worker when the OpenBLAS
    thread count cannot be set (BLAS then keeps its own threads)."""

    profile: object
    sizes: tuple[int, ...]
    trials: int
    master_seed: int = 20240
    workers: int | None = None


@dataclass(frozen=True, eq=False)
class SweepReport:
    """Result of a sweep.

    ``smin[i, t]`` is the smallest singular value of trial ``t`` at size
    ``sizes[i]``; ``mean_smin``/``stderr_smin``/``mean_cond`` aggregate per
    size (``mean_cond`` is infinite when a sample is exactly singular).
    ``slope`` is the least squares slope of ``log mean_smin`` against
    ``log dims``; ``predicted_slope`` is ``-1/(1-sigma)`` from the exact
    singularity degree of the profile, or None when the pattern has no
    support (the spectrum then has an atom at zero and the scaling law does
    not apply)."""

    sizes: tuple[int, ...]
    dims: tuple[int, ...]
    trials: int
    master_seed: int
    smin: np.ndarray
    mean_smin: tuple[float, ...]
    stderr_smin: tuple[float, ...]
    mean_cond: tuple[float, ...]
    slope: float
    predicted_slope: float | None


def _trial_rng(master_seed: int, size_index: int, trial: int) -> np.random.Generator:
    seq = np.random.SeedSequence([int(master_seed), int(size_index), int(trial)])
    return np.random.Generator(np.random.Philox(seq))


def _scale_mask(profile, n: int) -> np.ndarray:
    """Entry standard deviations ``sqrt(s[block(i), block(j)] / N)``."""
    dim = n * profile.k
    m = np.kron(profile.entries, np.ones((n, n)))
    m /= dim
    return np.sqrt(m, out=m)


# Side of the square tiles in which a sample is made Hermitian; a complex
# tile of this side is 256 KB, so a tile and its transposed partner are
# read from cache.
_TILE = 128


def _sample(scale: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One Hermitian sample with entry standard deviations ``scale``.

    Rounds exactly like ``scale * ((a + a^H) / sqrt 2)`` with
    ``a = (x + iy) / sqrt 2`` and ``x``, ``y`` drawn in that order, but
    holds no complex matrix besides the sample:

    1. ``x`` and then ``y`` are drawn into one real buffer, and copied into
       the real and imaginary parts of ``a``; the buffer is then freed.
    2. ``a /= sqrt 2``.
    3. ``a`` is made Hermitian in place, tile by tile.  For a pair of
       off-diagonal tiles ``(I, J)``, ``J > I``, the new ``a_IJ`` is
       ``a_IJ + conj(a_JI)^T``, formed before ``a_JI += conj(a_IJ)^T``
       reads the old ``a_IJ``; a diagonal tile takes
       ``a_II += conj(a_II)^T``.
    4. ``a /= sqrt 2`` and ``a *= scale``.

    ``x + iy`` only adds zeros to nonzero draws, so the copies hold its
    bits; after that every entry goes through the same operations in the
    same order as in the expression, so the result is the same bit for
    bit."""
    dim = scale.shape[0]
    a = np.empty((dim, dim), dtype=complex)
    buf = rng.standard_normal((dim, dim))
    a.real = buf
    rng.standard_normal(out=buf)
    a.imag = buf
    del buf
    a /= math.sqrt(2.0)
    for i in range(0, dim, _TILE):
        rows = slice(i, i + _TILE)
        diag = a[rows, rows]
        diag += diag.conj().T
        for j in range(i + _TILE, dim, _TILE):
            cols = slice(j, j + _TILE)
            upper, lower = a[rows, cols], a[cols, rows]
            new = upper + lower.conj().T
            lower += upper.conj().T
            upper[...] = new
    a /= math.sqrt(2.0)
    a *= scale
    return a


def sample_block_hermitian(s, n: int, rng: np.random.Generator) -> np.ndarray:
    """One Hermitian sample of dimension ``N = n * K``.

    Off-diagonal entries are complex Gaussian with variance
    ``s[block(i), block(j)] / N``, the diagonal is real Gaussian with the
    same variance, and entries in vanishing blocks are exactly zero."""
    profile = as_profile(s)
    if n < 1:
        raise ValueError("block size n must be positive")
    return _sample(_scale_mask(profile, n), rng)


def _checked_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix with decomposition sanity checks:
    the eigenvalue sum must reproduce the trace and the sum of squares the
    squared Frobenius norm."""
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(h).all():
        raise EigFailureError("matrix has non-finite entries")
    try:
        w = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise EigFailureError(f"eigendecomposition failed: {exc}") from exc
    if not np.isfinite(w).all():
        raise EigFailureError("eigendecomposition returned non-finite values")
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    dim = h.shape[0]
    if abs(w.sum() - np.trace(h).real) > 1e-8 * scale * dim:
        raise EigFailureError("eigenvalue sum does not match the trace")
    fro2 = float(np.linalg.norm(h, "fro") ** 2)
    if abs(float(w @ w) - fro2) > 1e-8 * max(1.0, fro2):
        raise EigFailureError(
            "eigenvalue squares do not match the Frobenius norm"
        )
    return w


def smallest_singular_value(h: np.ndarray) -> float:
    """Smallest singular value of a Hermitian matrix (the minimum absolute
    eigenvalue).  Raises EigFailureError when the decomposition fails its
    sanity checks."""
    w = _checked_eigenvalues(h)
    return float(np.abs(w).min())


def condition_number(h: np.ndarray) -> float:
    """Spectral condition number of a Hermitian matrix.  Raises
    SingularMatrixError when the matrix is exactly singular."""
    w = np.abs(_checked_eigenvalues(h))
    smallest = float(w.min())
    if smallest == 0.0:
        raise SingularMatrixError("matrix is exactly singular")
    return float(w.max()) / smallest


# Runtime thread-count symbols of the OpenBLAS builds numpy wheels bundle.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# Held from saving the BLAS thread count to restoring it, so that two
# concurrent sweeps cannot restore each other's count mid-run.
_BLAS_LOCK = threading.Lock()


@functools.cache
def _blas_threads():
    """Getter and setter of numpy's bundled OpenBLAS thread count, or None
    when the library or its symbols cannot be found.  Looked up on the
    first sweep, not on import."""
    root = Path(np.__file__).resolve().parent
    for libdir in (root.parent / "numpy.libs", root / ".dylibs"):
        for path in sorted(libdir.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for get_name, set_name in _BLAS_THREAD_SYMBOLS:
                getter = getattr(lib, get_name, None)
                setter = getattr(lib, set_name, None)
                if getter is None or setter is None:
                    continue
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@contextmanager
def _one_blas_thread(control):
    """Run the body with the OpenBLAS thread count set to one, restoring the
    previous count afterwards, also when the body raises.  ``control`` is
    the result of ``_blas_threads``; None leaves BLAS alone."""
    if control is None:
        yield
        return
    getter, setter = control
    with _BLAS_LOCK:
        saved = getter()
        setter(1)
        try:
            yield
        finally:
            setter(saved)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(config: EnsembleConfig) -> SweepReport:
    """Run the full sweep described by ``config`` and fit the scaling law.

    Trials run on a thread pool (by default one worker per usable core)
    with OpenBLAS pinned to one thread, are seeded per ``(size, trial)``
    and reduced in index order, so the report is identical for any worker
    count and any BLAS thread count.  When the OpenBLAS thread count
    cannot be set, the default pool has one worker and BLAS keeps its own
    threads."""
    an = analyze(config.profile)
    profile, ex = an.profile, an.exponents
    sizes = tuple(int(n) for n in config.sizes)
    if not sizes or any(n < 1 for n in sizes):
        raise ValueError("sizes must be positive integers")
    if config.trials < 2:
        raise ValueError("need at least two trials per size")
    if config.workers is not None and config.workers < 1:
        raise ValueError("workers must be a positive integer")
    k = profile.k
    dims = tuple(n * k for n in sizes)
    control = _blas_threads()
    workers = config.workers
    if workers is None:
        workers = 1 if control is None else _usable_cores()

    def one(scale: np.ndarray, size_index: int, trial: int):
        rng = _trial_rng(config.master_seed, size_index, trial)
        w = np.abs(_checked_eigenvalues(_sample(scale, rng)))
        small = float(w.min())
        cond = math.inf if small == 0.0 else float(w.max()) / small
        return small, cond

    smin = np.empty((len(sizes), config.trials))
    cond = np.empty_like(smin)
    # The pool is shut down (every trial finished) before BLAS is restored.
    with _one_blas_thread(control), ThreadPoolExecutor(workers) as pool:
        for i, n in enumerate(sizes):
            scale = _scale_mask(profile, n)
            futures = [
                pool.submit(one, scale, i, t) for t in range(config.trials)
            ]
            for t, fut in enumerate(futures):
                smin[i, t], cond[i, t] = fut.result()

    mean = smin.mean(axis=1)
    stderr = smin.std(axis=1, ddof=1) / math.sqrt(config.trials)
    if len(sizes) >= 2 and (mean > 0).all():
        slope = float(np.polyfit(np.log(dims), np.log(mean), 1)[0])
    else:
        slope = math.nan
    smin.flags.writeable = False
    return SweepReport(
        sizes=sizes,
        dims=dims,
        trials=config.trials,
        master_seed=config.master_seed,
        smin=smin,
        mean_smin=tuple(float(x) for x in mean),
        stderr_smin=tuple(float(x) for x in stderr),
        mean_cond=tuple(float(x) for x in cond.mean(axis=1)),
        slope=slope,
        predicted_slope=None if ex is None else -1.0 / (1.0 - float(ex.sigma)),
    )
