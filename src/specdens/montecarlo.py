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

A trial holds one complex ``N x N`` matrix: the sample is drawn, made
Hermitian and scaled in place, and its eigenvalues are computed in its own
buffer by the ``zheevd`` that ``np.linalg.eigvalsh`` calls on a copy, read
from numpy's bundled OpenBLAS (``eigvalsh`` itself is the fallback when
the library does not export it).  The results are the same bit for bit.
A sweep draws its samples into at most one buffer per worker, mapped for
the largest dimension and reused by every trial.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import EigFailureError, _count
from .minmax import analyze
from .normal_form import as_profile

__all__ = [
    "EnsembleConfig",
    "SweepReport",
    "sample_block_hermitian",
    "smallest_singular_value",
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
    seq = np.random.SeedSequence([master_seed, size_index, trial])
    return np.random.Generator(np.random.Philox(seq))


def _block_scale(profile, n: int) -> np.ndarray:
    """Entry standard deviations ``sqrt(s_IJ / N)``, one per block."""
    return np.sqrt(profile.entries / (n * profile.k))


# Rows drawn per call to the generator, and side of the square tiles in
# which a sample is made Hermitian; a complex tile of this side is 256 KB,
# so a tile and its transposed partner are read from cache.
_TILE = 128


def _sample(scale: np.ndarray, n: int, rng: np.random.Generator, out=None) -> np.ndarray:
    """One Hermitian sample of dimension ``N = n K`` whose ``n x n`` block
    ``(I, J)`` has entry standard deviation ``scale[I, J]``, drawn into
    ``out`` (a C-contiguous complex ``N x N`` array) when given.

    Rounds exactly like ``mask * ((a + a^H) / sqrt 2)`` with
    ``a = (x + iy) / sqrt 2``, ``x`` and ``y`` drawn in that order and
    ``mask`` the ``N x N`` blow-up of ``scale``, but holds no ``N x N``
    array besides the sample:

    1. ``x`` and then ``y`` are drawn, ``_TILE`` rows at a time, into one
       small real buffer and copied into the real and imaginary parts of
       ``a``.  The generator fills values in order, so the chunks carry
       the same stream as one ``N x N`` draw.
    2. ``a /= sqrt 2``.
    3. ``a`` is made Hermitian in place, tile by tile.  For a pair of
       off-diagonal tiles ``(I, J)``, ``J > I``, the new ``a_IJ`` is
       ``a_IJ + conj(a_JI)^T``, formed before ``a_JI += conj(a_IJ)^T``
       reads the old ``a_IJ``; a diagonal tile takes
       ``a_II += conj(a_II)^T``.
    4. ``a /= sqrt 2``, and each block is multiplied by its scalar
       ``scale[I, J]``, broadcast over the block: the same complex product
       with a zero imaginary part that the mask's entry gives.

    ``x + iy`` only adds zeros to nonzero draws, so the copies hold its
    bits; after that every entry goes through the same operations in the
    same order as in the expression, so the result is the same bit for
    bit."""
    k = scale.shape[0]
    dim = n * k
    a = np.empty((dim, dim), dtype=complex) if out is None else out
    buf = np.empty((min(_TILE, dim), dim))
    for part in (a.real, a.imag):
        for i in range(0, dim, _TILE):
            rows = buf[: min(_TILE, dim - i)]
            rng.standard_normal(out=rows)
            part[i : i + _TILE] = rows
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
    blocks = a.reshape(k, n, k, n)  # blocks[I, :, J, :] is block (I, J)
    blocks *= scale[:, None, :, None]
    return a


def sample_block_hermitian(s, n: int, rng: np.random.Generator) -> np.ndarray:
    """One Hermitian sample of dimension ``N = n * K``.

    Off-diagonal entries are complex Gaussian with variance
    ``s[block(i), block(j)] / N``, the diagonal is real Gaussian with the
    same variance, and entries in vanishing blocks are exactly zero."""
    profile = as_profile(s)
    n = _count(n, "block size n")
    return _sample(_block_scale(profile, n), n, rng)


def _checked_eigenvalues(h: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix with decomposition sanity checks:
    the eigenvalue sum must reproduce the trace and the sum of squares the
    squared Frobenius norm.

    With ``overwrite``, ``h`` must be a writeable C-contiguous complex128
    matrix (ValueError otherwise), and LAPACK's ``zheevd`` reduces it in
    place (its contents are lost) when numpy's bundled OpenBLAS exports
    the routine; otherwise, and always without ``overwrite``,
    ``np.linalg.eigvalsh`` works on a copy.  Both run ``zheevd`` on the
    lower triangle of the same matrix, so the eigenvalues are the same
    bit for bit."""
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    dim = h.shape[0]
    if dim == 0:
        raise ValueError("matrix must be non-empty")
    if overwrite and not (
        h.dtype == np.complex128 and h.flags.c_contiguous and h.flags.writeable
    ):
        raise ValueError("overwrite needs a writeable C-contiguous complex128 matrix")
    # A non-finite entry makes the sum of squares non-finite, so the
    # entries are only scanned (one boolean per entry) when it is.
    fro2 = float(np.vdot(h, h).real)
    if not math.isfinite(fro2) and not np.isfinite(h).all():
        raise EigFailureError("matrix has non-finite entries")
    # Past 2**1000 the sums of squares may overflow: the checks then run on
    # h * unit, a power of two that scales every entry exactly to <= 1.
    unit, hs = 1.0, h
    if not fro2 < 2.0**1000:
        unit = 2.0 ** -math.frexp(float(np.abs(h).max()))[1]
        hs = h * unit
        fro2 = float(np.vdot(hs, hs).real)
    trace = np.trace(hs).real
    del hs
    zheevd = _lapack_zheevd() if overwrite else None
    if zheevd is None:
        try:
            w = np.linalg.eigvalsh(h)
        except np.linalg.LinAlgError as exc:
            raise EigFailureError(f"eigendecomposition failed: {exc}") from exc
    else:
        # Read as a column-major array, the C buffer of conj(h) is
        # conj(h)^T = h, the matrix eigvalsh would copy into LAPACK's order.
        np.conjugate(h, out=h)
        w = np.empty(dim)
        info = zheevd(_LAPACK_COL_MAJOR, b"N", b"L", dim, h.ctypes.data, dim, w.ctypes.data)
        if info != 0:
            raise EigFailureError(f"eigendecomposition failed: zheevd info {info}")
    if not np.isfinite(w).all():
        raise EigFailureError("eigendecomposition returned non-finite values")
    ws = w * unit
    scale = max(1.0, float(np.abs(ws).max(initial=0.0)))
    if abs(ws.sum() - trace) > 1e-8 * scale * dim:
        raise EigFailureError("eigenvalue sum does not match the trace")
    if abs(float(ws @ ws) - fro2) > 1e-8 * max(1.0, fro2):
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
def _openblas():
    """numpy's bundled OpenBLAS as a ctypes library, or None when it cannot
    be found or loaded.  Looked up on first use, not on import."""
    root = Path(np.__file__).resolve().parent
    for libdir in (root.parent / "numpy.libs", root / ".dylibs"):
        for path in sorted(libdir.glob("*openblas*")):
            try:
                return ctypes.CDLL(str(path))
            except OSError:
                continue
    return None


@functools.cache
def _blas_threads():
    """Getter and setter of numpy's bundled OpenBLAS thread count, or None
    when the library or its symbols cannot be found."""
    lib = _openblas()
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        getter = getattr(lib, get_name, None)
        setter = getattr(lib, set_name, None)
        if getter is None or setter is None:
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        return getter, setter
    return None


# LAPACKE's eigenvalue routine for complex Hermitian matrices in the 64-bit
# integer OpenBLAS builds numpy wheels bundle (the Fortran routine behind
# np.linalg.eigvalsh), and LAPACKE's code for column-major storage.
_ZHEEVD_SYMBOLS = ("scipy_LAPACKE_zheevd64_", "LAPACKE_zheevd64_")
_LAPACK_COL_MAJOR = 102


@functools.cache
def _lapack_zheevd():
    """``LAPACKE_zheevd(layout, jobz, uplo, n, a, lda, w) -> info`` of
    numpy's bundled OpenBLAS, or None when the library or the symbol
    cannot be found."""
    lib = _openblas()
    for name in _ZHEEVD_SYMBOLS:
        fn = getattr(lib, name, None)
        if fn is None:
            continue
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        fn.argtypes = [ctypes.c_int, ctypes.c_char, ctypes.c_char, i64, ptr, i64, ptr]
        fn.restype = i64
        return fn
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


def _mapping(nbytes: int) -> mmap.mmap:
    """Private anonymous memory, unmapped when dropped.  It asks for
    transparent huge pages where the system has them, as numpy does for
    its own arrays of 4 MB or more; without them a sweep ran 4% slower."""
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    buf = mmap.mmap(-1, nbytes, **private)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with suppress(OSError):
            buf.madvise(mmap.MADV_HUGEPAGE)
    return buf


def _trial(scale: np.ndarray, n: int, seed: int, size_index: int, trial: int, out=None):
    """Smallest singular value and condition number (infinite when the
    sample is exactly singular) of one sweep trial; the sample, drawn into
    ``out`` when given (see :func:`_sample`), is reduced in place, so the
    trial holds one complex matrix."""
    rng = _trial_rng(seed, size_index, trial)
    w = np.abs(_checked_eigenvalues(_sample(scale, n, rng, out), overwrite=True))
    small = float(w.min())
    cond = math.inf if small == 0.0 else float(w.max()) / small
    return small, cond


def run_sweep(config: EnsembleConfig) -> SweepReport:
    """Run the full sweep described by ``config`` and fit the scaling law.

    Trials run on a thread pool (by default one worker per usable core)
    with OpenBLAS pinned to one thread, are seeded per ``(size, trial)``
    and reduced in index order, so the report is identical for any worker
    count and any BLAS thread count.  When the OpenBLAS thread count
    cannot be set, the default pool has one worker and BLAS keeps its own
    threads.  Sizes, trials (at least two), workers and the master seed
    (at least zero) are counts (see the README's "Arguments"); anything
    else raises ValueError before any trial runs."""
    an = analyze(config.profile)
    profile, ex = an.profile, an.exponents
    sizes = tuple(_count(n, f"sizes[{i}]") for i, n in enumerate(config.sizes))
    if not sizes:
        raise ValueError("sizes must be positive integers")
    trials = _count(config.trials, "trials", 2)
    workers = None if config.workers is None else _count(config.workers, "workers")
    seed = _count(config.master_seed, "master_seed", 0)
    k = profile.k
    dims = tuple(n * k for n in sizes)
    control = _blas_threads()
    if workers is None:
        workers = 1 if control is None else _usable_cores()

    smin = np.empty((len(sizes), trials))
    cond = np.empty_like(smin)
    # Every trial draws its sample into one of these mappings, sized for the
    # largest dimension.  Freed trial matrices would stay in malloc's arenas
    # once a larger freed one had raised its dynamic mmap threshold; the
    # mappings go back to the system when the sweep drops them.
    buffers = queue.SimpleQueue()
    for _ in range(min(workers, len(sizes) * trials)):
        buffers.put(_mapping(16 * max(dims) ** 2))

    def pooled_trial(scale, n, i, t):
        buf = buffers.get()
        try:
            out = np.frombuffer(buf, complex, (n * k) ** 2).reshape(n * k, n * k)
            return _trial(scale, n, seed, i, t, out)
        finally:
            buffers.put(buf)

    # The pool is shut down (every trial finished) before BLAS is restored.
    with _one_blas_thread(control), ThreadPoolExecutor(workers) as pool:
        for i, n in enumerate(sizes):
            scale = _block_scale(profile, n)
            futures = [
                pool.submit(pooled_trial, scale, n, i, t)
                for t in range(trials)
            ]
            for t, fut in enumerate(futures):
                smin[i, t], cond[i, t] = fut.result()

    mean = smin.mean(axis=1)
    stderr = smin.std(axis=1, ddof=1) / math.sqrt(trials)
    if len(sizes) >= 2 and (mean > 0).all():
        slope = float(np.polyfit(np.log(dims), np.log(mean), 1)[0])
    else:
        slope = math.nan
    smin.flags.writeable = False
    return SweepReport(
        sizes=sizes,
        dims=dims,
        trials=trials,
        master_seed=seed,
        smin=smin,
        mean_smin=tuple(float(x) for x in mean),
        stderr_smin=tuple(float(x) for x in stderr),
        mean_cond=tuple(float(x) for x in cond.mean(axis=1)),
        slope=slope,
        predicted_slope=None if ex is None else -1.0 / (1.0 - float(ex.sigma)),
    )
