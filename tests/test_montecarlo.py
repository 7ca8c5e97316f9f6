"""Tests for the random-matrix sampler and the scaling-law sweep."""

import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from specdens import montecarlo
from specdens.errors import EigFailureError, SingularMatrixError
from specdens.minmax import analyze
from specdens.montecarlo import (
    EnsembleConfig,
    condition_number,
    run_sweep,
    sample_block_hermitian,
    smallest_singular_value,
)

ARROW = np.array([[1.0, 1.0], [1.0, 0.0]])
CHAIN3 = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
NOSUPPORT3 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])


def _rng(*seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(seed))))


def _reference_sample(s, n, rng):
    # The sampler as one expression, with every temporary; the library's
    # in-place version must reproduce it bit for bit.
    entries = np.asarray(s, dtype=float)
    dim = n * entries.shape[0]
    x = rng.standard_normal((dim, dim))
    y = rng.standard_normal((dim, dim))
    a = (x + 1j * y) / math.sqrt(2.0)
    b = (a + a.conj().T) / math.sqrt(2.0)
    scale = np.sqrt(np.kron(entries, np.ones((n, n))) / dim)
    return scale * b


@pytest.fixture
def blas():
    """Getter and setter of the OpenBLAS thread count; the count is
    restored after the test."""
    control = montecarlo._blas_threads()
    if control is None:
        pytest.skip("the OpenBLAS thread count cannot be set")
    getter, setter = control
    saved = getter()
    yield getter, setter
    setter(saved)


# --- sampling ---------------------------------------------------------------------


def test_sample_is_hermitian_with_real_diagonal():
    h = sample_block_hermitian(ARROW, 16, _rng(1))
    assert h.shape == (32, 32)
    assert np.array_equal(h, h.conj().T)
    assert not h.diagonal().imag.any()


def test_sample_zero_blocks_are_exactly_zero():
    h = sample_block_hermitian(ARROW, 8, _rng(2))
    assert not h[8:, 8:].any()
    assert h[:8, :].all()


def test_sample_is_bitwise_reproducible():
    h1 = sample_block_hermitian(ARROW, 12, _rng(3, 4))
    h2 = sample_block_hermitian(ARROW, 12, _rng(3, 4))
    assert np.array_equal(h1, h2)
    h3 = sample_block_hermitian(ARROW, 12, _rng(3, 5))
    assert not np.array_equal(h1, h3)


# Block sizes whose dimensions n * K fall below one 128-wide symmetrisation
# tile, on it, one past it, and off its multiples.
@pytest.mark.parametrize(
    "s, sizes",
    [
        (ARROW, (1, 7, 32, 64, 65, 150)),
        (CHAIN3, (1, 7, 42, 43, 100)),
        ([[1.0]], (1, 7, 128, 129, 300)),
    ],
    ids=["arrow", "chain3", "scalar"],
)
def test_sample_matches_reference_bitwise(s, sizes):
    assert montecarlo._TILE == 128
    for n in sizes:
        for seed in (0, 5):
            expected = _reference_sample(s, n, _rng(seed, n))
            h = sample_block_hermitian(s, n, _rng(seed, n))
            assert np.array_equal(h, expected)
            assert np.array_equal(np.signbit(h.imag), np.signbit(expected.imag))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_peak_memory_is_one_complex_matrix():
    # The sample, plus a 128-row real draw buffer and a few 128 x 128
    # symmetrisation tiles: no N x N real buffer or scale mask.
    dim = 1024
    peak = _traced_peak(sample_block_hermitian, ARROW, dim // 2, _rng(9))
    assert peak <= 1.25 * 16 * dim**2


def test_trial_peak_memory_is_one_complex_matrix():
    # The eigenvalues are computed in the sample's own buffer.  LAPACK's
    # workspace and eigvalsh's private copy are not traced, which is why
    # test_sweep_calls_lapack_in_place_not_eigvalsh exists.
    dim = 1024
    n = dim // 2
    scale = montecarlo._block_scale(analyze(ARROW).profile, n)
    peak = _traced_peak(montecarlo._trial, scale, n, 9, 0, 0)
    assert peak <= 1.25 * 16 * dim**2


def test_sample_norm_matches_semicircle_edge():
    h = sample_block_hermitian([[1.0]], 512, _rng(6))
    assert 1.8 < np.linalg.norm(h, 2) < 2.2


def test_sample_entry_variance():
    n = 64
    h = sample_block_hermitian(ARROW, n, _rng(7))
    dim = 2 * n
    offdiag = np.abs(h[:n, n:]) ** 2  # block (0, 1), variance 1/dim
    assert offdiag.mean() == pytest.approx(1.0 / dim, rel=0.1)
    diag = h.diagonal()[:n].real ** 2
    assert diag.mean() == pytest.approx(1.0 / dim, rel=0.5)


# --- spectra ----------------------------------------------------------------------


def test_smallest_singular_value_matches_svd():
    h = sample_block_hermitian(ARROW, 10, _rng(8))
    direct = np.linalg.svd(h, compute_uv=False).min()
    assert abs(smallest_singular_value(h) - direct) < 1e-10


def test_eig_failure_on_bad_matrix():
    with pytest.raises(EigFailureError):
        smallest_singular_value(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        smallest_singular_value(np.ones((2, 3)))


def test_condition_number():
    assert condition_number(np.eye(3)) == pytest.approx(1.0)
    assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)
    with pytest.raises(SingularMatrixError):
        condition_number(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("n", [2.5, 0, -1, True, "4"])
def test_sample_rejects_bad_block_size(n):
    with pytest.raises(ValueError, match="block size n must be an integer >= 1"):
        sample_block_hermitian(ARROW, n, _rng(1))


def test_sample_accepts_numpy_block_size():
    h = sample_block_hermitian(ARROW, np.int64(12), _rng(3, 4))
    assert np.array_equal(h, sample_block_hermitian(ARROW, 12, _rng(3, 4)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_spectrum_checks_hold_at_large_scale(monkeypatch):
    # the squares of 1e200 overflow: the checks run in a power-of-two scale
    h = np.diag([1e200, 1.0])
    assert smallest_singular_value(h) == 1.0
    # right trace, wrong sum of squares
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([1.0, 1.0]) * 5e199)
    with pytest.raises(EigFailureError, match="Frobenius"):
        smallest_singular_value(h)


@pytest.mark.parametrize("fn", [smallest_singular_value, condition_number])
def test_empty_matrix_is_rejected(fn):
    with pytest.raises(ValueError, match="matrix must be non-empty"):
        fn(np.zeros((0, 0), dtype=complex))


def test_in_place_eigenvalues_match_eigvalsh():
    h = sample_block_hermitian(CHAIN3, 50, _rng(12))
    expected = np.linalg.eigvalsh(h)
    assert np.array_equal(montecarlo._checked_eigenvalues(h.copy(), overwrite=True), expected)
    assert np.array_equal(montecarlo._checked_eigenvalues(h), expected)
    for bad in (h.T, h.real.copy(), h[::2, ::2]):
        with pytest.raises(ValueError, match="overwrite needs"):
            montecarlo._checked_eigenvalues(bad, overwrite=True)


def test_lapack_failure_raises_eig_failure(monkeypatch):
    if montecarlo._lapack_zheevd() is None:
        pytest.skip("the bundled OpenBLAS exports no zheevd")
    monkeypatch.setattr(montecarlo, "_lapack_zheevd", lambda: lambda *args: 3)
    h = sample_block_hermitian(ARROW, 8, _rng(13))
    with pytest.raises(EigFailureError, match="zheevd info 3"):
        montecarlo._checked_eigenvalues(h, overwrite=True)
    with pytest.raises(EigFailureError, match="zheevd info 3"):
        run_sweep(EnsembleConfig(ARROW, (8,), trials=2, workers=1))


# --- sweeps -----------------------------------------------------------------------


def test_sweep_is_deterministic_across_worker_counts():
    cfg1 = EnsembleConfig(ARROW, (8, 16), trials=6, master_seed=99, workers=1)
    cfg4 = EnsembleConfig(ARROW, (8, 16), trials=6, master_seed=99, workers=4)
    r1, r4 = run_sweep(cfg1), run_sweep(cfg4)
    assert np.array_equal(r1.smin, r4.smin)
    assert r1.mean_smin == r4.mean_smin
    assert r1.slope == r4.slope


def test_sweep_is_bitwise_identical_across_workers_and_blas_threads(blas):
    # At dim 256 a 2-thread eigensolver rounds differently from a 1-thread
    # one, so this holds only because the sweep pins BLAS to one thread.
    getter, setter = blas
    results = []
    for threads in (1, 2):
        for workers in (1, 2):
            setter(threads)
            cfg = EnsembleConfig(ARROW, (128, 64), trials=2, master_seed=7, workers=workers)
            results.append(run_sweep(cfg).smin)
            assert getter() == threads
    for smin in results[1:]:
        assert np.array_equal(smin, results[0])


# SHA-256 of smin.tobytes() and of the mean_cond values of a sweep whose
# dimensions cross the 128-wide symmetrisation tile, captured while the
# sampler still built every temporary of the one-expression reference
# (numpy 2.4.6, OpenBLAS 0.3.31 on its SkylakeX kernels)
SWEEP_SHA256 = {
    "arrow": (
        "16e5e9edcab051f0bb81fc362d4d48af194ad438e209c5f12be070fce042b935",
        "aaa21a48544adf0ada8eea966303307bf5e0af149ab77e70c40337aaf5fdff57",
    ),
    "chain3": (
        "a851fdf8f263a47fd31a77aefb824b5930a9a1792601b4b93f998caa5ff04baa",
        "62cc857395d91301522931d0573262ef44bd3b6749222bebe55537998ef5a24e",
    ),
}


@pytest.mark.parametrize("name, s", [("arrow", ARROW), ("chain3", CHAIN3)], ids=["arrow", "chain3"])
def test_sweep_output_is_pinned_bitwise(name, s):
    rep = run_sweep(EnsembleConfig(s, (16, 50, 100), trials=3, master_seed=4242))
    smin_digest = hashlib.sha256(rep.smin.tobytes()).hexdigest()
    cond_digest = hashlib.sha256(np.array(rep.mean_cond).tobytes()).hexdigest()
    assert (smin_digest, cond_digest) == SWEEP_SHA256[name]


# Dimensions below, across and off the 128-wide tiles of drawing and
# symmetrisation, on both profiles.
@pytest.mark.parametrize(
    "s, sizes", [(ARROW, (16, 50, 100)), (CHAIN3, (7, 43, 100))], ids=["arrow", "chain3"]
)
def test_sweep_matches_reference_loop_bitwise(s, sizes):
    # Unlike the pinned digests, this holds on any CPU and BLAS kernel.
    trials, seed = 3, 4243
    rep = run_sweep(EnsembleConfig(s, sizes, trials=trials, master_seed=seed))
    smin = np.empty((len(sizes), trials))
    cond = np.empty_like(smin)
    with montecarlo._one_blas_thread(montecarlo._blas_threads()):
        for i, n in enumerate(sizes):
            for t in range(trials):
                w = np.abs(np.linalg.eigvalsh(_reference_sample(s, n, _rng(seed, i, t))))
                smin[i, t] = w.min()
                cond[i, t] = w.max() / w.min()
    assert np.array_equal(rep.smin, smin)
    assert rep.mean_cond == tuple(float(c) for c in cond.mean(axis=1))


def test_sweep_without_lapack_symbol_falls_back_bitwise(monkeypatch):
    cfg = EnsembleConfig(CHAIN3, (16, 50), trials=3, master_seed=8)
    expected = run_sweep(cfg)
    monkeypatch.setattr(montecarlo, "_lapack_zheevd", lambda: None)
    rep = run_sweep(cfg)
    assert np.array_equal(rep.smin, expected.smin)
    assert rep.mean_cond == expected.mean_cond


@pytest.mark.parametrize("workers, mappings", [(1, 1), (2, 2), (8, 6)])
def test_sweep_reuses_one_mapping_per_worker(monkeypatch, workers, mappings):
    # at most one buffer per worker, and never more than there are trials,
    # each sized for the largest sample and shared by all sizes
    sizes = []
    mapping = montecarlo._mapping

    def spy(nbytes):
        sizes.append(nbytes)
        return mapping(nbytes)

    monkeypatch.setattr(montecarlo, "_mapping", spy)
    cfg = EnsembleConfig(CHAIN3, (16, 8, 5), trials=2, master_seed=3, workers=workers)
    rep = run_sweep(cfg)
    assert sizes == [16 * 48**2] * mappings
    monkeypatch.undo()
    assert np.array_equal(rep.smin, run_sweep(replace(cfg, workers=1)).smin)


def test_sweep_calls_lapack_in_place_not_eigvalsh(monkeypatch):
    if montecarlo._lapack_zheevd() is None:
        pytest.skip("the bundled OpenBLAS exports no zheevd")
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    rep = run_sweep(EnsembleConfig(ARROW, (8, 16), trials=3, master_seed=2))
    assert calls == []
    assert (rep.smin > 0).all()


def test_sweep_restores_blas_threads_when_a_trial_raises(blas, monkeypatch):
    getter, setter = blas

    def fail(h, overwrite=False):
        raise EigFailureError("injected failure")

    monkeypatch.setattr(montecarlo, "_checked_eigenvalues", fail)
    setter(2)
    with pytest.raises(EigFailureError, match="injected"):
        run_sweep(EnsembleConfig(ARROW, (8, 16), trials=4, workers=2))
    assert getter() == 2
    assert not montecarlo._BLAS_LOCK.locked()


def test_concurrent_sweeps_match_serial_and_restore_blas(blas):
    # Four sweeps on more threads than cores, with frequent thread switches:
    # a sweep that restored another's saved count would leave the process
    # at one BLAS thread, or let a trial run on two.
    getter, setter = blas
    setter(2)
    cfg = EnsembleConfig(ARROW, (64, 32), trials=4, master_seed=11)
    expected = run_sweep(cfg).smin
    results = [None] * 4

    def work(slot):
        results[slot] = run_sweep(cfg).smin

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for smin in results:
        assert smin is not None and np.array_equal(smin, expected)
    assert getter() == 2


def test_sweep_default_pool_size(monkeypatch):
    sizes = []
    executor = montecarlo.ThreadPoolExecutor

    def spy(max_workers):
        sizes.append(max_workers)
        return executor(max_workers=max_workers)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", spy)
    cfg = EnsembleConfig(ARROW, (8, 16), trials=3, master_seed=5)
    expected = run_sweep(cfg).smin
    if montecarlo._blas_threads() is not None:
        assert sizes == [len(os.sched_getaffinity(0))]
    # Without a BLAS thread setter the pool falls back to one worker.
    monkeypatch.setattr(montecarlo, "_blas_threads", lambda: None)
    sizes.clear()
    assert np.array_equal(run_sweep(cfg).smin, expected)
    assert sizes == [1]


def test_import_does_not_look_up_blas():
    code = (
        "import specdens, specdens.montecarlo as m; "
        "print(sum(f.cache_info().currsize for f in "
        "(m._openblas, m._blas_threads, m._lapack_zheevd)))"
    )
    src = str(Path(montecarlo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=60, env=env,
    ).stdout
    assert out.strip() == "0"


def test_sweep_report_contents():
    rep = run_sweep(EnsembleConfig(ARROW, (8, 16), trials=5, master_seed=1))
    assert rep.dims == (16, 32)
    assert rep.smin.shape == (2, 5)
    assert all(s > 0 for s in rep.mean_smin)
    assert all(s > 0 for s in rep.stderr_smin)
    assert all(c > 1 for c in rep.mean_cond)
    assert rep.predicted_slope == pytest.approx(-1.5)  # sigma = 1/3
    again = run_sweep(EnsembleConfig(analyze(ARROW), (8, 16), trials=5, master_seed=1))
    assert np.array_equal(again.smin, rep.smin)
    assert again.predicted_slope == rep.predicted_slope


def test_sweep_regular_profile_scales_like_inverse_dimension():
    rep = run_sweep(
        EnsembleConfig([[1.0]], (16, 32, 64, 128), trials=80, master_seed=5)
    )
    assert rep.predicted_slope == pytest.approx(-1.0)  # sigma = 0
    assert rep.slope == pytest.approx(-1.0, abs=0.3)


def test_sweep_no_support_has_no_prediction():
    rep = run_sweep(EnsembleConfig(NOSUPPORT3, (6, 12), trials=4, master_seed=3))
    assert rep.predicted_slope is None
    # the pattern forces an exact kernel, so smin vanishes identically
    assert max(rep.mean_smin) < 1e-12
    # a zero row: no support and no no-support splitting, but a valid sweep
    rep = run_sweep(EnsembleConfig([[1.0, 0.0], [0.0, 0.0]], (2, 4), trials=2))
    assert rep.predicted_slope is None
    assert max(rep.mean_smin) < 1e-12


def test_sweep_validates_config():
    with pytest.raises(ValueError):
        run_sweep(EnsembleConfig(ARROW, (), trials=5))
    with pytest.raises(ValueError):
        run_sweep(EnsembleConfig(ARROW, (8,), trials=1))
    with pytest.raises(ValueError, match="workers must be an integer >= 1"):
        run_sweep(EnsembleConfig(ARROW, (8,), trials=5, workers=0))


# the ids keep the wording these cases were first named with
@pytest.mark.parametrize(
    "sizes, trials, workers, message",
    [
        pytest.param((2.5, 4), 3, 1, r"sizes\[0\] must be an integer >= 1",
                     id="sizes0-3-1-sizes must be positive integers"),
        pytest.param((True, 4), 3, 1, r"sizes\[0\] must be an integer >= 1",
                     id="sizes1-3-1-sizes must be positive integers"),
        pytest.param((np.float64(4.0),), 3, 1, r"sizes\[0\] must be an integer >= 1",
                     id="sizes2-3-1-sizes must be positive integers"),
        pytest.param((4, 8), 2.5, 1, "trials must be an integer >= 2",
                     id="sizes3-2.5-1-trials must be an integer"),
        pytest.param((4, 8), True, 1, "trials must be an integer >= 2",
                     id="sizes4-True-1-trials must be an integer"),
        pytest.param((4, 8), 3, 1.5, "workers must be an integer >= 1",
                     id="sizes5-3-1.5-workers must be a positive integer"),
        pytest.param((4, 8), 3, True, "workers must be an integer >= 1",
                     id="sizes6-3-True-workers must be a positive integer"),
    ],
)
def test_sweep_rejects_non_integers(sizes, trials, workers, message):
    with pytest.raises(ValueError, match=message):
        run_sweep(EnsembleConfig(ARROW, sizes, trials=trials, workers=workers))


@pytest.mark.parametrize("seed", [1.7, True, "7", -1, np.int64(-1), None])
def test_sweep_rejects_a_bad_master_seed(monkeypatch, seed):
    # checked with the sizes, trials and workers, before any trial runs:
    # the trials would read 1.7 and True as 1 and "7" as 7
    def no_trial(*args):
        raise AssertionError("a trial ran before the seed was checked")

    monkeypatch.setattr(montecarlo, "_trial", no_trial)
    with pytest.raises(ValueError, match="master_seed must be an integer >= 0"):
        run_sweep(EnsembleConfig(ARROW, (4, 8), trials=3, master_seed=seed, workers=1))


def test_sweep_accepts_numpy_integers():
    expected = run_sweep(EnsembleConfig(ARROW, (4, 8), trials=3, master_seed=6, workers=2))
    rep = run_sweep(
        EnsembleConfig(
            ARROW, np.array([4, 8]), trials=np.int64(3), master_seed=np.uint8(6),
            workers=np.int32(2),
        )
    )
    assert rep.sizes == (4, 8) and rep.trials == 3
    assert rep.master_seed == 6 and type(rep.master_seed) is int
    assert np.array_equal(rep.smin, expected.smin)
