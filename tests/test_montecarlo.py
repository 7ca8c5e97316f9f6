"""Tests for the random-matrix sampler and the scaling-law sweep."""

import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
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


def test_sample_peak_memory_is_two_complex_matrices():
    # The sample, plus the real buffer its Gaussians are drawn into and the
    # real scale mask, each half a complex matrix.
    dim = 512
    rng = _rng(9)
    tracemalloc.start()
    try:
        sample_block_hermitian(ARROW, dim // 2, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 16 * dim**2


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


def test_sweep_restores_blas_threads_when_a_trial_raises(blas, monkeypatch):
    getter, setter = blas

    def fail(h):
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
        "print(m._blas_threads.cache_info().currsize)"
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
    with pytest.raises(ValueError, match="workers must be a positive integer"):
        run_sweep(EnsembleConfig(ARROW, (8,), trials=5, workers=0))
