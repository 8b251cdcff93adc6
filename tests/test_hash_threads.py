"""A BLAS tier of ``LshIndex._table_keys`` gives the same keys on any number of threads.

A tier call of at least ``THREAD_HASH_MIN_ENTRIES`` rows x axes splits its
row blocks into one contiguous run per usable CPU and hashes the runs on
threads. Here the CPU count is patched to 2 and 3 (3 gives uneven runs) and
the gate to 0, so the split runs on a one-CPU machine too; the keys, tables,
snapshot bytes and errors must be those of the serial loop, and no thread
may outlive a call. One test patches the gate alone and reads the CPU count
from the affinity mask, so a run under ``taskset -c 0`` checks the serial path.
"""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from lshkit import BinaryLshIndex, BinaryLshParams, Dataset, RealLshIndex, RealLshParams, real_lsh, save_index
from lshkit.evaluation import make_index, parameter_sweep
from lshkit.real_lsh import HASH_BLOCK_ROWS
from test_hash_tiers import project_keys

DIM = 24
L = 3
TABLE_SLICES = [slice(lo, hi) for lo in range(L) for hi in range(lo + 1, L + 1)]
SIZES = [blocks * HASH_BLOCK_ROWS + extra for blocks in (1, 2, 3) for extra in (-1, 0, 1)]


def dataset(rows):
    return Dataset(rows.shape[1], ["a"], np.arange(len(rows)), np.zeros(len(rows), dtype=np.int64), rows)


def gaussian_index(kind, n):
    rows = np.random.default_rng(3).standard_normal((n, DIM)).astype(np.float32)
    params = RealLshParams(L, 4, w=2.0, seed=4) if kind == "real" else BinaryLshParams(L, 4, seed=4)
    family = RealLshIndex if kind == "real" else BinaryLshIndex
    return family.with_coefficients(dataset(rows), params)


@pytest.fixture(params=[2, 3])
def split(request, monkeypatch):
    """Force the split over ``request.param`` CPUs; log each pool made."""
    pools = []
    executor = real_lsh.ThreadPoolExecutor

    def logged(workers):
        pools.append(executor(workers))
        return pools[-1]

    monkeypatch.setattr(real_lsh, "THREAD_HASH_MIN_ENTRIES", 0)
    monkeypatch.setattr(real_lsh, "_usable_cpus", lambda: request.param)
    monkeypatch.setattr(real_lsh, "ThreadPoolExecutor", logged)
    return request.param, pools


def serial(monkeypatch, call):
    """``call()`` with one usable CPU, so every tier runs on the calling thread."""
    with monkeypatch.context() as patch:
        patch.setattr(real_lsh, "_usable_cpus", lambda: 1)
        return call()


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_split_keys_equal_the_serial_keys(kind, split, monkeypatch):
    cpus, pools = split
    for n in SIZES:
        index = gaussian_index(kind, n)
        values = index.dataset.vectors
        blocks = -(-n // HASH_BLOCK_ROWS)
        for tables in TABLE_SLICES:
            pools.clear()
            keys = index._table_keys(values, tables)
            assert [pool._max_workers for pool in pools] == ([min(cpus, blocks) - 1] if blocks > 1 else []), (n, tables)
            expected = serial(monkeypatch, lambda: index._table_keys(values, tables))
            assert keys.dtype == expected.dtype and np.array_equal(keys, expected), (n, tables)
            assert np.array_equal(keys, project_keys(index, values, tables)), (n, tables)


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_split_builds_equal_tables_and_snapshots(kind, split, monkeypatch, tmp_path):
    ds = gaussian_index(kind, 3 * HASH_BLOCK_ROWS + 5).dataset
    index = make_index(kind, ds, 5, 3, w=2.0, seed=9)
    expected = serial(monkeypatch, lambda: make_index(kind, ds, 5, 3, w=2.0, seed=9))
    assert split[1]  # the build did split
    for table, other in zip(index.bucket_tables, expected.bucket_tables, strict=True):
        for name in ("words", "offsets", "rows"):
            assert np.array_equal(getattr(table, name), getattr(other, name)), name
    save_index(index, tmp_path / "split.idx")
    save_index(expected, tmp_path / "serial.idx")
    assert (tmp_path / "split.idx").read_bytes() == (tmp_path / "serial.idx").read_bytes()


def test_an_overflow_in_a_worker_raises_the_serial_error(split, monkeypatch):
    """A real key of 1e30 x DIM / w reaches 2^63 in the last block, which a
    worker thread hashes: the same ValueError as the serial call and as
    ``project``'s keys. A decided level never reaches 2^63 behind a sound
    margin (the overflow is raised on the rows ``project`` hashes), so the
    float32 margin factor is patched to 0 here: the float32 tier then
    decides every finite row, and its overflow check runs in the worker."""
    rows = np.random.default_rng(5).standard_normal((3 * HASH_BLOCK_ROWS, DIM)).astype(np.float32)
    rows[-1] = 1e30
    axes = np.ones((1, 1, DIM), dtype=np.float32)
    index = RealLshIndex(RealLshParams(L=1, K=1, w=1.0), DIM, axes, np.zeros((1, 1)), [], dataset(rows))
    raised_on = []
    int64_keys = real_lsh._int64_keys

    def logged(levels, w):
        try:
            return int64_keys(levels, w)
        except ValueError:
            raised_on.append(threading.current_thread())
            raise

    monkeypatch.setattr(real_lsh, "_hash_margin32", lambda d: 0.0)
    monkeypatch.setattr(real_lsh, "_int64_keys", logged)
    with pytest.raises(ValueError) as project_error:
        project_keys(index, rows)
    raised_on.clear()
    with pytest.raises(ValueError) as serial_error:
        serial(monkeypatch, lambda: index._table_keys(rows))
    assert raised_on == [threading.main_thread()]
    with pytest.raises(ValueError) as split_error:
        index._table_keys(rows)
    assert raised_on[1] is not threading.main_thread()
    assert str(split_error.value) == str(serial_error.value) == str(project_error.value)
    assert "overflows int64" in str(split_error.value)


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_a_split_call_still_runs_each_tier_once(kind, split, monkeypatch):
    """Margin factor 2 opens every row of the float32 tier (see
    ``tests/test_hash_tiers.py``): one float32 call, one float64 call."""
    monkeypatch.setattr(real_lsh, "_hash_margin32", lambda d: 2.0)
    reached = []
    tier_keys = real_lsh.LshIndex._tier_keys

    def spy(self, values, norms, axes, factor, tables):
        keys, rows = tier_keys(self, values, norms, axes, factor, tables)
        reached.append((axes.dtype, len(values), len(rows)))
        return keys, rows

    monkeypatch.setattr(real_lsh.LshIndex, "_tier_keys", spy)
    index = gaussian_index(kind, 3 * HASH_BLOCK_ROWS)
    n = len(index.dataset)
    keys = index._table_keys(index.dataset.vectors)
    assert reached == [(np.float32, n, n), (np.float64, n, 0)]
    assert np.array_equal(keys, project_keys(index, index.dataset.vectors))


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_no_thread_outlives_a_build(kind, split):
    ds = gaussian_index(kind, 3 * HASH_BLOCK_ROWS).dataset
    before = threading.active_count()
    make_index(kind, ds, 5, 3, w=2.0, seed=9)
    assert split[1]
    assert not any(thread.is_alive() for pool in split[1] for thread in pool._threads)
    assert threading.active_count() == before


def test_a_split_call_never_holds_the_whole_product(split):
    """The bound of ``tests/test_float32_hashing.py`` with the split forced:
    20k x 128 float32 rows, binary L=10, K=12, peak below a quarter of the
    (n, L K) float64 product."""
    n, tables, K = 20_000, 10, 12
    rng = np.random.default_rng(5)
    ds = Dataset(128, ["a"], np.arange(n), np.zeros(n, dtype=np.int64), rng.standard_normal((n, 128)).astype(np.float32))
    index = BinaryLshIndex.with_coefficients(ds, BinaryLshParams(tables, K, seed=6))
    ds.norms
    tracemalloc.start()
    try:
        index._table_keys(ds.vectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert split[1]
    assert peak < n * tables * K * 8 / 4


def test_the_sweep_benchmark_shapes_start_no_thread(monkeypatch):
    """Below the gate no pool is made: a 20k x 128 real L=8, K=3 build and a
    4 x 3 parameter_sweep over it, with two usable CPUs."""

    def refuse(workers):
        raise AssertionError(f"a {workers}-thread pool was started below the gate")

    monkeypatch.setattr(real_lsh, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(real_lsh, "ThreadPoolExecutor", refuse)
    rng = np.random.default_rng(8)
    n, classes = 20_000, 100
    label_ids = rng.integers(0, classes, n)
    vectors = (rng.standard_normal((classes, 128))[label_ids] + rng.standard_normal((n, 128))).astype(np.float32)
    ds = Dataset(128, [f"c{i}" for i in range(classes)], np.arange(n), label_ids, vectors)
    before = threading.active_count()
    make_index("real", ds, 8, 3, w=4.0, seed=1)
    parameter_sweep(ds, (2, 4, 8, 16), (2, 3, 4), "real", query_ids=list(range(0, n, 1000)), w=4.0, seed=1)
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity mask on this platform")
@pytest.mark.parametrize("kind", ["real", "binary"])
def test_the_real_affinity_mask_decides_the_split(kind, monkeypatch):
    """Only the gate is patched (to 0); the CPU count is this process's
    affinity mask, so under ``taskset -c 0`` no pool starts. A pool of
    min(usable CPUs, blocks) - 1 workers starts exactly when the mask holds
    two CPUs or more, the keys are the serial ones, and no thread outlives
    the call."""
    pools = []
    executor = real_lsh.ThreadPoolExecutor

    def logged(workers):
        pools.append(executor(workers))
        return pools[-1]

    monkeypatch.setattr(real_lsh, "THREAD_HASH_MIN_ENTRIES", 0)
    monkeypatch.setattr(real_lsh, "ThreadPoolExecutor", logged)
    cpus = len(os.sched_getaffinity(0))
    index = gaussian_index(kind, 3 * HASH_BLOCK_ROWS)
    values = index.dataset.vectors
    before = threading.active_count()
    keys = index._table_keys(values)
    assert [pool._max_workers for pool in pools] == ([min(cpus, 3) - 1] if cpus >= 2 else [])
    assert not any(thread.is_alive() for pool in pools for thread in pool._threads)
    assert threading.active_count() == before
    expected = serial(monkeypatch, lambda: index._table_keys(values))
    assert keys.dtype == expected.dtype and np.array_equal(keys, expected)
