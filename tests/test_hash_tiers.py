"""Each tier of ``LshIndex._table_keys`` gives ``project``'s keys on its own.

A large batch goes through the float32 BLAS tier, then the float64 BLAS
tier over the rows it leaves open, then ``project`` over the rest. On most
data the float32 tier decides nearly every row, so the float64 tier and
``project`` see few rows. Here a margin factor of 2 makes a tier decide
nothing (a projection is at most |v| |X| in size, and the margin is at least
2 |v| max |X|), so every row with a nonzero norm reaches the float64 tier,
or ``project``, and their keys must still be ``project``'s, bit for bit.
"""

import numpy as np
import pytest

from lshkit import BinaryLshIndex, BinaryLshParams, Dataset, RealLshIndex, RealLshParams, real_lsh
from lshkit.real_lsh import BLAS_HASH_MIN_ROWS, HASH_BLOCK_ROWS, project
from test_float32_hashing import overflow_rows, rounding_rows, sign_index, underflow_rows
from test_real_lsh import boundary_index, boundary_rows

DIM = 24
TABLE_SLICES = (slice(None), slice(0, 1), slice(1, 3))
# the margin factors that send every row past a tier
FORCED = {"float64": {"_hash_margin32": 2.0}, "project": {"_hash_margin32": 2.0, "_hash_margin": 2.0}}


def project_keys(index, values, tables=slice(None)):
    """The key words of ``project``'s dot products: what _table_keys returns."""
    axes = index._axes64[tables].reshape(-1, index.dim)
    proj = project(np.asarray(values, dtype=np.float64), axes).reshape(len(values), -1, index.params.K)
    return index._pack(index._quantize(proj, tables))


def dataset(rows):
    return Dataset(rows.shape[1], ["a"], np.arange(len(rows)), np.zeros(len(rows), dtype=np.int64), rows)


def gaussian_index(kind):
    """Both families over a 3 x HASH_BLOCK_ROWS Gaussian batch, L=3, K=4."""
    rows = np.random.default_rng(11).standard_normal((3 * HASH_BLOCK_ROWS, DIM)).astype(np.float32)
    params = RealLshParams(3, 4, w=2.0, seed=12) if kind == "real" else BinaryLshParams(3, 4, seed=12)
    family = RealLshIndex if kind == "real" else BinaryLshIndex
    return family.with_coefficients(dataset(rows), params)


@pytest.fixture(params=sorted(FORCED))
def forced(request, monkeypatch):
    """Patch the margin factors so that every row passes the tiers before
    ``request.param``; the rows that reach each BLAS tier are logged per call."""
    for name, factor in FORCED[request.param].items():
        monkeypatch.setattr(real_lsh, name, lambda d, factor=factor: factor)
    reached = []
    tier_keys = real_lsh.LshIndex._tier_keys

    def spy(self, values, norms, axes, factor, tables):
        keys, rows = tier_keys(self, values, norms, axes, factor, tables)
        reached.append((axes.dtype, len(values), len(rows)))
        return keys, rows

    monkeypatch.setattr(real_lsh.LshIndex, "_tier_keys", spy)
    return request.param, reached


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_each_tier_alone_gives_project_keys_on_gaussian_rows(kind, forced):
    tier, reached = forced
    index = gaussian_index(kind)
    values = index.dataset.vectors
    n = len(values)
    for tables in TABLE_SLICES:
        reached.clear()
        keys = index._table_keys(values, tables)
        expected = project_keys(index, values, tables)
        assert keys.dtype == expected.dtype and np.array_equal(keys, expected), tables
        # every row passed the float32 tier, and the float64 tier too when forced
        opened = n if tier == "project" else 0
        assert reached == [(np.float32, n, n), (np.float64, n, opened)], tables
        for batch in (BLAS_HASH_MIN_ROWS, HASH_BLOCK_ROWS + 1):
            for start in (0, n - batch):
                part = values[start : start + batch]
                assert np.array_equal(index._table_keys(part, tables), keys[start : start + batch]), (tables, batch)


@pytest.mark.parametrize("kind", ["real", "binary"])
def test_each_tier_alone_gives_project_keys_on_boundary_rows(kind, forced):
    index = boundary_index(kind)
    values = index.dataset.vectors
    for tables in TABLE_SLICES:
        keys = index._table_keys(values, tables)
        assert np.array_equal(keys, project_keys(index, values, tables)), tables
        assert np.array_equal(index._table_keys(values.astype(np.float64), tables), keys), tables
    for rows, scale in ((rounding_rows(), 1.0), (underflow_rows(), 0.7)):
        index = sign_index(kind, rows, scale)
        assert np.array_equal(index._table_keys(rows), project_keys(index, rows))


def test_each_tier_alone_raises_exactly_when_project_does(forced):
    """Real keys of rows whose levels reach 2^63 (float64-boundary rows with
    w = 2^-40) or whose float32 products overflow (w = 1e20), one row at a
    time in a batch of zero rows: ValueError exactly when project's keys
    raise it."""
    near = boundary_rows(2.0**23, 2.0**-29, seed=4, spots=20)
    cases = [(near, 2.0**-40), (overflow_rows()[::5], 1e20)]
    outcomes = set()
    for rows, w in cases:
        dim = rows.shape[1]
        axes = np.ones((1, 1, dim), dtype=np.float32)
        index = RealLshIndex(RealLshParams(L=1, K=1, w=w), dim, axes, np.zeros((1, 1)), [], dataset(rows))
        filler = np.zeros((BLAS_HASH_MIN_ROWS, dim), dtype=np.float32)
        for row in rows:
            batch = np.vstack([filler, row])
            try:
                expected = project_keys(index, batch)
            except ValueError:
                with pytest.raises(ValueError, match="overflows int64"):
                    index._table_keys(batch)
                outcomes.add("raised")
            else:
                assert np.array_equal(index._table_keys(batch), expected)
                outcomes.add("fits")
    assert outcomes == {"raised", "fits"}
