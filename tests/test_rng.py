import numpy as np
import pytest

from fdc import rng


def test_deterministic():
    a = rng.raw_u64(123, 1, np.arange(10))
    b = rng.raw_u64(123, 1, np.arange(10))
    np.testing.assert_array_equal(a, b)


def test_streams_distinct():
    a = rng.raw_u64(123, 1, np.arange(100))
    b = rng.raw_u64(123, 2, np.arange(100))
    c = rng.raw_u64(124, 1, np.arange(100))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_per_index_substreams_batch_invariant():
    whole = rng.uniform01(9, 5, np.arange(1000))
    parts = np.concatenate(
        [rng.uniform01(9, 5, np.arange(0, 137)),
         rng.uniform01(9, 5, np.arange(137, 640)),
         rng.uniform01(9, 5, np.arange(640, 1000))]
    )
    np.testing.assert_array_equal(whole, parts)


def test_uniform01_range_and_mean():
    u = rng.uniform01(7, 3, np.arange(200_000))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_integers_in_range():
    v = rng.integers(11, 4, np.arange(10_000), 7)
    assert v.min() >= 0 and v.max() < 7
    counts = np.bincount(v, minlength=7)
    assert counts.min() > 10_000 / 7 * 0.8


def test_normals_moments():
    z = rng.normals(5, 6, np.arange(100_000), cols=2)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02
    # column substreams independent of each other
    assert abs(np.corrcoef(z[:, 0], z[:, 1])[0, 1]) < 0.02


def test_derive_seed_children_differ():
    s = {rng.derive_seed(42, i) for i in range(100)}
    assert len(s) == 100


# Known answers.  The first is the published first splitmix64 output for
# seed 0; the arrays were written by the masked-arithmetic implementation
# this module started from, so a rewrite that changes one bit fails here.

def test_splitmix64_published_value():
    assert int(rng._splitmix64(0)) == 0xE220A8397B1DCDAF
    assert int(rng._splitmix64(np.uint64(0))) == 0xE220A8397B1DCDAF


def test_raw_u64_known_answers():
    np.testing.assert_array_equal(
        rng.raw_u64(123, 1, np.arange(5)),
        np.array([0xB383C1615F39B87C, 0xE1EF98DD1A06C046, 0x363D9F5D9A69FBC5,
                  0x5FA8398EF5C02C09, 0x31703444B90388A0], dtype=np.uint64))
    idx = np.array([0, 1, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)
    np.testing.assert_array_equal(
        rng.raw_u64(2 ** 64 - 1, 255, idx),
        np.array([0xC0B7DA9F7D4E113F, 0x45627523EFA01DD8, 0x9129737133A0CE22,
                  0xADED126AE9CA2D15], dtype=np.uint64))


def test_uniform01_known_answers():
    assert rng.uniform01(7, 3, np.arange(4)).tolist() == [
        0.6701618832686673, 0.43985349872420154, 0.6592755521947281,
        0.07756689513050952]


def test_integers_known_answers():
    v = rng.integers(11, 4, np.arange(8), 7)
    assert v.dtype == np.int64
    assert v.tolist() == [5, 0, 1, 2, 2, 0, 2, 6]
    assert rng.integers(5, 2, np.arange(4), 2 ** 62 + 3).tolist() == [
        2671090852105724899, 456470817513067319, 3131343758991400949,
        3333971929306083062]


def test_normals_known_answers():
    assert rng.normals(5, 6, np.arange(3), cols=2).tolist() == [
        [-0.10670247180097613, -0.06354390811643063],
        [-1.4016822415735042, -0.10950662137849015],
        [0.01226284909315313, -0.013638321476916376]]


def test_derive_seed_known_answers():
    assert rng.derive_seed(0) == 0
    assert rng.derive_seed(42, 1, 0) == 6301647557345736178
    assert rng.derive_seed(2 ** 64 - 1, -1, 7, 2 ** 70) == 7393540024656356068


def test_caller_indices_untouched():
    idx = np.arange(6, dtype=np.uint64)
    rng.raw_u64(3, 1, idx)
    rng.integers(3, 1, idx, 5)
    np.testing.assert_array_equal(idx, np.arange(6, dtype=np.uint64))


# Blocked generation against a per-element Python-int splitmix64.

_M64 = 2 ** 64 - 1
_G = 0x9E3779B97F4A7C15


def _ref_u64(seed, tag, i):
    x = ((seed & _M64) * _G + tag * 0xBF58476D1CE4E5B9 + i * _G + _G) & _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _block_cases():
    """(name, index array) pairs: a strided view and an offset range, each
    at sizes around the block length."""
    B = rng.BLOCK
    n_max = 3 * B + 7
    strided = (np.arange(2 * n_max, dtype=np.uint64) * np.uint64(5)).reshape(-1, 2)[:, 1]
    assert not strided.flags.c_contiguous
    offset = np.arange(2 ** 40, 2 ** 40 + n_max, dtype=np.uint64)
    for name, idx in (("strided", strided), ("offset", offset)):
        for n in (0, 1, B - 1, B, B + 1, n_max):
            yield name, idx, n


def test_blocked_generation_matches_per_element_reference():
    seed, tag = 2 ** 64 - 3, 17
    refs = {}
    for name, idx, n in _block_cases():
        if name not in refs:
            refs[name] = [_ref_u64(seed, tag, int(i)) for i in idx]
        ref = refs[name][:n]
        sub = idx[:n]
        raw = rng.raw_u64(seed, tag, sub)
        assert raw.shape == (n,) and raw.dtype == np.uint64
        assert raw.tolist() == ref
        assert rng.uniform01(seed, tag, sub).tolist() == [(x >> 11) * 2.0 ** -53 for x in ref]
        for high in (1, 7, 100_000, 2 ** 63):
            v = rng.integers(seed, tag, sub, high)
            assert v.dtype == np.int64
            assert v.tolist() == [x % high for x in ref]


# Counter ranges: the values of the index array np.arange(start, stop).

@pytest.mark.parametrize("start, n", [
    (0, 0),                                      # empty
    (5, 3 * rng.BLOCK + 7),                      # several block boundaries
    (2 ** 63 - rng.BLOCK - 2, 2 * rng.BLOCK + 5),  # across 2^63
])
def test_counter_range_matches_index_array(start, n):
    counters = range(start, start + n)
    idx = np.arange(start, start + n, dtype=np.uint64)
    assert idx.size == n
    seed, tag = 2 ** 64 - 3, 17
    for make in (lambda i: rng.raw_u64(seed, tag, i),
                 lambda i: rng.uniform01(seed, tag, i),
                 lambda i: rng.integers(seed, tag, i, 7),
                 lambda i: rng.integers(seed, tag, i, 2 ** 63)):
        got, want = make(counters), make(idx)
        assert got.dtype == want.dtype and got.shape == want.shape == (n,)
        np.testing.assert_array_equal(got, want)


def test_counter_range_needs_step_one():
    with pytest.raises(ValueError):
        rng.raw_u64(1, 2, range(0, 10, 2))
