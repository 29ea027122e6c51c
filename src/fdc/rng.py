"""Counter-based deterministic random generator (splitmix64 streams).

Every random quantity in the package is a pure function of
``(seed, tag, index)``: a 64-bit seed, a small integer stream tag naming the
purpose of the draw, and the draw index.  Draw i never consumes state from draw
j, so batched/parallel generation is bit-identical to serial generation, and
re-running any experiment with the same seed reproduces it byte for byte.

The mixer is splitmix64 applied to a combined counter; tags and indices are
separated by large odd constants so distinct streams do not collide.

Arrays are generated in blocks of ``BLOCK`` values, so each block and the
temporaries of its mixing steps stay in cache instead of streaming the whole
array through memory once per step.  Each value depends on its own index
alone, so the block size cannot change a single value.

``raw_u64``, ``uniform01`` and ``integers`` take the indices as an array or
as a ``range`` of consecutive indices (a counter range).  A range gives the
values of ``np.arange(start, stop)`` without forming that index array, one
block of indices at a time.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_TAG_STRIDE = np.uint64(0xBF58476D1CE4E5B9)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

BLOCK = 1 << 15  # 256 KiB of uint64 per block
_M64 = (1 << 64) - 1


def _splitmix64(x):
    """splitmix64 output for state x.  uint64 arithmetic wraps modulo 2^64;
    a uint64 array argument is overwritten with the result."""
    with np.errstate(over="ignore"):
        x += _GOLDEN
        x ^= x >> np.uint64(30)
        x *= _MIX1
        x ^= x >> np.uint64(27)
        x *= _MIX2
        x ^= x >> np.uint64(31)
        return x


def raw_u64(seed, tag, indices):
    """Vector of uniform uint64, one per index, for stream (seed, tag).
    ``indices`` is an array or a step-1 ``range``."""
    counters = isinstance(indices, range)
    if counters and indices.step != 1:
        raise ValueError("a counter range must have step 1")
    out = np.empty(len(indices) if counters else np.shape(indices), dtype=np.uint64)
    flat_out = out.reshape(-1)
    if not counters:
        flat_idx = np.asarray(indices, dtype=np.uint64).reshape(-1)
    with np.errstate(over="ignore"):
        base = np.uint64(seed & _M64) * _GOLDEN + np.uint64(tag) * _TAG_STRIDE
        for s in range(0, flat_out.size, BLOCK):
            x = flat_out[s:s + BLOCK]
            if counters:
                # Index start + s + j mixes from j * golden plus one offset,
                # taken mod 2^64 in Python ints: NumPy 1.x would take a
                # uint64 mixed with a Python int to float64.
                ix = np.arange(x.size, dtype=np.uint64)
                add = np.uint64(((indices.start + s) * int(_GOLDEN) + int(base)) & _M64)
            else:
                ix, add = flat_idx[s:s + BLOCK], base
            np.multiply(ix, _GOLDEN, out=x)
            x += add
            _splitmix64(x)
    return out


def uniform01(seed, tag, indices):
    """Uniform doubles in [0, 1), one per index (53-bit resolution)."""
    x = raw_u64(seed, tag, indices)
    x >>= np.uint64(11)
    u = x.astype(np.float64)
    u *= 2.0 ** -53
    return u


def integers(seed, tag, indices, high):
    """Uniform integers in [0, high), one per index.

    Uses modular reduction; the bias is < high/2^64 and irrelevant at any
    support size this package handles.  The result is an int64 view of the
    reduced uint64 values, all below high <= 2^63.  The remainder is taken
    as x - (x // high) * high, which equals x % high for unsigned x and runs
    about three times faster: NumPy's floor division by a scalar avoids a
    hardware division per element, its remainder does not.
    """
    x = raw_u64(seed, tag, indices)
    h = np.uint64(high)
    flat = x.reshape(-1)
    for s in range(0, flat.size, BLOCK):
        xb = flat[s:s + BLOCK]
        q = xb // h
        q *= h
        xb -= q
    return x.view(np.int64)


def normals(seed, tag, indices, cols=1):
    """Standard normals of shape (len(indices), cols) via Box-Muller.

    Each (index, column) pair gets its own substream, so the array is
    independent of batching.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    out = np.empty((idx.size, cols), dtype=np.float64)
    with np.errstate(over="ignore"):
        for c in range(cols):
            sub = np.uint64(2 * c)
            u1 = uniform01(seed, tag, idx * np.uint64(2 * cols) + sub)
            u2 = uniform01(seed, tag, idx * np.uint64(2 * cols) + sub + np.uint64(1))
            u1 = np.maximum(u1, 2.0 ** -53)
            out[:, c] = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return out


def derive_seed(seed, *parts):
    """Child seed for an independent purpose (e.g. per-trial seeds)."""
    x = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        for i, p in enumerate(parts):
            x = _splitmix64(
                x + np.uint64(int(p) & 0xFFFFFFFFFFFFFFFF) * _GOLDEN + np.uint64(i + 1))
    return int(x)
