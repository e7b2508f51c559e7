"""The reduction kernels follow their documented operation order exactly, so
results are stable bit for bit across repeated runs and array layouts."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfu import _kernels


def reference_tree(values) -> float:
    """The documented cascade in plain Python: pad with zeros to a power of
    two, then add adjacent pairs level by level."""
    level = [float(v) for v in values]
    if not level:
        return 0.0
    level += [0.0] * ((1 << (len(level) - 1).bit_length()) - len(level))
    while len(level) > 1:
        level = [level[i] + level[i + 1] for i in range(0, len(level), 2)]
    return level[0]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 1000, 65536])
def test_cascade_matches_reference_tree(n):
    rng = np.random.default_rng(n + 1)
    data = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, size=n)
    assert _kernels.cascade_sum(data) == reference_tree(data)


def test_cascade_matches_fsum_closely():
    rng = np.random.default_rng(7)
    data = rng.standard_normal(100000)
    exact = math.fsum(data)
    assert abs(_kernels.cascade_sum(data) - exact) <= 1e-12 * max(1.0, abs(exact))


def seeded_floats(n, seed, exponent):
    """n same-sign floats of scale 10^exponent, where rounding errors add up."""
    return list(np.random.default_rng(seed).random(n) * 10.0**exponent)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(
    st.one_of(
        st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=1100),
        st.builds(seeded_floats, st.integers(1, 5000), st.integers(0, 2**32 - 1), st.integers(-300, 299)),
    )
)
@example([1e300, 1.0, -1e300])
@example([0.1] * 1025)
def test_cascade_error_within_pairwise_bound(values):
    # Higham: a depth-k pairwise sum errs by at most gamma_k sum |x|, k = ceil(log2 n);
    # gamma_{k+1} also absorbs the roundings of the fsum reference
    u = 2.0**-53
    m = max(len(values) - 1, 0).bit_length() + 1
    gamma = m * u / (1 - m * u)
    error = abs(_kernels.cascade_sum(np.array(values, dtype=np.float64)) - math.fsum(values))
    assert error <= gamma * math.fsum(map(abs, values))


def test_cascade_repeat_bit_identical():
    rng = np.random.default_rng(3)
    data = rng.standard_normal(12345)
    assert _kernels.cascade_sum(data) == _kernels.cascade_sum(data.copy())


def test_cascade_zero_padding_is_neutral():
    data = np.array([1e100, 1.0, -1e100])
    padded = np.concatenate([data, [0.0]])
    # padding to the power of two is what the kernel does internally
    assert _kernels.cascade_sum(data) == _kernels.cascade_sum(padded)


@pytest.mark.parametrize("threshold", [0.0, -1.0, 0.5, 2.49, 2.5, 10.0])
def test_prefix_count_semantics(threshold):
    masses = np.array([1.0, 0.75, 0.5, 0.25])
    acc, expected = 0.0, -1
    if threshold <= 0:
        expected = 0
    else:
        for i, m in enumerate(masses):
            acc += m
            if acc >= threshold:
                expected = i + 1
                break
    assert _kernels.prefix_count(masses, threshold) == expected


def test_cumsum_is_sequential_accumulation():
    # prefix_count builds on np.cumsum being a plain left-to-right accumulation
    rng = np.random.default_rng(5)
    data = rng.standard_normal(2048) * 10.0 ** rng.integers(-6, 6, size=2048)
    seq = np.array(list(itertools.accumulate(data)))
    assert np.array_equal(np.cumsum(data), seq)
