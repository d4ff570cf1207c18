import math

import numpy as np
import pytest

from bernlab import _kernels


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(1234)


def test_zseq_head_against_direct_loop(rng):
    for _ in range(20):
        k = int(rng.integers(1, 50))
        J = int(rng.integers(1, 500))
        a = rng.random(J + k) + 0.01
        direct = sum(a[j] ** 2 for j in range(k)) + sum(
            (a[j] - a[j + k]) ** 2 for j in range(J))
        assert _kernels.zseq_norm_head(a, k, J) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("k,J", [(1, 1), (7, 300), (80, 47000)])
def test_zseq_head_within_gamma_of_fsum(k, J):
    # marginals' ZSequence.norm_sq charges the head gamma_{J+k+8} relative
    # rounding, whatever the summation order
    a = 1.0 / np.sqrt(np.arange(1.0, J + k + 1.0))
    exact = math.fsum([x * x for x in a[:k].tolist()]
                      + [(x - y) ** 2 for x, y in zip(a[:J].tolist(), a[k : J + k].tolist())])
    n = J + k + 8
    gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
    assert abs(_kernels.zseq_norm_head(a, k, J) - exact) <= gamma * exact


def test_segment_sum_random_against_direct_loop(rng):
    for _ in range(20):
        n = int(rng.integers(1, 200))
        u = rng.standard_normal(n)
        s = rng.standard_normal(n) * 0.1
        L = rng.integers(1, 50, size=n)
        direct = sum((u[i] + s[i] * j) ** 2 for i in range(n) for j in range(L[i]))
        assert _kernels.segment_square_sum(u, s, L) == pytest.approx(direct, rel=1e-12)


def test_segment_sum_against_direct_loop():
    u = np.array([1.0, -0.5])
    s = np.array([0.25, 0.5])
    L = np.array([4, 3])
    direct = sum((u[i] + s[i] * j) ** 2 for i in range(2) for j in range(L[i]))
    assert _kernels.segment_square_sum(u, s, L) == pytest.approx(direct)
