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
