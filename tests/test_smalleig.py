import math

import numpy as np
import pytest

from squeeze_dyn._smalleig import min_eig_sym2, min_eig_sym3, min_eig_sym3_entries


def test_min_eig_sym2_against_numpy():
    rng = np.random.default_rng(5)
    for _ in range(500):
        a, b, c = rng.normal(size=3) * rng.choice([1e-3, 1.0, 1e3])
        m = np.array([[a, b], [b, c]])
        assert abs(min_eig_sym2(a, b, c) - np.linalg.eigvalsh(m)[0]) <= 1e-12 * max(
            1.0, np.abs(m).max()
        )


def test_min_eig_sym3_against_numpy():
    rng = np.random.default_rng(6)
    for _ in range(500):
        a = rng.normal(size=(3, 3)) * rng.choice([1e-3, 1.0, 1e3])
        m = (a + a.T) / 2
        assert abs(min_eig_sym3(m) - np.linalg.eigvalsh(m)[0]) <= 1e-10 * max(
            1.0, np.abs(m).max()
        )


@pytest.mark.parametrize("diag", [0.0, 0.5, -3.0])
def test_min_eig_sym3_takes_the_diagonal_where_p_rounds_to_zero(diag):
    # a01**2 is the smallest subnormal, so off != 0 while p2/6 rounds to 0;
    # the true eigenvalue lies within 2.3e-162 of the diagonal
    a01 = 2.3e-162
    assert a01 * a01 > 0.0 and math.sqrt(2.0 * a01 * a01 / 6.0) == 0.0
    got = min_eig_sym3_entries(diag, a01, 0.0, diag, 0.0, diag)
    assert got == diag
    stacked = min_eig_sym3_entries(
        np.array([diag, 1.0]), a01, 0.0, np.array([diag, 2.0]), 0.0, np.array([diag, 3.0])
    )
    assert stacked[0] == diag
    assert abs(stacked[1] - 1.0) <= 1e-15  # Cardano's value, beside it


def test_min_eig_sym3_diagonal_and_degenerate():
    assert min_eig_sym3(np.diag([3.0, -1.0, 2.0])) == -1.0
    assert abs(min_eig_sym3(np.eye(3) * 0.7) - 0.7) <= 1e-15
    # doubly degenerate spectrum
    m = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
    assert abs(min_eig_sym3(m) - 1.0) <= 1e-12
