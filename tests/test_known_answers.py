"""Closed-form answers for matrices other than AS_n: the chained Bell functional and
platonic axis sets with m = identity."""

import math

import numpy as np
import pytest

from helpers import (
    bracketed,
    chained_matrix,
    cube_diagonals,
    dodecahedron_axes,
    half_turn_fan,
    icosahedron_axes,
)
from shimony.matrices import lhv_bound_bruteforce
from shimony.seesaw import multistart_seesaw
from shimony.steering import steering_lhs_bound, steering_lhs_bound_oracle


def chained_lhs(n: int) -> float:
    return 2 / math.tan(math.pi / (2 * n))


@pytest.mark.parametrize("n", range(2, 25))
def test_chained_lhv_bound_is_2n_minus_2(n):
    """C_LHV = 2n - 2: the 2n terms +-A_i B_j use each A_i and B_j twice and one sign is minus,
    so they multiply to -1, at least one term is -1, and A = B = all +1 attains that."""
    assert lhv_bound_bruteforce(chained_matrix(n)).value == 2 * n - 2


@pytest.mark.parametrize("n", [*range(2, 12), 40, 99, 100, 300])
def test_chained_sweep_on_the_half_turn_fan(n):
    """C_LHS = 2 cot(pi/2n): the rows b_k + b_(k-1) and b_0 - b_(n-1) have norm 2 cos(pi/2n)
    on n lines pi/n apart, and the best signs make n consecutive unit vectors, of sum 1/sin(pi/2n)."""
    assert steering_lhs_bound(chained_matrix(n), half_turn_fan(n)).value == pytest.approx(
        chained_lhs(n), rel=1e-12
    )


@pytest.mark.parametrize("n", [*range(2, 12), 40, 99, 100])
def test_chained_oracle_on_the_half_turn_fan(n):
    """The oracle maximizes sum_i |w_i . v| over unit v, so it meets the same 2 cot(pi/2n),
    and its search ends within 1e-12 of it, relative."""
    oracle = steering_lhs_bound_oracle(chained_matrix(n), half_turn_fan(n))
    assert oracle.lower == pytest.approx(chained_lhs(n), rel=1e-12)
    assert oracle.upper <= oracle.lower * (1 + 1e-12)


@pytest.mark.parametrize("n", range(2, 11))
def test_chained_seesaw_reaches_the_quantum_maximum(n):
    """Q = 2n cos(pi/2n) (Wehner, PRA 73, 022110, 2006): the maximum over Bob sets of
    sum_i ||(m @ b)_i||, which the half-turn fan attains with every row of norm 2 cos(pi/2n)."""
    value = multistart_seesaw(chained_matrix(n), restarts=16, seed=0).value
    assert value == pytest.approx(2 * n * math.cos(math.pi / (2 * n)), rel=1e-9)


def test_two_orthogonal_axes():
    """C_LHS/k = 1/sqrt(2): for orthonormal d_1, d_2 and unit v, Cauchy-Schwarz gives
    |d_1 . v| + |d_2 . v| <= sqrt(2), met at v = (d_1 + d_2)/sqrt(2)."""
    assert_axes_bound(np.eye(3)[:2], 1 / math.sqrt(2))


def test_three_orthogonal_axes():
    """C_LHS/k = 1/sqrt(3): sum_i (d_i . v)^2 = 1 for an orthonormal basis, so Cauchy-Schwarz
    gives sum_i |d_i . v| <= sqrt(3), met at v = (1, 1, 1)/sqrt(3)."""
    assert_axes_bound(np.eye(3), 1 / math.sqrt(3))


def test_cube_diagonals():
    """C_LHS/k = 1/sqrt(3): the 4 diagonals give sum_i (d_i . v)^2 = 4/3, so Cauchy-Schwarz
    gives sum_i |d_i . v| <= 4/sqrt(3), met at v = (1, 0, 0), where every |d_i . v| = 1/sqrt(3)."""
    assert_axes_bound(cube_diagonals(), 1 / math.sqrt(3))


def test_icosahedron_axes():
    """C_LHS/k = (1 + sqrt(5))/6: the support function sum_i |d_i . v| peaks on an axis, where
    the other 5 axes lie at |cos| = 1/sqrt(5), so it is 1 + 5/sqrt(5) = 1 + sqrt(5)."""
    assert_axes_bound(icosahedron_axes(), (1 + math.sqrt(5)) / 6)


def test_dodecahedron_axes():
    """C_LHS/k = (3 + sqrt(5))/10: the support function peaks on an axis, where the other 9
    lie at |cos| = sqrt(5)/3 (3 of them) and 1/3 (6), so it is 1 + sqrt(5) + 2 = 3 + sqrt(5)."""
    assert_axes_bound(dodecahedron_axes(), (3 + math.sqrt(5)) / 10)


def assert_axes_bound(axes, expected):
    """The sweep and the oracle, with m = identity, both give C_LHS = k * expected within 1e-12:
    w = m @ axes is the axes, so C_LHS = max over unit v of sum_i |d_i . v|."""
    m = np.eye(len(axes), dtype=np.int64)
    sweep, oracle = steering_lhs_bound(m, axes), steering_lhs_bound_oracle(m, axes)
    assert sweep.value / len(axes) == pytest.approx(expected, rel=1e-12)
    assert oracle.lower / len(axes) == pytest.approx(expected, rel=1e-12)
    assert bracketed(oracle, sweep)
