"""Closed-form answers for a matrix other than AS_n: the chained Bell functional."""

import math

import pytest

from helpers import chained_matrix, half_turn_fan
from shimony.matrices import lhv_bound_bruteforce
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
    """The oracle maximizes sum_i |w_i . v| over unit v, so it meets the same 2 cot(pi/2n)."""
    assert steering_lhs_bound_oracle(chained_matrix(n), half_turn_fan(n)) == pytest.approx(
        chained_lhs(n), rel=1e-12
    )
