"""Enumeration kernels against an itertools.product brute force."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_unit_rows
from shimony import _kernels
from shimony.catalog import catalog_directions
from shimony.matrices import build_as_matrix


def all_assignments(n):
    # itertools.product varies the last setting fastest, with -1 first: row t
    # is the assignment with enumeration index t.
    return np.array(list(itertools.product((-1, 1), repeat=n)), dtype=np.int64)


def reference_lhv(m):
    values = np.abs(all_assignments(len(m)) @ m).sum(axis=1)
    index = int(np.argmax(values))
    return int(values[index]), index


def reference_steering(m, bob, tie_tol=_kernels.STEERING_TIE_TOL):
    norms = np.linalg.norm((all_assignments(len(m)) @ m).astype(np.float64) @ bob, axis=1)
    index = int(np.nonzero(norms >= norms.max() - tie_tol)[0][0])
    return float(norms[index]), index


def random_int_matrix(rng, n):
    """Integer matrix with a planted zero row and a planted duplicate row."""
    m = rng.integers(-4, 5, size=(n, n))
    m[rng.integers(n)] = 0
    if n > 1:
        i, j = rng.choice(n, size=2, replace=False)
        m[i] = m[j]
    return m


def bob_set(rng, n, kind):
    bob = random_unit_rows(rng, n)
    if kind == "coplanar":
        bob[:, 2] = 0.0
        bob /= np.linalg.norm(bob, axis=1, keepdims=True)
    elif kind == "repeated":
        bob[:] = bob[0]
    elif kind == "antipodal":
        bob[1::2] = -bob[: n // 2]
    return bob


def assert_lhv_matches(m):
    value, index = _kernels.lhv_max(m)
    assert (value, index) == reference_lhv(m)
    assert index < 1 << (len(m) - 1)


def assert_steering_matches(m, bob, tie_tol=_kernels.STEERING_TIE_TOL):
    value, index = _kernels.steering_max(m, bob, tie_tol)
    ref_value, ref_index = reference_steering(m, bob, tie_tol)
    assert index == ref_index
    assert value == pytest.approx(ref_value, abs=1e-9)
    assert index < 1 << (len(m) - 1)


@pytest.mark.parametrize("n", range(2, 14, 2))
def test_lhv_matches_reference_on_as(n):
    assert_lhv_matches(build_as_matrix(n))


@pytest.mark.parametrize("n", range(1, 13))
def test_lhv_matches_reference_on_random_matrices(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        assert_lhv_matches(random_int_matrix(rng, n))


def test_lhv_wide_entries_take_the_int64_path():
    # Column sums reach 2**34 here, past int32.
    m = np.full((4, 4), 1 << 30, dtype=np.int64)
    m[0, 1] = -(1 << 30)
    assert_lhv_matches(m)
    assert _kernels.lhv_max(m)[0] > np.iinfo(np.int32).max


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_steering_matches_reference_on_catalog(n):
    assert_steering_matches(build_as_matrix(n), catalog_directions(n).bob_directions)


@pytest.mark.parametrize("kind", ["random", "coplanar", "repeated", "antipodal"])
@pytest.mark.parametrize("n", range(1, 13))
def test_steering_matches_reference(n, kind):
    rng = np.random.default_rng(1000 * n + len(kind))
    matrices = [random_int_matrix(rng, n)]
    if n % 2 == 0:
        matrices.append(build_as_matrix(n))
    for m in matrices:
        assert_steering_matches(m, bob_set(rng, n, kind))


@pytest.mark.parametrize("tie_tol", [0.5, 2.0])
def test_steering_returns_smallest_index_within_tie_tol(tie_tol):
    # A wide tolerance makes many near-maximal assignments count as ties,
    # so the witness is rarely the exact argmax.
    rng = np.random.default_rng(17)
    for n in (3, 6, 9, 12):
        assert_steering_matches(random_int_matrix(rng, n), bob_set(rng, n, "random"), tie_tol)


@pytest.mark.parametrize("block", [1, 4, 64])
def test_results_do_not_depend_on_block_size(monkeypatch, block):
    monkeypatch.setattr(_kernels, "_BLOCK_ASSIGNMENTS", block)
    rng = np.random.default_rng(block)
    for n in (1, 2, 5, 8, 11):
        m = random_int_matrix(rng, n)
        assert_lhv_matches(m)
        for kind in ("random", "repeated", "antipodal"):
            assert_steering_matches(m, bob_set(rng, n, kind))


@st.composite
def kernel_inputs(draw):
    n = draw(st.integers(1, 8))
    m = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n)))
    # Small integer directions give exact ties, repeats, antipodes and
    # coplanar sets often.
    raw = draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * 3).filter(any), min_size=n, max_size=n
        )
    )
    bob = np.array(raw, dtype=np.float64)
    return m.reshape(n, n), bob / np.linalg.norm(bob, axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
def test_kernels_match_reference_property(inputs):
    m, bob = inputs
    assert_lhv_matches(m)
    assert_steering_matches(m, bob)


def test_lhv_tie_break_prefers_smallest_index():
    # Every assignment of [[0,1],[1,0]] scores 2; the all -1 assignment
    # (index 0) must win. With n = 1 both assignments tie as well.
    assert _kernels.lhv_max(np.array([[0, 1], [1, 0]])) == (2, 0)
    assert _kernels.lhv_max(np.array([[3]])) == (3, 0)
    assert _kernels.lhv_max(np.zeros((1, 1), dtype=np.int64)) == (0, 0)


def test_steering_tie_break_prefers_smallest_index():
    m = build_as_matrix(2)
    bob = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    value, index = _kernels.steering_max(m, bob)
    assert index == 0
    assert value == pytest.approx(2.0, abs=1e-12)
    assert _kernels.steering_max(np.array([[-2]]), np.array([[0.0, 1.0, 0.0]])) == (2.0, 0)
    assert _kernels.steering_max(np.zeros((1, 1), dtype=np.int64), bob[:1]) == (0.0, 0)


def test_backend_name_consistent_with_dispatch():
    # numpy is the only backend the kernels dispatch to.
    assert _kernels.backend_name() == "numpy"
