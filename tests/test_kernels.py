"""The LHV kernel and the steering vertex search against brute-force references.

Two references: an itertools.product brute force, and `steering_max`, the
2**n meet-in-the-middle steering kernel that the vertex search replaced,
kept here unchanged as the reference for n <= 20.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_unit_rows
from shimony import _kernels, steering
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


def reference_steering(m, bob, tie_tol=steering.STEERING_TIE_TOL):
    norms = np.linalg.norm((all_assignments(len(m)) @ m).astype(np.float64) @ bob, axis=1)
    index = int(np.nonzero(norms >= norms.max() - tie_tol)[0][0])
    return float(norms[index]), index


def steering_max(
    m: np.ndarray, bob: np.ndarray, tie_tol: float = steering.STEERING_TIE_TOL
) -> tuple[float, int]:
    """Max over assignments of ||sum_j c_j b_j||, smallest index within tie_tol."""
    w = np.asarray(m, dtype=np.float64) @ np.asarray(bob, dtype=np.float64)
    high, low, lo = _kernels._halves(w)
    step = max(1, _kernels._BLOCK_ASSIGNMENTS >> lo)
    starts = range(0, high.shape[1], step)

    def block_norms(start: int) -> np.ndarray:
        r = high[:, start : start + step, None] + low[:, None, :]
        r *= r
        return np.sqrt(r.sum(axis=0)).ravel()

    # Pass 1 records each block's maximum; pass 2 rescans only the first
    # block that reaches the tie threshold, which holds the smallest index.
    block_best = [float(block_norms(start).max()) for start in starts]
    threshold = max(block_best) - tie_tol
    for start, value in zip(starts, block_best):
        if value >= threshold:
            norms = block_norms(start)
            k = int(np.nonzero(norms >= threshold)[0][0])
            return float(norms[k]), (start << lo) + k
    raise AssertionError("maximum vanished between passes")


def vertex_max(m, bob) -> tuple[float, int]:
    """The vertex search's witness on w = m @ bob: its norm and enumeration index."""
    m = np.asarray(m)
    alice = steering._lhs_witness(m.astype(np.float64) @ np.asarray(bob, dtype=np.float64))
    assert alice.dtype == np.int64 and np.all(np.abs(alice) == 1)
    index = int("".join("1" if a > 0 else "0" for a in alice), 2)
    return float(np.linalg.norm((alice @ m).astype(np.float64) @ bob)), index


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


def assert_steering_matches(m, bob, tie_tol=steering.STEERING_TIE_TOL, brute_force=True):
    value, index = vertex_max(m, bob)
    kernel_value, kernel_index = steering_max(m, bob, tie_tol)
    assert index == kernel_index
    assert value == pytest.approx(kernel_value, abs=1e-9)
    if brute_force:
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
def test_steering_returns_smallest_index_within_tie_tol(monkeypatch, tie_tol):
    # A wide tolerance makes many near-maximal assignments count as ties,
    # so the witness is rarely the exact argmax.
    monkeypatch.setattr(steering, "STEERING_TIE_TOL", tie_tol)
    rng = np.random.default_rng(17)
    for n in (3, 6, 9, 12):
        assert_steering_matches(random_int_matrix(rng, n), bob_set(rng, n, "random"), tie_tol)


@pytest.mark.parametrize("block", [1, 4, 64])
def test_results_do_not_depend_on_block_size(monkeypatch, block):
    monkeypatch.setattr(_kernels, "_BLOCK_ASSIGNMENTS", block)
    monkeypatch.setattr(steering, "_BLOCK_ENTRIES", block)
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
    value, index = vertex_max(m, bob)
    assert index == 0
    assert value == pytest.approx(2.0, abs=1e-12)
    assert vertex_max(np.array([[-2]]), np.array([[0.0, 1.0, 0.0]])) == (2.0, 0)
    assert vertex_max(np.zeros((1, 1), dtype=np.int64), bob[:1]) == (0.0, 0)


def test_backend_name_consistent_with_dispatch():
    # numpy is the only backend the kernels dispatch to.
    assert _kernels.backend_name() == "numpy"


@st.composite
def degenerate_inputs(draw):
    """Steering inputs with n up to 20 and every degeneracy the vertex search merges or skips.

    Rows of m may be zero, repeated, negated or doubled (parallel and
    antiparallel rows of w); rows e_j - e_k over Bob directions 1e-14 or
    1e-13 apart give rows of w of about that norm. Bob's set is random,
    coplanar, collinear (+-b), repeated (one direction), clustered within
    1e-7 to 1e-11 of one direction (nearly parallel rows that are not
    merged) or drawn from small integer vectors, which makes exact ties and
    coplanar triples common.
    """
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(-3, 4, size=(n, n))
    for _ in range(draw(st.integers(0, 3))):
        i, j = rng.integers(n, size=2)
        m[i] = draw(st.sampled_from([0, 1, -1, 2])) * m[j]
    kinds = ["random", "coplanar", "collinear", "repeated", "clustered", "integer"]
    kind = draw(st.sampled_from(kinds))
    if kind == "integer":
        bob = rng.integers(-2, 3, size=(n, 3)).astype(np.float64)
        bob[~bob.any(axis=1)] = [0.0, 0.0, 1.0]
    else:
        bob = rng.standard_normal((n, 3))
        if kind == "coplanar":
            bob[:, 2] = 0.0
        elif kind == "collinear":
            bob = np.sign(rng.standard_normal((n, 1))) * bob[0]
        elif kind == "repeated":
            bob[:] = bob[0]
        elif kind == "clustered":
            bob = bob[0] + draw(st.sampled_from([1e-7, 1e-9, 1e-11])) * bob
    bob /= np.linalg.norm(bob, axis=1, keepdims=True)
    eye = np.eye(n, dtype=np.int64)
    for i in range(draw(st.integers(0, min(2, n // 2)))):
        gap = draw(st.sampled_from([1e-14, 1e-13]))
        bob[2 * i + 1] = bob[2 * i] + gap * random_unit_rows(rng, 1)[0]
        m[rng.integers(n)] = eye[2 * i] - eye[2 * i + 1]
    return m, bob


def test_nearly_antiparallel_rows_keep_both_signs():
    # The rows of w = m @ bob are about 2b and -4b, 3e-8 rad from antiparallel:
    # not merged, so the second row's in-plane sign comes from |u|**2 with
    # u = d_0 x d_1 of norm 3e-8, which 1 - (d_0 . d_1)**2 loses to rounding.
    m = np.array([[1, 1], [-3, -1]])
    bob = np.array([[-0.13493955, -0.79757853, 0.5879284], [-0.13493958, -0.79757853, 0.5879284]])
    bob /= np.linalg.norm(bob, axis=1, keepdims=True)
    assert_steering_matches(m, bob)
    assert vertex_max(m, bob)[0] == pytest.approx(6.0, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(degenerate_inputs())
def test_vertex_search_matches_kernel_on_degenerate_inputs(inputs):
    m, bob = inputs
    assert_steering_matches(m, bob, brute_force=len(m) <= 12)
