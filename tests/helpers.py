"""Small shared utilities for the test suite."""

import re
from decimal import Decimal, localcontext
from fractions import Fraction
from math import cos, sin, sqrt

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shimony import steering

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# (|01> - |10>) / sqrt(2)
SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0]) / sqrt(2.0)


def density_matrix(visibility: float) -> np.ndarray:
    """Explicit 4x4 Werner density matrix V |psi-><psi-| + (1 - V) I/4."""
    projector = np.outer(SINGLET_KET, SINGLET_KET)
    return visibility * projector + (1.0 - visibility) * np.eye(4) / 4.0


def spin_observable(direction) -> np.ndarray:
    """sigma . a for a Bloch direction a."""
    x, y, z = direction
    return x * PAULI_X + y * PAULI_Y + z * PAULI_Z


def correlation_density_matrix(a, b, visibility: float = 1.0) -> float:
    """The Werner correlation as the explicit trace tr[rho_V (sigma.a x sigma.b)].

    The independent check of `shimony.quantum.correlation` and
    `bell_quantum_value`, which compute the singlet's -(a . b) and share no
    code with this path; a Werner state of visibility V scales them by V.
    """
    observable = np.kron(spin_observable(a), spin_observable(b))
    return float(np.trace(density_matrix(visibility) @ observable).real)


def classical_value(m, alice, bob) -> int:
    """Exact sum_ij m[i][j] alice[i] bob[j] of two +-1 assignments, in int64."""
    a, m, b = (np.asarray(x, dtype=np.int64) for x in (alice, m, bob))
    return int(a @ m @ b)


def visibility_lhv_closed_form(n: int) -> float:
    """The paper's LHV visibility threshold of AS_N, 3 sqrt(N(N+2)) / (4(N+1))."""
    return 3 * sqrt(n * (n + 2)) / (4 * (n + 1))


def bloch_from_spherical(theta: float, phi: float) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t)."""
    return np.array([sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta)])


def random_rotation(rng) -> np.ndarray:
    """Haar-ish random rotation matrix via QR with a determinant fix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_unit_rows(rng, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def underflow_bob_set(rng, n: int) -> np.ndarray:
    """Random unit rows with directions 1 and 2 set to (1, 1e-300, 0) and (1, 0, 0).

    Both are unit within any tolerance, and AS_n's last row, b_1 - b_2, is
    then (0, 1e-300, 0): a nonzero row whose squares round to 0.
    """
    bob = random_unit_rows(rng, n)
    bob[0] = (1.0, 1e-300, 0.0)
    bob[1] = (1.0, 0.0, 0.0)
    return bob


def drawn_array(dtype, shape, elements):
    """Strategy: an array with every entry drawn from elements.

    No fill value, so most entries do not repeat one value: generic inputs
    stay as common as the random draws this replaces, and the degenerate
    ones come from what the strategies plant.
    """
    return arrays(dtype, shape, elements=elements, fill=st.nothing())


def direction_rows(k: int):
    """Strategy: a (k, 3) float array with components in [-1, 1], for scaled_to_unit."""
    return drawn_array(np.float64, (k, 3), st.floats(-1.0, 1.0))


# One row of direction_rows, as a tuple.
DIRECTION_ROW = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


def square_rows(draw, *row_extras, max_n: int = 20):
    """Draw an (n, n) integer matrix with entries in [-3, 3], n = 1..max_n, row by row.

    Each row is a tuple of a label, max_n entries and one value per strategy
    in row_extras; entry (i, j) is row i's entry at row j's label. Labels are
    distinct, so deleting a row deletes its column too and leaves every other
    entry and extra value where it was: the shrinker can remove rows, which
    it seldom manages when n is drawn first. The rows come from two lists,
    with labels below max_n // 2 and from it, so that n passes one list's
    typical length of about 6 more often; it still runs lower than a drawn
    n did. Every (n, n) matrix is reachable. Returns the matrix and, per
    extra strategy, its n values.
    """
    entries = st.tuples(*[st.integers(-3, 3)] * max_n)
    half = max_n // 2
    rows = []
    for labels, min_size in ((st.integers(0, half - 1), 1), (st.integers(half, max_n - 1), 0)):
        row = st.tuples(labels, entries, *row_extras)
        rows += draw(st.lists(row, min_size=min_size, max_size=half, unique_by=lambda r: r[0]))
    labels = [row[0] for row in rows]
    m = np.array([[row[1][label] for label in labels] for row in rows], dtype=np.int64)
    return (m, *(list(column) for column in list(zip(*rows))[2:]))


def scaled_to_unit(rows) -> np.ndarray:
    """rows over their norms; a row shorter than 1e-100, whose squares may underflow, is +x."""
    rows = np.array(rows, dtype=np.float64)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    short = norms[:, 0] < 1e-100
    rows[short], norms[short] = (1.0, 0.0, 0.0), 1.0
    return rows / norms


def regular_polygon_set(n: int) -> np.ndarray:
    """A coplanar regular n-gon of unit rows in the xy plane, drawing no random numbers."""
    t = 2 * np.pi * np.arange(n) / n
    return np.stack([np.cos(t), np.sin(t), np.zeros(n)], axis=1)


def entry_to_dict(entry) -> dict:
    """JSON-ready view of a catalog entry: {n, bob, alice, notes}."""
    return {
        "n": entry.n,
        "bob": [[float(x) for x in row] for row in entry.bob_directions],
        "alice": None
        if entry.alice_directions is None
        else [[float(x) for x in row] for row in entry.alice_directions],
        "notes": entry.notes,
    }


def chained_matrix(n: int) -> np.ndarray:
    """The chained Bell functional's n x n matrix: m_kk = m_{k+1,k} = 1, m_{1,n} = -1.

    Entries are 1-based as written; n = 2 is CHSH. Braunstein & Caves,
    Ann. Phys. 202, 22 (1990).
    """
    m = np.eye(n, dtype=np.int64) + np.eye(n, k=-1, dtype=np.int64)
    m[0, n - 1] = -1
    return m


def half_turn_fan(n: int) -> np.ndarray:
    """Bob's half-turn fan b_k = (sin(k pi/n), 0, cos(k pi/n)), k = 0..n-1."""
    t = np.pi * np.arange(n) / n
    return np.stack([np.sin(t), np.zeros(n), np.cos(t)], axis=1)


def _cyclic(rows) -> np.ndarray:
    """Each row followed by its cyclic shifts (z, x, y) and (y, z, x), as unit rows."""
    return scaled_to_unit(np.concatenate([np.roll(rows, s, axis=1) for s in range(3)]))


_PHI = (1 + 5**0.5) / 2


def cube_diagonals() -> np.ndarray:
    """The cube's 4 body diagonals (1, +-1, +-1) / sqrt(3)."""
    return scaled_to_unit([(1, s, t) for s in (1, -1) for t in (1, -1)])


def icosahedron_axes() -> np.ndarray:
    """The icosahedron's 6 vertex axes: (0, +-1, phi) and their cyclic shifts."""
    return _cyclic([(0, 1, _PHI), (0, -1, _PHI)])


def dodecahedron_axes() -> np.ndarray:
    """The dodecahedron's 10 vertex axes: the cube's diagonals, (0, +-1/phi, phi) and shifts."""
    return np.concatenate((cube_diagonals(), _cyclic([(0, 1 / _PHI, _PHI), (0, -1 / _PHI, _PHI)])))


def pretty_cells(lines) -> dict:
    """Cell by column name of a pretty table's header, dash and value lines.

    The dashes under each header mark the extent of its column, so columns
    that the README's excerpt elides with "..." drop out.
    """
    header, dashes, values = lines
    spans = [match.span() for match in re.finditer(r"-+", dashes)]
    return {header[a:b].strip(): values[a:b].strip() for a, b in spans}


def _sign_table(k: int) -> np.ndarray:
    """(k, 2**k) float signs: column t holds bit k-1-i of t as row i (clear bit is -1)."""
    bits = (np.arange(1 << k) >> np.arange(k - 1, -1, -1)[:, None]) & 1
    return 2.0 * bits - 1.0


def steering_max(
    w: np.ndarray,
    tie_tol: float = steering.STEERING_TIE_TOL,
    block: int = 1 << 14,
) -> tuple[float, int]:
    """Max over assignments A of ||A @ w|| for generators w, smallest index within tie_tol.

    The 2**(n-1) assignments with setting 0 = -1 are scored `block`
    assignments at a time, each as high[:, h] + low[:, l] over a table of
    the first n - lo rows of w (m @ bob for a functional m) and one of the
    last lo = n // 2, at index (h << lo) | l.
    """
    w = np.asarray(w, dtype=np.float64)
    n = len(w)
    lo = n // 2
    high = w[1 : n - lo].T @ _sign_table(n - 1 - lo) - w[0][:, None]
    low = w[n - lo :].T @ _sign_table(lo)
    step = max(1, block >> lo)
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


def bracketed(oracle: steering.OracleBracket, sweep: steering.SteeringBoundResult) -> bool:
    """oracle.lower <= sweep.value <= oracle.upper, within 10 n eps Q(b) at either end.

    The oracle and the sweep read the same w = m @ bob, so the rounding of w
    itself is common to both. On that w, the upper end rounds by about
    n eps sum_i ||w_i|| = n eps Q(b) (sweep.quantum_value), and the lower end
    and the sweep's value are each a rounded norm of one assignment's
    resultant sum_i A_i w_i, which rounds by at most about as much. The sweep
    also reports the smallest witness within STEERING_TIE_TOL of the maximum,
    so its value may lie that much further below the lower end.
    """
    margin = 10 * len(sweep.alice_witness) * np.finfo(np.float64).eps * sweep.quantum_value
    low = oracle.lower - steering.STEERING_TIE_TOL - margin
    return low <= sweep.value <= oracle.upper + margin


# Working digits of exact_lhs' square roots.
EXACT_DIGITS = 50


def exact_sqrt(x) -> Decimal:
    """The square root of a Fraction, int or Decimal x, to EXACT_DIGITS digits."""
    x = Fraction(x)
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        return (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()


def exact_lhs(m, bob) -> tuple[Decimal, Decimal]:
    """C_LHS and Q(b) of m over the directions bob, to EXACT_DIGITS digits.

    Float64 entries are exact binary rationals, so w = m @ bob and every
    resultant sum_i c_i w_i are exact as Fractions. C_LHS^2 is the largest
    squared resultant over the 2^(n-1) assignments with setting 0 at -1,
    walked in Gray-code order, one sign flip per step. Only the square roots
    round: of C_LHS^2, and of each |w_i|^2 for Q(b) = sum_i |w_i|.
    """
    m = [[Fraction(x) for x in row] for row in np.asarray(m).tolist()]
    bob = [[Fraction(x) for x in row] for row in np.asarray(bob, dtype=np.float64).tolist()]
    w = [[sum(mij * b[k] for mij, b in zip(row, bob)) for k in range(3)] for row in m]
    signs = [-1] + [1] * (len(w) - 1)
    r = [sum(s * wi[k] for s, wi in zip(signs, w)) for k in range(3)]
    best = sum(x * x for x in r)
    for step in range(1, 1 << (len(w) - 1)):
        i = (step & -step).bit_length()  # the flipped setting, never 0
        signs[i] = -signs[i]
        r = [x + 2 * signs[i] * y for x, y in zip(r, w[i])]
        best = max(best, sum(x * x for x in r))
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        quantum_value = sum(exact_sqrt(sum(x * x for x in wi)) for wi in w)
    return exact_sqrt(best), quantum_value

