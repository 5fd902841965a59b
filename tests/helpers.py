"""Small shared utilities for the test suite."""

import numpy as np


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


def _unit(rows) -> np.ndarray:
    rows = np.array(rows, dtype=np.float64)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _cyclic(rows) -> np.ndarray:
    """Each row followed by its cyclic shifts (z, x, y) and (y, z, x), as unit rows."""
    return _unit(np.concatenate([np.roll(rows, s, axis=1) for s in range(3)]))


_PHI = (1 + 5**0.5) / 2


def cube_diagonals() -> np.ndarray:
    """The cube's 4 body diagonals (1, +-1, +-1) / sqrt(3)."""
    return _unit([(1, s, t) for s in (1, -1) for t in (1, -1)])


def icosahedron_axes() -> np.ndarray:
    """The icosahedron's 6 vertex axes: (0, +-1, phi) and their cyclic shifts."""
    return _cyclic([(0, 1, _PHI), (0, -1, _PHI)])


def dodecahedron_axes() -> np.ndarray:
    """The dodecahedron's 10 vertex axes: the cube's diagonals, (0, +-1/phi, phi) and shifts."""
    return np.concatenate((cube_diagonals(), _cyclic([(0, 1 / _PHI, _PHI), (0, -1 / _PHI, _PHI)])))
