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
