"""Every digit the golden tables pin is the correctly rounded value of its catalog set.

Each numeric cell of tests/golden/*.csv is recomputed exactly: C_LHS and Q(b)
from the catalog's float64 directions by `helpers.exact_lhs`, C_LHV and
q_max = (n+1) sqrt(n(n+2)) / 3 in closed form, and the paper's tabulated
references from their closed forms or decimals. The cell's string must equal
the exact value rounded to 10 significant digits. A cell whose exact value
lies within 1e-13 relative of a rounding boundary may round either way in
float64, so it is named in NEAR_BOUNDARY and not compared.
"""

import csv
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from helpers import EXACT_DIGITS, exact_lhs, exact_sqrt
from shimony.catalog import SUPPORTED_SETTINGS, catalog_directions
from shimony.matrices import build_as_matrix
from shimony.steering import QUANTUM_VALUE_GUARD, steering_lhs_bound

GOLDEN = Path(__file__).parent / "golden"
EPS = np.finfo(np.float64).eps

# Golden cells whose exact value lies within 1e-13 relative of a rounding
# boundary, as "<file> n=<n> <column>": none.
NEAR_BOUNDARY = []


def tabulated(n: int) -> tuple[Decimal, Decimal]:
    """The paper's C_LHS and V_LHS for order n, as the catalog labels them, exact."""
    if n == 2:
        return Decimal(2), 1 / exact_sqrt(2)
    if n == 4:
        return 2 * exact_sqrt(Fraction(23, 3)), exact_sqrt(23) / (5 * exact_sqrt(2))
    if n == 6:
        return exact_sqrt(Fraction(358, 3)), exact_sqrt(179) / (14 * exact_sqrt(2))
    if n == 8:
        return exact_sqrt(2 * (10444 + exact_sqrt(20305)) / 65), Decimal("0.6726")
    return Decimal("27.0955"), Decimal("0.6779")


@cache
def exact_cells(n: int) -> dict:
    """Order n's golden cells by column, exact to EXACT_DIGITS digits."""
    c_lhs, quantum_value = exact_lhs(build_as_matrix(n), catalog_directions(n).bob_directions)
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        q_max = (n + 1) * exact_sqrt(n * (n + 2)) / 3
        c_lhv = Decimal((n // 2) * (n // 2 + 1))
        below = quantum_value < q_max * (1 - Decimal(QUANTUM_VALUE_GUARD))
        c_ref, v_ref = tabulated(n)
        return {
            "n": Decimal(n),
            "c_lhv": c_lhv,
            "c_lhs": c_lhs,
            "c_lhs_reference": c_ref,
            "v_lhv": c_lhv / q_max,
            "v_lhs": c_lhs / (quantum_value if below else q_max),
            "v_lhs_reference": v_ref,
            "v_lhs_from_reference_bound": c_ref / q_max,
        }


def ten_digits(x: Decimal) -> tuple[str, bool]:
    """x rounded to 10 significant digits as the CSVs print it, and whether x
    lies within 1e-13 relative of a rounding boundary."""
    with localcontext() as ctx:
        ctx.prec = EXACT_DIGITS
        unit = Decimal(1).scaleb(x.adjusted() - 9)
        near = abs((x / unit) % 1 - Decimal("0.5")) * unit < x * Decimal("1e-13")
        ctx.prec = 10
        return format((+x).normalize(), "f"), near


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.csv")), ids=lambda path: path.name)
def test_golden_cells_are_correctly_rounded(path):
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    mismatches, near = [], []
    for row in rows:
        cells = exact_cells(int(row["n"]))
        for column, text in row.items():
            if column == "note":
                continue
            name = f"{path.name} n={row['n']} {column}"
            expected, close_call = ten_digits(cells[column])
            if close_call:
                near.append(name)
            elif text != expected:
                mismatches.append((name, text, expected))
    assert mismatches == []
    assert near == [name for name in NEAR_BOUNDARY if name.startswith(f"{path.name} ")]


@pytest.mark.parametrize("n", SUPPORTED_SETTINGS)
def test_sweep_is_within_a_few_eps_of_the_exact_reference(n):
    # The float64 sweep against the exact reference on the same inputs; its
    # largest error over 305 seeded inputs was 1.8 eps (value) and 1.44 eps (Q(b)).
    m, bob = build_as_matrix(n), catalog_directions(n).bob_directions
    value, quantum_value = exact_lhs(m, bob)
    result = steering_lhs_bound(m, bob)
    assert abs(Decimal(result.value) - value) <= 4 * Decimal(EPS) * value
    assert abs(Decimal(result.quantum_value) - quantum_value) <= 4 * Decimal(EPS) * quantum_value


def test_ten_digits_rounds_half_even_and_flags_boundaries():
    assert ten_digits(Decimal(30)) == ("30", False)
    assert ten_digits(Decimal("0.74230748895")) == ("0.742307489", True)
    assert ten_digits(Decimal("0.74230748905")) == ("0.742307489", True)
    assert ten_digits(Decimal("0.742307489050001")) == ("0.7423074891", True)
    assert ten_digits(Decimal("0.7423074890501")) == ("0.7423074891", False)
    assert ten_digits(Decimal("27.23205809082360")) == ("27.23205809", False)
