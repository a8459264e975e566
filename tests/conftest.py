"""Hypothesis strategies shared by the test suite."""

from hypothesis import strategies as st

from superqubit.grassmann import Supernumber
from superqubit.supermatrix import Supermatrix


def _finite():
    return st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def complex_numbers():
    return st.builds(complex, _finite(), _finite())


def supernumbers(order: int = 4, parity=None):
    """Hypothesis strategy for supernumbers of the given order.

    Coefficients are bounded so products of a few factors stay well scaled.
    """
    masks = [
        m
        for m in range(1 << order)
        if parity is None or bin(m).count("1") % 2 == parity
    ]
    return st.fixed_dictionaries(
        {}, optional={m: complex_numbers() for m in masks}
    ).map(lambda d: Supernumber(order, d))


def supermatrices(row_parity=(0, 1), col_parity=(0, 1), parity: int = 0, order: int = 4):
    """Hypothesis strategy for homogeneous supermatrices."""
    rows = len(row_parity)
    cols = len(col_parity)
    entry_strats = [
        supernumbers(order, (row_parity[i] + col_parity[j] + parity) % 2)
        for i in range(rows)
        for j in range(cols)
    ]
    return st.tuples(*entry_strats).map(
        lambda flat: Supermatrix(
            [list(flat[i * cols : (i + 1) * cols]) for i in range(rows)],
            row_parity,
            col_parity,
            parity,
        )
    )
