"""Shared helpers and hypothesis strategies for the test suite."""

import random

from hypothesis import strategies as st

from superqubit.grassmann import Supernumber
from superqubit.supermatrix import Supermatrix


def max_abs_coeff(a: Supernumber) -> float:
    """Largest coefficient magnitude of a supernumber (0.0 for the zero element)."""
    return max((abs(c) for c in a.terms().values()), default=0.0)


def coefficient_gap(a: Supernumber, b: Supernumber) -> float:
    """Largest coefficient difference of two supernumbers, compared term by
    term (a subtraction would prune differences below PRUNE_TOL)."""
    ta, tb = a.terms(), b.terms()
    return max((abs(ta.get(m, 0j) - tb.get(m, 0j)) for m in ta.keys() | tb.keys()), default=0.0)


def matrix_residual(m: Supermatrix) -> float:
    """Largest coefficient magnitude over all entries of a supermatrix."""
    rows, cols = m.shape
    return max(max_abs_coeff(m[i, j]) for i in range(rows) for j in range(cols))


def rand_supernumber(rng: random.Random, order: int, parity=None, scale=1.0) -> Supernumber:
    """Dense random supernumber; optionally restricted to one parity sector."""
    terms = {}
    for mask in range(1 << order):
        if parity is not None and bin(mask).count("1") % 2 != parity:
            continue
        terms[mask] = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
    return Supernumber(order, terms)


def rand_supermatrix(rng: random.Random, row_parity, col_parity, parity, order) -> Supermatrix:
    """Random homogeneous supermatrix consistent with the block parity rule."""
    entries = [
        [
            rand_supernumber(rng, order, (row_parity[i] + col_parity[j] + parity) % 2)
            for j in range(len(col_parity))
        ]
        for i in range(len(row_parity))
    ]
    return Supermatrix(entries, row_parity, col_parity, parity)


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
