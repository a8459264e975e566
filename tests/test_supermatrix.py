"""Graded matrices: block parity layout, supertranspose, grade adjoint,
supertrace, graded scalar action, graded Kronecker product, nilpotent exponential."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superqubit import grassmann
from superqubit.grassmann import (
    TABLE_ORDER,
    DimensionMismatch,
    ParityError,
    Supernumber,
    _sum_of_products,
    _table_product,
    pair_product,
)
from superqubit.identities import (
    coefficient_gap,
    matrix_gap,
    max_abs_coeff,
    rand_supermatrix,
    rand_supernumber,
)
from superqubit.supermatrix import (
    NotNilpotent,
    Supermatrix,
    exp_nilpotent,
    graded_kron,
    supertrace,
)

from conftest import run_under_blas_threads, supermatrices

ORDER = 4
P2 = (0, 1)
P3 = (0, 0, 1)


def _one():
    return Supernumber.one(ORDER)


def _eta(pair=1):
    return Supernumber.eta(pair, ORDER)


def _eta_hash(pair=1):
    return Supernumber.eta_hash(pair, ORDER)


# -- residual measures -------------------------------------------------------------


def test_gaps_compare_term_by_term():
    # a subtraction drops every difference at or below PRUNE_TOL (1e-14), so
    # it hides a gap of half that; the term-wise measures report it
    shifted = 0.25 + 5e-15
    gap = shifted - 0.25  # ~5e-15, and exact: the operands are that close
    a = Supernumber(ORDER, {0: 1.0, 3: 0.25})
    b = Supernumber(ORDER, {0: 1.0, 3: shifted})
    assert max_abs_coeff(a - b) == 0.0
    assert coefficient_gap(a, b) == gap
    ma, mb = (Supermatrix([[x]], (0,), (0,), 0) for x in (a, b))
    assert max_abs_coeff((ma - mb)[0, 0]) == 0.0
    assert matrix_gap(ma, mb) == gap


# -- construction and validation ---------------------------------------------------


def test_entry_parity_is_enforced():
    # an even matrix over (0,1) parities must hold odd entries off the diagonal blocks
    with pytest.raises(ParityError):
        Supermatrix([[_eta(), _one()], [_one(), _one()]], P2, P2, 0)
    # odd matrix flips the rule
    Supermatrix([[_eta(), _one()], [_one(), _eta_hash()]], P2, P2, 1)
    with pytest.raises(ParityError):
        Supermatrix([[_one(), _one()], [_one(), _one()]], P2, P2, 1)


def test_ragged_and_mismatched_shapes_rejected():
    with pytest.raises(DimensionMismatch):
        Supermatrix([[_one()], [_one(), _one()]], P2, P2, 0)
    with pytest.raises(DimensionMismatch):
        Supermatrix([[_one(), _one()]], P2, P2, 0)


def test_mixed_orders_rejected():
    with pytest.raises(DimensionMismatch):
        Supermatrix([[Supernumber.one(2), Supernumber.zero(4)]], (0,), (0, 0), 0)


def test_identity_and_zeros():
    ident = Supermatrix.identity(P3, ORDER)
    assert ident.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            want = _one() if i == j else Supernumber.zero(ORDER)
            assert ident[i, j] == want
    z = Supermatrix.zeros(P2, P3, ORDER)
    assert z.shape == (2, 3)
    assert z.is_zero()


def test_column_and_row_helpers():
    col = Supermatrix.column([_one(), _one(), _eta()], P3, 0, order=ORDER)
    assert col.shape == (3, 1)
    assert col.col_parity == (0,)
    row = Supermatrix.row([_one(), _one(), _eta()], P3, 0, order=ORDER)
    assert row.shape == (1, 3)
    assert row.row_parity == (0,)


def test_block_dims():
    m = Supermatrix.identity(P3, ORDER)
    assert m.row_dims == (2, 1)
    assert m.col_dims == (2, 1)
    assert m.is_square


# -- linear structure --------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(supermatrices(), supermatrices())
def test_addition_and_scalar_multiplication(a, b):
    assert (a + b) - b == a
    assert -(-a) == a
    assert 2 * a == a + a
    assert a * 0.5 + a * 0.5 == a


def test_addition_requires_matching_parities():
    a = Supermatrix.identity(P2, ORDER)
    b = Supermatrix.identity((1, 0), ORDER)
    with pytest.raises((ParityError, DimensionMismatch)):
        a + b
    # every supermatrix is homogeneous: no even+odd sums, no mixed scalars
    rng = random.Random(4)
    even = rand_supermatrix(rng, P2, P2, 0, ORDER)
    odd = rand_supermatrix(rng, P2, P2, 1, ORDER)
    with pytest.raises(ParityError):
        even + odd
    with pytest.raises(ValueError):
        Supermatrix(even.entries, P2, P2, None)
    mixed = _one() + _eta()
    with pytest.raises(ParityError):
        mixed * even
    with pytest.raises(ParityError):
        even * mixed
    z = Supernumber.zero(ORDER)
    nilpotent_odd = Supermatrix([[_eta(), z], [z, _eta_hash()]], P2, P2, 1)
    with pytest.raises(ParityError):
        exp_nilpotent(nilpotent_odd)
    # comparing across parities never raises; only the zero matrices agree
    assert (even == odd) is False
    assert Supermatrix.zeros(P2, P2, ORDER, parity=1) == Supermatrix.zeros(P2, P2, ORDER)
    # the zero matrix has either parity, so it adds to both
    assert odd + Supermatrix.zeros(P2, P2, ORDER) == odd


@settings(max_examples=25, deadline=None)
@given(supermatrices(), supermatrices(), supermatrices())
def test_matmul_associative(a, b, c):
    assert matrix_gap((a @ b) @ c, a @ (b @ c)) < 1e-9


def _thinned(rng, m: Supermatrix, keep: float) -> Supermatrix:
    """m with each term of each entry kept with probability keep."""
    grid = [[Supernumber(m.order, {k: c for k, c in e.terms().items() if rng.random() < keep})
             for e in row] for row in m.entries]
    return Supermatrix(grid, m.row_parity, m.col_parity, m.parity, order=m.order)


@pytest.mark.parametrize("px", (0, 1))
@pytest.mark.parametrize("py", (0, 1))
def test_fused_matmul_matches_entrywise_sum_of_products(px, py):
    rng = random.Random(10 * px + py)
    x = rand_supermatrix(rng, P3, P3, px, 6)
    y = rand_supermatrix(rng, P3, P2, py, 6)
    prod = x @ y
    assert prod.parity == (px + py) % 2
    for i in range(3):
        for j in range(2):
            naive = Supernumber.zero(6)
            for t in range(3):
                naive = naive + x[i, t] * y[t, j]
            assert coefficient_gap(prod[i, j], naive) <= 1e-14
    # dense and sparse operands at orders 6 and 8: the pair table and the
    # dict loop form the same monomials, with coefficients within rounding;
    # matmul itself takes the table at order 6 alone
    for order, keep in ((6, 1.0), (6, 0.3), (8, 1.0), (8, 0.1)):
        x = _thinned(rng, rand_supermatrix(rng, P3, P3, px, order), keep)
        y = _thinned(rng, rand_supermatrix(rng, P3, P2, py, order), keep)
        table = _table_product(order, x.entries, y.entries)
        for i in range(3):
            for j in range(2):
                loop = _sum_of_products(order, zip(x.entries[i], [y[t, j] for t in range(3)]))
                assert set(table[i][j].terms()) == set(loop.terms())
                assert coefficient_gap(table[i][j], loop) <= 1e-14 * max_abs_coeff(loop)
    # NaN coefficients reach the monomials the dict loop forms and no others
    x = rand_supermatrix(rng, P3, P3, px, 6)
    x = Supermatrix([[e * math.nan for e in row] for row in x.entries], P3, P3, px)
    y = rand_supermatrix(rng, P3, P2, py, 6)
    prod = x @ y
    for i in range(3):
        for j in range(2):
            loop = _sum_of_products(6, zip(x.entries[i], [y[t, j] for t in range(3)]))
            assert set(prod[i, j].terms()) == set(loop.terms())


def test_matmul_sum_that_cancels_leaves_no_term():
    # a b + a (-b) on dense order-6 entries
    rng = random.Random(12)
    a, b = rand_supernumber(rng, 6, 0), rand_supernumber(rng, 6, 1)
    x = Supermatrix([[a, a]], (0,), (0, 0), 0)
    y = Supermatrix([[b], [-b]], (0, 0), (1,), 0)
    assert (x @ y)[0, 0].terms() == {}
    assert _table_product(6, x.entries, y.entries)[0][0].terms() == {}
    # a product below the zero rule's tolerance: 1e-8 eta1 times 1e-8 eta1#
    x = Supermatrix([[Supernumber(6, {1: 1e-8})]], (0,), (1,), 0)
    y = Supermatrix([[Supernumber(6, {2: 1e-8})]], (1,), (0,), 0)
    assert (x @ y)[0, 0].terms() == {}


def test_products_outside_the_table_order_build_no_table(monkeypatch):
    built = []
    pair_table = grassmann._pair_table
    monkeypatch.setattr(grassmann, "_pair_table",
                        lambda order: built.append(order) or pair_table(order))
    rng = random.Random(13)
    for order, grading in ((TABLE_ORDER - 2, P3), (TABLE_ORDER, (0,)),
                           (TABLE_ORDER + 2, (0,))):
        x = rand_supermatrix(rng, grading, grading, 0, order)
        y = rand_supermatrix(rng, grading, grading, 0, order)
        prod = x @ y
        for i, row in enumerate(x.entries):
            for j in range(len(grading)):
                loop = _sum_of_products(order, zip(row, [y[t, j] for t in range(len(grading))]))
                assert coefficient_gap(prod[i, j], loop) <= 1e-14 * max_abs_coeff(loop)
    assert built == [TABLE_ORDER]


def test_table_product_does_not_depend_on_blas_threads():
    # the bytes of dense order-6 products, in one process with a single
    # OpenBLAS thread and in one with the default
    code = (
        "import random\n"
        "from superqubit.identities import rand_supermatrix\n"
        "rng = random.Random(61)\n"
        "for par in (0, 1):\n"
        "    x = rand_supermatrix(rng, (0, 0, 1), (0, 0, 1), par, 6)\n"
        "    y = rand_supermatrix(rng, (0, 0, 1), (0, 1), 0, 6)\n"
        "    print([[e.terms() for e in row] for row in (x @ y).entries])\n"
    )
    out = run_under_blas_threads(code)
    assert out[0].count(b"j)") > 2 * 6 * 16  # every entry printed, coefficients included
    assert out[0] == out[1]


def test_matmul_requires_compatible_layout():
    a = Supermatrix.identity(P2, ORDER)
    b = Supermatrix.identity(P3, ORDER)
    with pytest.raises((ParityError, DimensionMismatch)):
        a @ b


@pytest.mark.parametrize("order", (2, TABLE_ORDER))
def test_matmul_with_an_empty_dimension_has_the_labelled_shape(order):
    # an empty inner sum is zero: 1x0 @ 0x1 is the 1x1 zero, on the loop's
    # order and on the table's
    z = Supermatrix([[]], (0,), (), 0, order=order) @ Supermatrix([], (), (0,), 0, order=order)
    assert z.shape == (1, 1) and len(z.entries) == 1 and len(z.entries[0]) == 1
    assert z[0, 0].terms() == {} and z.order == order
    one = Supermatrix.identity((0,), order)
    for a, b in ((Supermatrix([], (), (0,), 0, order=order), one),  # 0x1 @ 1x1
                 (one, Supermatrix([[]], (0,), (), 0, order=order))):  # 1x1 @ 1x0
        assert (a @ b).entries == tuple(() for _ in a.row_parity)


def test_matmul_identity_neutral():
    rng = random.Random(3)
    m = rand_supermatrix(rng, P3, P3, 1, ORDER)
    ident = Supermatrix.identity(P3, ORDER)
    assert ident @ m == m
    assert m @ ident == m


# -- supertranspose ----------------------------------------------------------------


def test_supertranspose_pinned_signs():
    a = Supernumber.from_complex(2 + 1j, ORDER)
    d = Supernumber.from_complex(3 - 2j, ORDER)
    s = Supermatrix([[a, _eta()], [_eta_hash(), d]], P2, P2, 0)
    t = s.supertranspose()
    assert t[0, 0] == a
    assert t[1, 1] == d
    assert t[0, 1] == _eta_hash()  # even matrix: odd-row block moves with sign +1
    assert t[1, 0] == -_eta()  # even matrix: odd-column block picks up -1


def test_supertranspose_odd_matrix_pinned_signs():
    s = Supermatrix(
        [[_eta(), _one()], [_one(), _eta_hash()]], P2, P2, 1
    )
    t = s.supertranspose()
    assert t[0, 0] == _eta()
    assert t[1, 1] == _eta_hash()
    assert t[0, 1] == -_one()  # odd matrix: (row 1, col 0) entries flip sign
    assert t[1, 0] == _one()


# -- hash and grade adjoint --------------------------------------------------------


def test_matrix_hash_is_entrywise():
    rng = random.Random(12)
    m = rand_supermatrix(rng, P2, P2, 1, ORDER)
    h = m.hash()
    for i in range(2):
        for j in range(2):
            assert h[i, j] == m[i, j].hash()


def test_grade_adjoint_is_hash_of_supertranspose():
    rng = random.Random(13)
    for parity in (0, 1):
        m = rand_supermatrix(rng, P3, P3, parity, ORDER)
        assert m.grade_adjoint() == m.supertranspose().hash()
        assert m.grade_adjoint() == m.hash().supertranspose()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_grade_adjoint_squared(parity, seed):
    rng = random.Random(seed)
    m = rand_supermatrix(rng, P3, P3, parity, ORDER)
    sign = -1 if parity else 1
    assert matrix_gap(m.grade_adjoint().grade_adjoint(), sign * m) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_grade_adjoint_composition_law(px, py, seed):
    rng = random.Random(seed)
    x = rand_supermatrix(rng, P3, P3, px, ORDER)
    y = rand_supermatrix(rng, P3, P3, py, ORDER)
    sign = -1 if px * py else 1
    lhs = (x @ y).grade_adjoint()
    rhs = sign * (y.grade_adjoint() @ x.grade_adjoint())
    assert matrix_gap(lhs, rhs) < 1e-10


# -- supertrace --------------------------------------------------------------------


def test_supertrace_pinned():
    a = Supernumber.from_complex(2 + 1j, ORDER)
    d = Supernumber.from_complex(5.0, ORDER)
    s = Supermatrix([[a, _eta()], [_eta_hash(), d]], P2, P2, 0)
    assert supertrace(s) == Supernumber.from_complex((2 + 1j) - 5.0, ORDER)
    # one sum over the diagonal, pruned once: a term of 6e-15 on each entry
    # adds up to one above PRUNE_TOL, which a running sum would drop twice
    x = Supernumber(ORDER, {3: 1.0}) * 6e-15
    z = Supernumber.zero(ORDER)
    assert supertrace(Supermatrix([[x, z], [z, x]], (0, 0), (0, 0), 0)).terms() == {3: 1.2e-14}
    assert supertrace(Supermatrix([[x, z], [z, -x]], P2, P2, 0)).terms() == {3: 1.2e-14}


def test_supertrace_invariant_under_supertranspose():
    rng = random.Random(22)
    m = rand_supermatrix(rng, P3, P3, 0, ORDER)
    assert coefficient_gap(supertrace(m.supertranspose()), supertrace(m)) < 1e-12


# -- graded scalar action ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2**32 - 1))
def test_scalar_left_right_koszul(zp, sp, seed):
    rng = random.Random(seed)
    zeta = rand_supernumber(rng, ORDER, zp)
    m = rand_supermatrix(rng, P2, P2, sp, ORDER)
    sign = -1 if zp * sp else 1
    assert matrix_gap(zeta * m, sign * (m * zeta)) < 1e-12


def test_scalar_action_compatible_with_matmul():
    rng = random.Random(31)
    zeta = rand_supernumber(rng, ORDER, 1)
    x = rand_supermatrix(rng, P2, P2, 1, ORDER)
    y = rand_supermatrix(rng, P2, P2, 0, ORDER)
    assert matrix_gap(zeta * (x @ y), (zeta * x) @ y) < 1e-12
    assert matrix_gap((x @ y) * zeta, x @ (y * zeta)) < 1e-12


def test_even_scalar_action_is_plain():
    rng = random.Random(32)
    zeta = rand_supernumber(rng, ORDER, 0)
    m = rand_supermatrix(rng, P2, P2, 1, ORDER)
    assert zeta * m == m * zeta
    # a number scales each entry as it scales a supernumber: only exact zeros go
    x = Supernumber(ORDER, {3: 1.0})
    m = Supermatrix([[x]], (0,), (0,), 0)
    assert (m * 6e-15)[0, 0].terms() == (6e-15 * m)[0, 0].terms() == {3: 6e-15}


# -- graded Kronecker product ------------------------------------------------------


def test_graded_kron_requires_even_factors():
    rng = random.Random(41)
    odd = rand_supermatrix(rng, P2, P2, 1, ORDER)
    even = rand_supermatrix(rng, P2, P2, 0, ORDER)
    with pytest.raises(ParityError):
        graded_kron(odd, even)
    with pytest.raises(ParityError):
        graded_kron(even, odd)


def test_graded_kron_layout_and_koszul_sign():
    one = _one()
    a = Supermatrix([[one, _eta(1)], [_eta_hash(1), one]], P2, P2, 0)
    b = Supermatrix([[one, _eta(2)], [_eta_hash(2), one]], P2, P2, 0)
    k = graded_kron(a, b)
    assert k.shape == (4, 4)
    assert k.row_parity == (0, 1, 1, 0)  # lexicographic (i, k) -> 2 i + k
    assert k[2, 0] == _eta_hash(1)  # a[1,0] * b[0,0], no sign
    assert k[1, 0] == _eta_hash(2)  # a[0,0] * b[1,0], no sign
    # a[0,1] (odd column label) against b[1,0] (odd row label) picks up -1
    assert k[1, 2] == -(_eta(1) * _eta_hash(2))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_graded_kron_mixed_product(seed):
    rng = random.Random(seed)
    a, b, c, d = (rand_supermatrix(rng, P2, P2, 0, ORDER) for _ in range(4))
    lhs = graded_kron(a, b) @ graded_kron(c, d)
    rhs = graded_kron(a @ c, b @ d)
    assert matrix_gap(lhs, rhs) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_graded_kron_supertrace_multiplicative(seed):
    rng = random.Random(seed)
    a = rand_supermatrix(rng, P2, P2, 0, ORDER)
    b = rand_supermatrix(rng, P2, P2, 0, ORDER)
    assert coefficient_gap(supertrace(graded_kron(a, b)), supertrace(a) * supertrace(b)) < 1e-10


# -- nilpotent exponential ---------------------------------------------------------


def test_exp_nilpotent_of_zero():
    z = Supermatrix.zeros(P3, P3, ORDER)
    assert exp_nilpotent(z) == Supermatrix.identity(P3, ORDER)
    # a zero matrix has either parity, so an odd-declared one is allowed too
    z = Supermatrix.zeros(P3, P3, ORDER, parity=1)
    assert exp_nilpotent(z) == Supermatrix.identity(P3, ORDER)


def test_exp_nilpotent_sums_its_series_once():
    # with X_k = eta_k eta_k#, N^2/2 and N^3/6 each put 8e-15 on X1 X2 X3:
    # their sum is above PRUNE_TOL, and a running sum would drop both
    x1, x2, x3 = (pair_product(k, 6) for k in (1, 2, 3))
    n = (x1 + x2 + x3) * 2e-5 + x1 * x2 * 4e-10
    e = exp_nilpotent(Supermatrix([[n]], (0,), (0,), 0))
    assert e[0, 0].coefficient(63) == pytest.approx(1.6e-14, rel=1e-12, abs=0)


def test_exp_nilpotent_inverse_law():
    rng = random.Random(51)
    for _ in range(20):
        entries = [
            [
                rand_supernumber(rng, ORDER, (P3[i] + P3[j]) % 2).soul()
                for j in range(3)
            ]
            for i in range(3)
        ]
        n = Supermatrix(entries, P3, P3, 0)
        prod = exp_nilpotent(n) @ exp_nilpotent(-n)
        assert matrix_gap(prod, Supermatrix.identity(P3, ORDER)) < 1e-10


def test_exp_nilpotent_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        exp_nilpotent(Supermatrix.identity(P2, ORDER))
