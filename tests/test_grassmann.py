"""Finite Grassmann algebra: canonical products, involutions, Berezin calculus,
norms, and even-part inverses."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superqubit.grassmann import (
    COMPARE_TOL,
    MAX_ORDER,
    DimensionMismatch,
    DomainError,
    NotInvertible,
    ParityError,
    Supernumber,
    berezin,
    inv_sqrt,
    invert,
    modified_rogers,
    pair_product,
    rogers_of_hash_product,
    rogers_r1,
    _rogers_integral,
)
from superqubit.identities import coefficient_gap, rand_supernumber

from conftest import supernumbers

ORDER = 4


# -- construction and validation ---------------------------------------------------


def test_order_must_be_even():
    with pytest.raises(ValueError):
        Supernumber(3, {0: 1.0})


def test_order_bounded_by_max_order():
    Supernumber(MAX_ORDER, {0: 1.0})  # boundary is allowed
    with pytest.raises(ValueError):
        Supernumber(MAX_ORDER + 2, {0: 1.0})


def test_mask_out_of_range_rejected():
    with pytest.raises(ValueError):
        Supernumber(2, {4: 1.0})
    with pytest.raises(ValueError):
        Supernumber(2, {-1: 1.0})


def test_constructors():
    one = Supernumber.one(ORDER)
    assert one.terms() == {0: (1 + 0j)}
    assert Supernumber.zero(ORDER).terms() == {}
    assert Supernumber.from_complex(2 - 3j, ORDER).terms() == {0: (2 - 3j)}
    assert Supernumber.generator(1, ORDER).terms() == {1: (1 + 0j)}
    assert Supernumber.generator(3, ORDER).terms() == {4: (1 + 0j)}
    # pair i maps to generators 2i-1 (eta) and 2i (eta hash)
    assert Supernumber.eta(1, ORDER) == Supernumber.generator(1, ORDER)
    assert Supernumber.eta_hash(1, ORDER) == Supernumber.generator(2, ORDER)
    assert Supernumber.eta(2, ORDER) == Supernumber.generator(3, ORDER)
    assert Supernumber.eta_hash(2, ORDER) == Supernumber.generator(4, ORDER)


def test_tiny_coefficients_are_pruned():
    assert Supernumber(2, {0: 1e-16, 1: 1e-15}).terms() == {}
    assert Supernumber(2, {0: 1.0, 1: 1e-16}).terms() == {0: (1 + 0j)}


def test_non_finite_coefficients_do_not_vanish():
    # the zero rule must not drop a NaN: construction rejects a non-finite
    # coefficient, and a NaN arithmetic result stays visible
    for bad in (math.nan, complex(0.0, math.nan), math.inf, complex(1.0, -math.inf)):
        with pytest.raises(ValueError, match="not finite"):
            Supernumber(2, {0: bad})
    total = Supernumber.one(2) * math.nan + 1
    assert list(total.terms()) == [0]
    assert math.isnan(abs(total.terms()[0]))


def test_equality_uses_comparison_tolerance():
    a = Supernumber(2, {1: 1.0})
    assert a == Supernumber(2, {1: 1.0 + 0.1 * COMPARE_TOL})
    assert a != Supernumber(2, {1: 1.0 + 100 * COMPARE_TOL})
    assert Supernumber.from_complex(0.5, 2) == 0.5
    assert Supernumber.zero(2) == 0


# -- canonical multiplication ------------------------------------------------------


def test_generators_anticommute_and_square_to_zero():
    gens = [Supernumber.generator(g, ORDER) for g in range(1, ORDER + 1)]
    zero = Supernumber.zero(ORDER)
    for i, gi in enumerate(gens):
        assert gi * gi == zero
        for gj in gens[i + 1 :]:
            assert gi * gj + gj * gi == zero


def test_canonical_reordering_signs():
    g1 = Supernumber.generator(1, ORDER)
    g2 = Supernumber.generator(2, ORDER)
    g3 = Supernumber.generator(3, ORDER)
    assert (g2 * g1).terms() == {3: (-1 + 0j)}
    assert (g3 * g1).terms() == {5: (-1 + 0j)}
    # odd permutation of three generators
    assert g3 * g2 * g1 == -(g1 * g2 * g3)
    # even permutation
    assert g2 * g3 * g1 == g1 * g2 * g3


@settings(max_examples=100, deadline=None)
@given(supernumbers(), supernumbers(), supernumbers())
def test_product_is_associative_and_distributive(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert coefficient_gap(lhs, rhs) < 1e-10
    assert coefficient_gap((a + b) * c, a * c + b * c) < 1e-10
    assert coefficient_gap(a * (b + c), a * b + a * c) < 1e-10


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
)
def test_homogeneous_supercommutativity(pa, pb, seed):
    rng = random.Random(seed)
    a = rand_supernumber(rng, ORDER, pa)
    b = rand_supernumber(rng, ORDER, pb)
    sign = -1 if pa * pb else 1
    assert coefficient_gap(a * b, sign * (b * a)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(supernumbers())
# a / 2 has a coefficient below PRUNE_TOL: scaling must keep it
@example(Supernumber(ORDER, {0: 1e-14 + 1e-14j}))
def test_ring_units_and_linear_ops(a):
    one = Supernumber.one(ORDER)
    zero = Supernumber.zero(ORDER)
    assert a * one == a
    assert one * a == a
    assert a * zero == zero
    assert a - a == zero
    assert a + a == 2 * a
    assert coefficient_gap((a / 2.0) * 2.0, a) < 1e-14
    assert -(-a) == a


def test_scalar_coercion_in_arithmetic():
    a = Supernumber.eta(1, ORDER)
    assert (1 + a) - 1 == a
    assert (2.0 * a).terms() == {1: (2 + 0j)}
    assert (a * 1j).terms() == {1: 1j}
    with pytest.raises(DimensionMismatch):
        a + Supernumber.one(2)


# -- grading -----------------------------------------------------------------------


def test_parity_body_soul():
    one = Supernumber.one(ORDER)
    e1 = Supernumber.eta(1, ORDER)
    x = pair_product(1, ORDER)
    assert one.parity() == 0
    assert e1.parity() == 1
    assert x.parity() == 0
    assert (one + e1).parity() is None
    assert Supernumber.zero(ORDER).parity() == 0
    a = 2.5 * one + 3 * e1 + 1j * x
    assert a.body == (2.5 + 0j)
    assert a.soul() == 3 * e1 + 1j * x
    assert a.even_part() == 2.5 * one + 1j * x
    assert a.odd_part() == 3 * e1
    assert a.even_part() + a.odd_part() == a


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_soul_is_nilpotent(seed):
    rng = random.Random(seed)
    s = rand_supernumber(rng, ORDER).soul()
    power = Supernumber.one(ORDER)
    for _ in range(ORDER + 1):
        power = power * s
    assert power == Supernumber.zero(ORDER)


def test_is_real_even():
    x = pair_product(1, ORDER)
    assert (1 + 0.5 * x).is_real_even()
    assert not (1 + 0.5j * x).is_real_even()
    assert not (1 + Supernumber.eta(1, ORDER)).is_real_even()


# -- hash and star involutions -----------------------------------------------------


def test_hash_on_generators():
    for pair in (1, 2):
        e = Supernumber.eta(pair, ORDER)
        h = Supernumber.eta_hash(pair, ORDER)
        assert e.hash() == h
        assert h.hash() == -e


def test_star_on_generators():
    for pair in (1, 2):
        e = Supernumber.eta(pair, ORDER)
        h = Supernumber.eta_hash(pair, ORDER)
        assert e.star() == h
        assert h.star() == e


def test_involutions_conjugate_scalars():
    z = Supernumber.from_complex(2 + 3j, ORDER)
    assert z.hash() == Supernumber.from_complex(2 - 3j, ORDER)
    assert z.star() == Supernumber.from_complex(2 - 3j, ORDER)


def test_involutions_of_every_order_eight_monomial():
    # factor by factor: hash keeps the order of a product, star reverses it
    order = 8
    for mask in range(1 << order):
        gens = [Supernumber.generator(g + 1, order) for g in range(order) if mask >> g & 1]
        hashed = starred = Supernumber.one(order)
        for e in gens:
            hashed = hashed * e.hash()
            starred = e.star() * starred
        monomial = Supernumber(order, {mask: 1.0})
        assert monomial.hash().terms() == hashed.terms()
        assert monomial.star().terms() == starred.terms()


@settings(max_examples=100, deadline=None)
@given(supernumbers(), supernumbers())
def test_hash_is_order_preserving_automorphism(a, b):
    assert coefficient_gap((a * b).hash(), a.hash() * b.hash()) < 1e-10
    assert (a + b).hash() == a.hash() + b.hash()


@settings(max_examples=100, deadline=None)
@given(supernumbers())
def test_hash_squared_is_parity_flip(a):
    assert coefficient_gap(a.hash().hash(), a.even_part() - a.odd_part()) < 1e-12


@settings(max_examples=100, deadline=None)
@given(supernumbers(), supernumbers())
def test_star_is_order_reversing_antiautomorphism(a, b):
    assert coefficient_gap((a * b).star(), b.star() * a.star()) < 1e-10
    assert coefficient_gap(a.star().star(), a) < 1e-12


# -- Berezin calculus --------------------------------------------------------------


def test_berezin_left_derivative_signs():
    e1 = Supernumber.eta(1, ORDER)
    h1 = Supernumber.eta_hash(1, ORDER)
    assert berezin(e1, 1) == Supernumber.one(ORDER)
    assert berezin(Supernumber.one(ORDER), 1) == Supernumber.zero(ORDER)
    # differentiating generator 2 in g1 g2 moves it past g1 first
    assert berezin(e1 * h1, 2) == -e1
    assert berezin(e1 * h1, 1) == h1


def test_berezin_invalid_generator_index():
    with pytest.raises(ValueError):
        berezin(Supernumber.one(2), 3)
    with pytest.raises(ValueError):
        berezin(Supernumber.one(2), 0)


@settings(max_examples=100, deadline=None)
@given(supernumbers(), supernumbers(), st.integers(1, ORDER))
def test_berezin_is_linear_and_nilpotent(a, b, g):
    lhs = berezin(a + b, g)
    assert coefficient_gap(lhs, berezin(a, g) + berezin(b, g)) < 1e-12
    assert berezin(berezin(a, g), g) == Supernumber.zero(ORDER)


@settings(max_examples=100, deadline=None)
@given(supernumbers(), st.integers(1, ORDER), st.integers(1, ORDER))
def test_berezin_derivatives_anticommute(a, g1, g2):
    lhs = berezin(berezin(a, g1), g2)
    rhs = berezin(berezin(a, g2), g1)
    assert coefficient_gap(lhs, -rhs) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 1),
    st.integers(0, 2**32 - 1),
    st.integers(1, ORDER),
)
def test_berezin_graded_leibniz(parity, seed, g):
    rng = random.Random(seed)
    a = rand_supernumber(rng, ORDER, parity)
    b = rand_supernumber(rng, ORDER)
    sign = -1 if parity else 1
    lhs = berezin(a * b, g)
    rhs = berezin(a, g) * b + sign * (a * berezin(b, g))
    assert coefficient_gap(lhs, rhs) < 1e-10


# -- norms -------------------------------------------------------------------------


def test_modified_rogers_on_pair_terms():
    one = Supernumber.one(ORDER)
    x1 = pair_product(1, ORDER)
    for c in (0.0, 0.3, -1.7, 2.5):
        val = modified_rogers(one + c * x1)
        assert isinstance(val, complex)
        assert val == pytest.approx(1 - c, abs=1e-15)
    # complex coefficient keeps an imaginary part
    val = modified_rogers(one + (0.2 + 0.4j) * x1)
    assert isinstance(val, complex)
    assert abs(val - (1 - (0.2 + 0.4j))) < 1e-15


@pytest.mark.parametrize("order", (2, 4, 6))
def test_modified_rogers_table_matches_berezin_definition(order):
    rng = random.Random(order)
    for _ in range(10):
        a = rand_supernumber(rng, order, parity=0)
        assert abs(modified_rogers(a) - _rogers_integral(a)) <= 1e-14


def test_modified_rogers_factorizes_over_pairs():
    rng = random.Random(5)
    one = Supernumber.one(ORDER)
    x1 = pair_product(1, ORDER)
    x2 = pair_product(2, ORDER)
    for _ in range(25):
        c1, c2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        a = (one + c1 * x1) * (one + c2 * x2)
        assert modified_rogers(a) == pytest.approx((1 - c1) * (1 - c2), abs=1e-13)


def test_modified_rogers_rejects_odd_terms():
    with pytest.raises(ParityError):
        modified_rogers(Supernumber.eta(1, ORDER))
    with pytest.raises(ParityError):
        modified_rogers(1 + Supernumber.eta_hash(2, ORDER))


@pytest.mark.parametrize("order", (2, 4, 6))
def test_rogers_of_hash_product_matches_norm_of_the_product(order):
    # x hash(x), the product that measurement and transitions read
    rng = random.Random(100 + order)
    for parity in (0, 1, 0, 1):
        for _ in range(5):
            for x in (rand_supernumber(rng, order, parity), rand_supernumber(rng, order, parity)):
                want = modified_rogers(x * x.hash())
                assert abs(rogers_of_hash_product(x) - want) <= 1e-14 * rogers_r1(x) ** 2
    assert rogers_of_hash_product(Supernumber.zero(order)) == 0j


def test_rogers_of_hash_product_rejects_what_modified_rogers_rejects():
    rng = random.Random(8)
    even, odd, mixed = (rand_supernumber(rng, ORDER, par) for par in (0, 1, None))
    with pytest.raises(ParityError):
        modified_rogers(mixed * mixed.hash())
    with pytest.raises(ParityError):
        rogers_of_hash_product(mixed)
    for x in (even, odd):  # either parity makes x hash(x) even
        want = modified_rogers(x * x.hash())
        assert abs(rogers_of_hash_product(x) - want) <= 1e-14 * rogers_r1(x) ** 2


@settings(max_examples=60, deadline=None)
@given(supernumbers(parity=0), supernumbers(parity=0))
# a small imaginary body must scale like any other coefficient
@example(Supernumber(4, {0: 1e-12j}), Supernumber.zero(4))
def test_modified_rogers_is_linear(a, b):
    va, vb = modified_rogers(a), modified_rogers(b)
    vab = modified_rogers(a + b)
    assert abs(vab - (va + vb)) < 1e-12
    v2 = modified_rogers(2.5 * a)
    assert abs(v2 - 2.5 * va) < 1e-12


def test_rogers_r1_is_coefficient_l1_norm():
    one = Supernumber.one(ORDER)
    x1 = pair_product(1, ORDER)
    for c in (0.0, 0.4, -0.9, 3.0):
        assert rogers_r1(one + c * x1) == pytest.approx(1 + abs(c), abs=1e-15)
    a = Supernumber(ORDER, {0: 3 - 4j, 1: 1j, 3: -2.0})
    assert rogers_r1(a) == pytest.approx(5 + 1 + 2, abs=1e-15)


# -- even-part inverses ------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_invert_gives_two_sided_inverse(seed):
    rng = random.Random(seed)
    a = rand_supernumber(rng, ORDER)
    a = a - a.body + (1.0 + rng.uniform(0.2, 2.0))  # keep the body away from zero
    one = Supernumber.one(ORDER)
    assert coefficient_gap(a * invert(a), one) < 1e-10
    assert coefficient_gap(invert(a) * a, one) < 1e-10


def test_invert_rejects_zero_body():
    with pytest.raises(NotInvertible):
        invert(Supernumber.eta(1, ORDER))
    with pytest.raises(NotInvertible):
        invert(Supernumber.zero(ORDER))


def test_invert_scalar():
    assert invert(Supernumber.from_complex(2.0, ORDER)) == 0.5


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inv_sqrt_squares_to_inverse(seed):
    rng = random.Random(seed)
    a = rand_supernumber(rng, ORDER)
    a = a - a.body + rng.uniform(0.3, 3.0)
    r = inv_sqrt(a)
    assert coefficient_gap(r * r * a, Supernumber.one(ORDER)) < 1e-9


def test_inv_sqrt_requires_positive_real_body():
    with pytest.raises(DomainError):
        inv_sqrt(Supernumber.from_complex(-1.0, ORDER))
    with pytest.raises(DomainError):
        inv_sqrt(Supernumber.from_complex(1j, ORDER))
    with pytest.raises(DomainError):
        inv_sqrt(Supernumber.zero(ORDER))


def test_pair_product_layout():
    x1 = pair_product(1, ORDER)
    assert x1 == Supernumber.eta(1, ORDER) * Supernumber.eta_hash(1, ORDER)
    assert x1.terms() == {3: (1 + 0j)}
    assert pair_product(2, ORDER).terms() == {12: (1 + 0j)}


def test_str_round_trip_smoke():
    a = 1 + 0.5 * Supernumber.eta(1, ORDER) - 2j * pair_product(2, ORDER)
    text = str(a)
    assert text  # human readable, non-empty
    assert repr(a)
