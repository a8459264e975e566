"""Superqubit states: basis labels, graded inner products, transitions,
measurement, tensor products, density matrices, compactified displacements,
and the text serialization."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superqubit.grassmann import (
    DimensionMismatch,
    ParityError,
    Supernumber,
    modified_rogers,
    pair_product,
)
from superqubit.identities import coefficient_gap, matrix_gap, rand_supernumber
from superqubit.supermatrix import Supermatrix, graded_kron, supertrace
from superqubit.superstate import (
    BULLET,
    SuperState,
    apply,
    apply_local,
    bra_coefficients,
    compactify,
    density_matrix,
    digits_of,
    grassmann_outcomes,
    grassmann_transition,
    index_of,
    inner_product,
    is_physical,
    ket_parity,
    label_of,
    measure_real,
    metric_sign,
    norm_supernumber,
    physical_pair,
    state_from_text,
    state_to_text,
    superqubit,
    tensor,
    transition_real,
    upsilon,
)
from superqubit.uosp import group_element, s_matrix, u_matrix

ANGLES = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
DISPLACEMENTS = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
REALS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _states_close(a: SuperState, b: SuperState, tol=1e-12) -> bool:
    if a.parties != b.parties or a.pairs != b.pairs:
        return False
    n = 3**a.parties
    return all(
        coefficient_gap(a.left_coefficient(i), b.left_coefficient(i)) < tol
        for i in range(n)
    )


# -- basis bookkeeping -------------------------------------------------------------


def test_digit_and_label_round_trip():
    for parties in (1, 2):
        for idx in range(3**parties):
            label = label_of(idx, parties)
            assert index_of(label) == idx
            assert len(digits_of(idx, parties)) == parties
    assert label_of(8, 2) == BULLET + BULLET
    assert label_of(8, 2, ascii_bullet=True) == "**"
    assert index_of("**") == index_of(BULLET + BULLET) == 8
    assert digits_of(5, 2) == (1, 2)


def test_index_of_rejects_bad_labels():
    with pytest.raises(ValueError):
        index_of("2")
    with pytest.raises(ValueError):
        index_of("")


def test_ket_parity_counts_bullets():
    assert ket_parity(0, 1) == 0
    assert ket_parity(2, 1) == 1
    assert ket_parity(index_of("1*"), 2) == 1
    assert ket_parity(index_of("**"), 2) == 0


def test_metric_is_minus_one_only_on_double_bullet():
    for idx in range(3):
        assert metric_sign(idx, 1) == 1
    for idx in range(9):
        assert metric_sign(idx, 2) == (-1 if idx == 8 else 1)


# -- state construction ------------------------------------------------------------


def test_basis_state_and_coefficients():
    s = SuperState.basis_state("0", 1, order=2)
    assert s.left_coefficient("0") == Supernumber.one(2)
    assert s.left_coefficient("1").is_zero()
    assert s.left_coefficient(BULLET).is_zero()
    assert s.is_valid()


def test_coefficient_parity_must_match_ket_parity():
    one = Supernumber.one(2)
    eta = Supernumber.eta(1, 2)
    with pytest.raises(ParityError):
        SuperState([one, one, one], 1)  # bullet slot needs an odd coefficient
    with pytest.raises(ParityError, match="has parity mixed"):
        SuperState([one, one, one + eta], 1)
    SuperState([one, one, eta], 1)  # consistent grading is accepted


def test_coefficient_count_must_match_parties():
    one = Supernumber.one(2)
    with pytest.raises(DimensionMismatch):
        SuperState([one, one], 1)
    # one distinct generator pair of the algebra per party
    for label, parties, pairs, order, reason in (("0", 1, (3,), 2, "outside"),
                                                 ("0", 1, (0,), 2, "outside"),
                                                 ("00", 2, None, 2, "outside"),
                                                 ("00", 2, (1, 1), 4, "repeat")):
        with pytest.raises(ValueError, match=reason):
            SuperState.basis_state(label, parties, pairs=pairs, order=order)
    with pytest.raises(ValueError, match="outside"):
        SuperState([one, one, Supernumber.eta(1, 2)], 1, pairs=(2,))
    with pytest.raises(ValueError, match="one generator pair per party"):
        SuperState([Supernumber.one(4)] * 9, 2, pairs=(1,))


def test_left_and_right_coefficients_flip_odd_parts():
    s = superqubit(0.4, 0.9, -0.2)
    for i in range(3):
        left = s.left_coefficient(i)
        right = s.right_coefficient(i)
        if ket_parity(i, 1) == 0:
            assert left == right
        else:
            assert left == right.even_part() - right.odd_part()
    # the flip forms no sum, so it keeps a term below the zero rule of sums
    one, zero = Supernumber.one(2), Supernumber.zero(2)
    tiny = SuperState([one, zero, Supernumber.eta(1, 2) * 1e-15], 1)
    assert tiny.left_coefficient(2).terms() == {1: 1e-15}
    assert tiny.right_coefficient(2).terms() == {1: -1e-15}


def test_scalar_multiplication_and_equality():
    s = superqubit(0.2, 0.3, 0.4)
    t = s * 2.0
    assert coefficient_gap(t.left_coefficient(0), 2 * s.left_coefficient(0)) < 1e-15
    assert s == superqubit(0.2, 0.3, 0.4)
    assert s != t
    with pytest.raises(ParityError):  # an odd factor makes an odd vector, not a state
        s * Supernumber.eta(1, 2)


# -- single superqubits ------------------------------------------------------------


def test_superqubit_pinned_coefficients():
    p, theta, phi = 0.3, 0.7, -0.2
    s = superqubit(p, theta, phi)
    alpha = complex(math.cos(theta))
    beta = complex(math.cos(phi), math.sin(phi)) * math.sin(theta)
    eta = Supernumber.eta(1, 2)
    eta_h = Supernumber.eta_hash(1, 2)
    x = pair_product(1, 2)
    gamma = Supernumber.one(2) + (p * p / 2) * x
    assert coefficient_gap(s.left_coefficient("0"), alpha * gamma) < 1e-15
    assert coefficient_gap(s.left_coefficient("1"), beta * gamma) < 1e-15
    want = p * (alpha * eta - beta * eta_h)
    assert coefficient_gap(s.right_coefficient(BULLET), want) < 1e-15
    assert coefficient_gap(s.left_coefficient(BULLET), -want) < 1e-15


def test_superqubit_equals_group_action_on_vacuum():
    p, theta, phi = -0.45, 1.2, 0.8
    vac = SuperState.basis_state("0", 1, order=2)
    assert _states_close(apply(vac, group_element(theta, phi, p)), superqubit(p, theta, phi))


@settings(max_examples=50, deadline=None)
@given(DISPLACEMENTS, ANGLES, ANGLES)
def test_superqubit_norm_is_exactly_one(p, theta, phi):
    s = superqubit(p, theta, phi)
    nrm = norm_supernumber(s)
    assert set(nrm.terms()) <= {0}  # the nilpotent part cancels identically
    assert abs(nrm.body - 1) < 1e-12


@pytest.mark.xfail(strict=True, reason=(
    "every arithmetic result drops coefficients <= PRUNE_TOL: the p^2/2 term of "
    "gamma (7.2e-15) is dropped while the p^2 cross terms (1.44e-14) are kept, so "
    "the norm keeps -1.44e-14 eta1 eta1#; dropping only exact zeros instead leaves "
    "~1e-16 rounding souls on other norms, and a relative rule still leaves souls "
    "on rotated two-party outcome sums"))
def test_small_displacement_norm_keeps_pruned_term():
    nrm = norm_supernumber(superqubit(1.2e-7, 0.7, 0.2))
    assert set(nrm.terms()) <= {0}
    assert abs(nrm.body - 1) < 1e-12


@settings(max_examples=50, deadline=None)
@given(DISPLACEMENTS, ANGLES, ANGLES)
def test_superqubit_measurement_distribution(p, theta, phi):
    probs = measure_real(superqubit(p, theta, phi))
    alpha = math.cos(theta)
    beta = math.sin(theta)
    assert probs[0] == pytest.approx((1 - p * p) * alpha * alpha, abs=1e-12)
    assert probs[1] == pytest.approx((1 - p * p) * beta * beta, abs=1e-12)
    assert probs[2] == pytest.approx(p * p, abs=1e-12)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_measurement_signs_on_basis_states():
    for label in ("0", "1"):
        probs = measure_real(SuperState.basis_state(label, 1, order=2))
        want = [1.0 if label_of(i, 1) == label else 0.0 for i in range(3)]
        assert probs == pytest.approx(want, abs=1e-15)


def test_graded_bullet_state_measures_plus_one():
    # the physical third-outcome state carries an odd coefficient; the grading
    # signs conspire to give it unit probability and unit norm
    zero = Supernumber.zero(2)
    s = SuperState([zero, zero, Supernumber.eta(1, 2)], 1)
    assert measure_real(s) == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)
    assert modified_rogers(norm_supernumber(s)) == pytest.approx(1.0, abs=1e-15)


def test_formal_bullet_basis_vector_is_not_physical():
    # the ungraded basis vector is a bookkeeping object: its measurement
    # functional is -1, which is why states must carry graded coefficients
    probs = measure_real(SuperState.basis_state(BULLET, 1, order=2))
    assert probs == pytest.approx([0.0, 0.0, -1.0], abs=1e-15)


# -- inner products ----------------------------------------------------------------


def test_double_bullet_basis_vector_has_negative_norm():
    # the formal double-bullet basis ket is the single negative direction of
    # the two-party metric
    s = SuperState.basis_state("**", 2, order=4)
    assert inner_product(s, s) == Supernumber.from_complex(-1.0, 4)


def test_graded_double_bullet_state_has_positive_norm():
    order = 4
    eta_a = Supernumber.eta(1, order)
    eta_b = Supernumber.eta(2, order)
    coeffs = [Supernumber.zero(order)] * 8 + [eta_a * eta_b]
    s = SuperState(coeffs, 2, order=order)
    val = inner_product(s, s)
    assert val == pair_product(1, order) * pair_product(2, order)
    assert modified_rogers(val) == pytest.approx(1.0, abs=1e-15)


def test_inner_product_conjugate_symmetry():
    rng = random.Random(6)
    for _ in range(10):
        u = superqubit(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3))
        v = superqubit(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3))
        lhs = inner_product(u, v)
        rhs = inner_product(v, u).hash()
        assert coefficient_gap(lhs, rhs) < 1e-13


def test_inner_product_is_one_sum():
    # <u|v> sums the kets' products once and prunes once: two products of
    # 6e-15 on one monomial add up to one above PRUNE_TOL
    one, zero = Supernumber.one(2), Supernumber.zero(2)
    x = Supernumber(2, {3: 1.0}) * 6e-15
    got = inner_product(SuperState([one, one, zero], 1), SuperState([x, x, zero], 1))
    assert got.terms() == {3: 1.2e-14}


def test_inner_product_requires_matching_shape():
    a = superqubit(0.1, 0.2, 0.3)
    b = upsilon(0.1, 0.2)
    with pytest.raises(DimensionMismatch):
        inner_product(a, b)


# -- transition probabilities ------------------------------------------------------


def test_transition_pinned_example():
    u = superqubit(0.3, 0.0, 0.0)
    v = superqubit(0.1, 0.0, 0.0)
    g = grassmann_transition(u, v)
    assert coefficient_gap(g, 1 + 0.04 * pair_product(1, 2)) < 1e-15
    assert transition_real(u, v) == pytest.approx(0.96, abs=1e-15)


@settings(max_examples=80, deadline=None)
@given(DISPLACEMENTS, DISPLACEMENTS, ANGLES, ANGLES, ANGLES, ANGLES)
def test_transition_closed_form(p, q, t1, f1, t2, f2):
    u = superqubit(p, t1, f1)
    v = superqubit(q, t2, f2)
    overlap = math.cos(t1) * math.cos(t2) + (
        complex(math.cos(f1), -math.sin(f1))
        * complex(math.cos(f2), math.sin(f2))
        * math.sin(t1)
        * math.sin(t2)
    )
    want = abs(overlap) ** 2 * (1 - (p - q) ** 2)
    assert transition_real(u, v) == pytest.approx(want, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
    st.floats(min_value=-0.5, max_value=0.5, allow_nan=False),
    ANGLES,
    ANGLES,
)
def test_transitions_nonnegative_on_physical_displacements(p, q, t1, t2):
    val = transition_real(superqubit(p, t1, 0.0), superqubit(q, t2, 0.0))
    assert val >= -1e-14


def test_transition_factorizes_for_product_displacements():
    rng = random.Random(17)
    one = Supernumber.one(4)
    xa, xb = pair_product(1, 4), pair_product(2, 4)
    for _ in range(20):
        pa, pb, qa, qb = (rng.uniform(-1, 1) for _ in range(4))
        g = grassmann_transition(upsilon(pa, pb), upsilon(qa, qb))
        want = (one + (pa - qa) ** 2 * xa) * (one + (pb - qb) ** 2 * xb)
        assert coefficient_gap(g, want) < 1e-13
        val = transition_real(upsilon(pa, pb), upsilon(qa, qb))
        assert val == pytest.approx(
            (1 - (pa - qa) ** 2) * (1 - (pb - qb) ** 2), abs=1e-13
        )


# -- the shared two-party state ----------------------------------------------------


def test_upsilon_pinned_coefficients():
    pa, pb = 0.3, -0.4
    ups = upsilon(pa, pb)
    order = 4
    inv = 1 / math.sqrt(2)
    eta_a, eta_b = Supernumber.eta(1, order), Supernumber.eta(2, order)
    xa, xb = pair_product(1, order), pair_product(2, order)
    gamma_a = Supernumber.one(order) + (pa * pa / 2) * xa
    gamma_b = Supernumber.one(order) + (pb * pb / 2) * xb
    diag = inv * (gamma_a * gamma_b)
    assert coefficient_gap(ups.left_coefficient("00"), diag) < 1e-15
    assert coefficient_gap(ups.left_coefficient("11"), diag) < 1e-15
    assert coefficient_gap(ups.left_coefficient("1*"), pb * (eta_b * gamma_a)) < 1e-15
    assert coefficient_gap(ups.left_coefficient("*1"), pa * (eta_a * gamma_b)) < 1e-15
    assert coefficient_gap(
        ups.left_coefficient("**"), -((pa * pb) * (eta_a * eta_b))
    ) < 1e-15
    for label in ("01", "10", "0*", "*0"):
        assert ups.left_coefficient(label).is_zero()


def test_upsilon_norm_and_outcome_sum_are_exactly_one():
    rng = random.Random(23)
    for _ in range(10):
        ups = upsilon(rng.uniform(-1, 1), rng.uniform(-1, 1))
        nrm = norm_supernumber(ups)
        assert set(nrm.terms()) <= {0}
        assert abs(nrm.body - 1) < 1e-14
        total = Supernumber.zero(4)
        for t in grassmann_outcomes(ups):
            total = total + t
        assert set(total.terms()) <= {0}
        assert abs(total.body - 1) < 1e-14


def test_measure_real_is_the_norm_of_each_grassmann_outcome():
    # measure_real reads each norm off x_I and hash(x_I) without forming
    # the product, so only the rounding of the sum may differ
    rng = random.Random(31)
    states = [superqubit(rng.uniform(-1.5, 1.5), rng.uniform(-6, 6), rng.uniform(-6, 6))
              for _ in range(10)]
    for _ in range(10):
        za, zb = (group_element(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-0.5, 0.5),
                                order=4, pair=pair) for pair in (1, 2))
        states.append(apply_local(upsilon(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)), za, zb))
    states += [SuperState.basis_state(label, 2) for label in ("00", "1*", "**")]
    for state in states:
        want = [modified_rogers(t).real for t in grassmann_outcomes(state)]
        assert measure_real(state) == pytest.approx(want, abs=1e-14)


def test_measure_real_writes_no_negative_zero():
    # an empty outcome on a ket of outcome sign -1 reads +0.0, as its
    # Rogers norm does
    for state in (superqubit(0.0, 0.3, 0.1), SuperState.basis_state("00", 2)):
        for prob in measure_real(state):
            assert prob != 0.0 or math.copysign(1.0, prob) == 1.0


# -- tensor products and party swap ------------------------------------------------


def test_tensor_pinned_coefficients():
    a = superqubit(0.3, 0.5, 0.1, order=4, pair=1)
    b = superqubit(-0.2, 1.1, -0.7, order=4, pair=2)
    t = tensor(a, b)
    # even x even: plain product of the left coefficients
    want = a.left_coefficient("0") * b.left_coefficient("1")
    assert coefficient_gap(t.left_coefficient("01"), want) < 1e-14
    # odd second factor: the first factor's odd part flips sign when pulled left
    am = a.left_coefficient("1")
    flip = am.even_part() - am.odd_part()
    want = flip * b.left_coefficient(BULLET)
    assert coefficient_gap(t.left_coefficient("1*"), want) < 1e-14
    bb = b.left_coefficient(BULLET)
    aa = a.left_coefficient(BULLET)
    flip = aa.even_part() - aa.odd_part()
    assert coefficient_gap(t.left_coefficient("**"), flip * bb) < 1e-14


def test_tensor_requires_disjoint_pairs():
    a = superqubit(0.1, 0.2, 0.3, order=4, pair=1)
    b = superqubit(0.4, 0.5, 0.6, order=4, pair=1)
    with pytest.raises(ValueError):
        tensor(a, b)
    with pytest.raises(ValueError, match="two single-party states"):
        tensor(upsilon(0.1, 0.2), superqubit(0.4, 0.5, 0.6, order=4, pair=2))


def test_tensor_requires_matching_order():
    a = superqubit(0.1, 0.2, 0.3, order=2, pair=1)
    b = superqubit(0.4, 0.5, 0.6, order=4, pair=2)
    with pytest.raises(DimensionMismatch):
        tensor(a, b)


def test_tensor_inner_product_factorizes():
    rng = random.Random(31)
    for _ in range(8):
        a = superqubit(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3), order=4, pair=1)
        b = superqubit(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3), order=4, pair=2)
        c = superqubit(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3), order=4, pair=1)
        d = superqubit(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3), order=4, pair=2)
        lhs = inner_product(tensor(a, b), tensor(c, d))
        rhs = inner_product(a, c) * inner_product(b, d)
        assert coefficient_gap(lhs, rhs) < 1e-12


def test_swap_parties_of_tensor_product():
    rng = random.Random(37)
    for _ in range(8):
        a = superqubit(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3), order=4, pair=1)
        b = superqubit(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3), order=4, pair=2)
        assert _states_close(tensor(a, b).swap_parties(), tensor(b, a))


def test_swap_parties_is_involutive():
    ups = upsilon(0.3, -0.2)
    assert _states_close(ups.swap_parties().swap_parties(), ups)


def test_swap_parties_needs_two_parties():
    with pytest.raises(ValueError):
        superqubit(0.1, 0.2, 0.3).swap_parties()


# -- operators, density matrices, bras ---------------------------------------------


def test_apply_local_matches_kron_order():
    ups = upsilon(0.2, 0.3)
    za = s_matrix(0.15, 4, pair=1)
    zb = u_matrix(0.7, -0.4, 4)
    rotated = apply_local(ups, za, zb)
    assert rotated.parties == 2
    nrm = norm_supernumber(rotated)
    assert set(nrm.terms()) <= {0}
    assert abs(nrm.body - 1) < 1e-13


def _random_two_party_state(rng):
    """Dense random even state over CL_4: odd kets get odd coefficients."""
    return SuperState(
        [rand_supernumber(rng, 4, ket_parity(i, 2)) for i in range(9)], 2, order=4)


def test_apply_local_matches_graded_kron_oracle():
    rng = random.Random(53)
    states = [upsilon(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(4)]
    states += [_random_two_party_state(rng) for _ in range(8)]
    par = tuple(ket_parity(i, 2) for i in range(9))
    for state in states:
        za, zb = (
            group_element(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-0.5, 0.5),
                          order=4, pair=pair)
            for pair in (1, 2)
        )
        rotated = apply_local(state, za, zb)
        col = Supermatrix.column(state.right_coefficients(), par, 0, order=4)
        want = graded_kron(za, zb) @ col
        for i in range(9):
            assert coefficient_gap(rotated.right_coefficient(i), want[i, 0]) <= 1e-14


def test_apply_local_rejects_odd_or_misshapen_factors():
    ups = upsilon(0.2, 0.3)
    z = u_matrix(0.4, 0.1, 4)
    odd = Supermatrix.zeros((0, 0, 1), (0, 0, 1), 4, parity=1)
    with pytest.raises(ParityError):
        apply_local(ups, odd, z)
    with pytest.raises(ParityError):
        apply_local(ups, z, odd)
    with pytest.raises(DimensionMismatch):
        apply_local(ups, z, u_matrix(0.4, 0.1, 2))
    with pytest.raises(DimensionMismatch):
        apply_local(ups, Supermatrix.identity((0, 1), 4), z)
    # each takes its own number of parties
    with pytest.raises(ValueError, match="needs a two-party state"):
        apply_local(superqubit(0.1, 0.2, 0.3, order=4), z, z)
    with pytest.raises(ValueError, match="takes a single-party state"):
        apply(ups, z)


def test_apply_local_rejects_group_elements_with_other_row_labels():
    # an even 3x3 on columns (0, 1, bullet) whose rows are labelled (0, 1, 0):
    # the result would carry the standard kets and break the parity rule, and
    # Bob's row labels also set the Koszul signs of Alice's half
    ups = upsilon(0.2, 0.3)
    z = u_matrix(0.3, 0.1, 4)
    relabelled = Supermatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]], (0, 1, 0), (0, 0, 1), 0, order=4)
    for z_a, z_b in ((z, relabelled), (relabelled, z)):
        with pytest.raises(DimensionMismatch, match="group elements on"):
            apply_local(ups, z_a, z_b)
    assert apply_local(ups, z, z).is_valid()


def test_density_matrix_properties():
    rng = random.Random(41)
    for _ in range(8):
        s = superqubit(rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-3, 3))
        rho = density_matrix(s)
        assert rho.parity == 0
        tr = supertrace(rho)
        assert set(tr.terms()) <= {0}
        assert abs(tr.body - 1) < 1e-13
        assert matrix_gap(rho.grade_adjoint(), rho) < 1e-13


def test_density_matrix_pinned_displaced_vacuum():
    p = 0.3
    rho = density_matrix(superqubit(p, 0.0, 0.0))
    order = 2
    x = pair_product(1, order)
    eta = Supernumber.eta(1, order)
    eta_h = Supernumber.eta_hash(1, order)
    assert coefficient_gap(rho[0, 0], 1 + p * p * x) < 1e-14
    assert rho[1, 1].is_zero()
    assert coefficient_gap(rho[2, 2], p * p * x) < 1e-14
    assert coefficient_gap(rho[0, 2], p * eta_h) < 1e-14
    assert coefficient_gap(rho[2, 0], p * eta) < 1e-14
    tr = supertrace(rho)
    assert tr == Supernumber.one(order)


def test_bra_coefficients_single_and_two_party():
    s = superqubit(0.3, 0.4, 0.5)
    bras = bra_coefficients(s)
    for i in range(3):
        assert bras[i] == s.right_coefficient(i).hash()
    ups = upsilon(0.2, -0.3)
    bras = bra_coefficients(ups)
    assert bras[8] == -ups.right_coefficient(8).hash()


# -- compactified displacements ----------------------------------------------------


def test_compactify_pinned_values():
    # the window is anchored so that a vanishing displacement sits on the
    # lower edge and a half turn sits at the centre
    assert compactify(0.0) == -0.5
    assert compactify(math.pi) == 0.0
    assert compactify(math.pi / 2) == -0.25
    assert compactify(-math.pi / 2) == 0.25


@settings(max_examples=200, deadline=None)
@given(REALS)
# x + 2 pi rounds onto a whole turn while x / 2 pi sits just below it
@example(-4.19e-16)
def test_compactify_lands_in_half_open_box(x):
    c = compactify(x)
    assert -0.5 <= c < 0.5
    assert compactify(x + 2 * math.pi) == pytest.approx(c, abs=1e-9)


def test_compactify_rejects_non_finite():
    with pytest.raises(ValueError):
        compactify(math.inf)
    with pytest.raises(ValueError):
        compactify(math.nan)


def test_is_physical_and_physical_pair():
    assert is_physical(0.5)
    assert is_physical(-0.5)
    assert not is_physical(0.500001)
    assert physical_pair(0.1, -0.3) == (True, True)
    # box membership is the stricter condition
    assert physical_pair(0.7, 0.2) == (True, False)
    assert physical_pair(0.9, -0.9) == (False, False)


@settings(max_examples=100, deadline=None)
@given(REALS, ANGLES, ANGLES)
def test_compactified_states_have_physical_probabilities(x, theta, phi):
    probs = measure_real(superqubit(compactify(x), theta, phi))
    for value in probs:
        assert -1e-12 <= value <= 1 + 1e-12


# -- serialization -----------------------------------------------------------------


def test_text_round_trip_single_party():
    s = superqubit(0.37, 1.1, -2.2)
    text = state_to_text(s)
    assert text.splitlines()[0].startswith("superqubit-state v1")
    back = state_from_text(text)
    assert _states_close(back, s, tol=1e-15)


def test_text_round_trip_two_party():
    ups = upsilon(0.21, -0.43)
    za = group_element(0.5, 0.6, 0.1, order=4, pair=1)
    zb = group_element(-0.8, 0.2, -0.3, order=4, pair=2)
    rotated = apply_local(ups, za, zb)
    back = state_from_text(state_to_text(rotated))
    assert _states_close(back, rotated, tol=1e-15)


def test_text_record_holds_left_pulled_coefficients():
    # the odd part of the |•> coefficient with the left-pulled sign: S(2p eta)|0>
    # has right coordinate p eta there, and the record holds -p eta
    assert state_to_text(superqubit(0.5, 0.0, 0.0)) == (
        "superqubit-state v1\nparties 1\norder 2\npairs 1\n"
        "ket 0\n  term - 1.0 0.0\n  term 1,2 0.125 0.0\n"
        "ket *\n  term 1 -0.5 0.0\nend\n")


def test_text_round_trip_preserves_repr_exactly():
    s = superqubit(1 / 3, 0.123456789012345, -0.9)
    back = state_from_text(state_to_text(s))
    for i in range(3):
        assert back.left_coefficient(i).terms() == s.left_coefficient(i).terms()


def test_text_parser_rejects_malformed_input():
    s = superqubit(0.1, 0.2, 0.3)
    text = state_to_text(s)
    with pytest.raises(ValueError):
        state_from_text(text.replace("superqubit-state v1", "something-else"))
    with pytest.raises(ValueError):
        state_from_text(text.replace("ket 0", "ket 7"))
    with pytest.raises(ValueError, match="outside the declared basis"):
        state_from_text(text.replace("ket 0", "ket 11"))  # a two-party ket
    with pytest.raises(ValueError, match="outside the declared basis"):
        state_from_text(text.replace("ket 1", "ket 01"))  # |1> with a leading digit
    with pytest.raises(ValueError):
        state_from_text("")
    nan_term = text.replace("term - 0.9800665778412416 0.0", "term - nan 0.0")
    assert nan_term != text
    with pytest.raises(ValueError, match="not finite"):  # not dropped as zero
        state_from_text(nan_term)
    for header in ("parties", "order", "ket"):
        with pytest.raises(ValueError, match=f"'{header}'"):
            state_from_text(f"superqubit-state v1\n{header}\nend\n")
    # eta2 eta1 = -eta1 eta2 and eta1 eta1 = 0; "1,2" repeats a later line of ket 0
    for gens, reason in (("2,1", "ascending"), ("1,1", "ascending"), ("0", "within"),
                         ("1,2", "repeats")):
        with pytest.raises(ValueError, match=reason):
            state_from_text(text.replace("term - 0.9800665778412416 0.0", f"term {gens} 0.5 0.0"))
    with pytest.raises(ParityError):  # the odd bullet coefficient on the even ket |1>
        state_from_text(text.replace("ket *", "ket 1"))
    for fields in ("- 1 0 0", "- 1"):
        with pytest.raises(ValueError, match=f"'term {fields}'"):
            state_from_text(text.replace("term - 0.9800665778412416 0.0", f"term {fields}"))
    # order 2 has one generator pair; a two-party state needs two distinct ones
    with pytest.raises(ValueError, match="outside"):
        state_from_text(text.replace("pairs 1", "pairs 2"))
    two = state_to_text(upsilon(0.2, 0.3))
    with pytest.raises(ValueError, match="repeat"):
        state_from_text(two.replace("pairs 1 2", "pairs 1 1"))
    # a term with no ket, an unknown record line, a record with no order line
    with pytest.raises(ValueError, match="term line before header/ket lines"):
        state_from_text("superqubit-state v1\nparties 1\norder 2\nterm - 1.0 0.0\nend\n")
    with pytest.raises(ValueError, match="unrecognized record line 'spin 1'"):
        state_from_text(text.replace("order 2", "order 2\nspin 1"))
    with pytest.raises(ValueError, match="incomplete state record"):
        state_from_text("superqubit-state v1\nparties 1\nend\n")


def test_text_parser_rejects_a_repeated_header_line():
    # a second parties line would drop every ket read so far, and a second
    # order or pairs line would change the algebra of the terms already read
    text = state_to_text(superqubit(0.3, 0.4, 0.1))
    for line in ("parties 1", "order 2", "pairs 1"):
        with pytest.raises(ValueError, match=f"'{line}' repeats the {line.split()[0]} line"):
            state_from_text(text.replace("end", f"{line}\nend"))


def test_text_parser_rejects_terms_outside_the_pairs_line():
    # pair k holds generators 2k - 1 and 2k: an order-4 record of a state on
    # pair 1 relabelled to pair 2 must not parse as a state on pair 2
    text = state_to_text(superqubit(0.3, 0.4, 0.1, order=4, pair=1))
    assert state_from_text(text).pairs == (1,)
    with pytest.raises(ValueError, match=r"'term 1,2 .*' uses a generator outside the record's pairs 2$"):
        state_from_text(text.replace("pairs 1", "pairs 2"))
    # without a pairs line the parties take pairs 1.., which must hold the terms too
    other = state_to_text(superqubit(0.3, 0.4, 0.1, order=4, pair=2))
    assert state_from_text(other).pairs == (2,)
    with pytest.raises(ValueError, match="outside the record's pairs 1$"):
        state_from_text(other.replace("pairs 2\n", ""))
    two = state_to_text(upsilon(0.2, 0.3))
    assert state_from_text(two).pairs == (1, 2)
