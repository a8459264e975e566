"""One-parameter odd displacements and graded rotations on the three-state
space: generator adjoints, closed-form exponentials, group laws, superunitarity."""

import cmath
import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superqubit.grassmann import Supernumber, pair_product
from superqubit.identities import matrix_gap
from superqubit.supermatrix import Supermatrix, exp_nilpotent
from superqubit.uosp import (
    VEC_PARITY,
    algebra_element,
    generators,
    group_element,
    odd_exponent,
    s_matrix,
    u_matrix,
    u_matrix_from_amplitudes,
)

ORDER = 4
ANGLES = st.floats(min_value=-6.0, max_value=6.0, allow_nan=False)
DISPLACEMENTS = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


def _ident(order=ORDER):
    return Supermatrix.identity(VEC_PARITY, order)


# -- generators --------------------------------------------------------------------


def test_generator_parities():
    a1, a2, a3, q1, q2 = generators(ORDER)
    for even in (a1, a2, a3):
        assert even.parity == 0
    for odd in (q1, q2):
        assert odd.parity == 1


def test_generator_adjoint_relations():
    a1, a2, a3, q1, q2 = generators(ORDER)
    for even in (a1, a2, a3):
        assert even.grade_adjoint() == -even
    assert q1.grade_adjoint() == -q2
    assert q2.grade_adjoint() == q1


def test_even_generators_act_on_qubit_block_only():
    a1, a2, a3, _, _ = generators(ORDER)
    for even in (a1, a2, a3):
        for j in range(3):
            assert even[2, j].is_zero()
            assert even[j, 2].is_zero()


def test_algebra_element_is_anti_self_adjoint():
    rng = random.Random(2)
    for _ in range(25):
        xi = tuple(rng.uniform(-2, 2) for _ in range(3))
        p = rng.uniform(-1, 1)
        x = algebra_element(xi, p, ORDER)
        assert matrix_gap(x.grade_adjoint(), -x) < 1e-14
    # at p = 0 the odd part is a zero matrix, which adds to the even part
    x = algebra_element((0.3, -0.2, 0.1), 0.0, ORDER)
    assert x.parity == 0
    assert matrix_gap(x.grade_adjoint(), -x) < 1e-14


def test_algebra_element_sign_flip_breaks_anti_self_adjointness():
    a1, a2, a3, q1, q2 = generators(ORDER)
    eta = Supernumber.eta(1, ORDER)
    wrong = eta * q1 - eta.hash() * q2
    assert matrix_gap(wrong.grade_adjoint(), -wrong) > 0.5


# -- odd displacement matrices -----------------------------------------------------


def test_s_matrix_identity_at_zero():
    assert s_matrix(0.0, ORDER) == _ident()


def test_s_matrix_pinned_entries():
    p = 0.5
    s = s_matrix(p, ORDER)
    one = Supernumber.one(ORDER)
    eta = Supernumber.eta(1, ORDER)
    eta_h = Supernumber.eta_hash(1, ORDER)
    x = pair_product(1, ORDER)
    assert s[0, 0] == one + (p * p / 2) * x
    assert s[1, 1] == one + (p * p / 2) * x
    assert s[2, 2] == one - (p * p) * x
    assert s[0, 2] == -p * eta_h
    assert s[1, 2] == -p * eta
    assert s[2, 0] == p * eta
    assert s[2, 1] == -p * eta_h
    assert s[0, 1].is_zero() and s[1, 0].is_zero()


def test_s_matrix_entries_are_those_of_the_arithmetic_form():
    # bit for bit, zero rule included: the single terms drop only exact
    # zeros, and the sums drop what is <= PRUNE_TOL (the p^2/2 term inside
    # the window 1.05e-7..1.4e-7, all of p^2 at |p| <= 1e-15)
    rng = random.Random(41)
    ps = [rng.uniform(-2.0, 2.0) for _ in range(60)]
    ps += [rng.choice((-1, 1)) * rng.uniform(1.05e-7, 1.4e-7) for _ in range(30)]
    ps += [rng.uniform(-1e-15, 1e-15) for _ in range(20)] + [0.0, -0.0, 5e-324]
    for order in (2, 4, 6):
        one, z = Supernumber.one(order), Supernumber.zero(order)
        for pair in range(1, order // 2 + 1):
            eta, etah = Supernumber.eta(pair, order), Supernumber.eta_hash(pair, order)
            x = pair_product(pair, order)
            for p in ps:
                gamma = one + x * (p * p / 2.0)
                want = ((gamma, z, etah * (-p)),
                        (z, gamma, eta * (-p)),
                        (eta * p, etah * (-p), one - x * (p * p)))
                got = s_matrix(p, order, pair).entries
                for got_row, want_row in zip(got, want):
                    for g, w in zip(got_row, want_row):
                        assert repr(g.terms()) == repr(w.terms()), (order, pair, p)


@pytest.mark.parametrize("order, pair", ((2, 0), (2, 2), (4, 3), (6, -1), (3, 1)))
def test_s_matrix_rejects_a_pair_out_of_range(order, pair):
    with pytest.raises(ValueError):
        s_matrix(0.3, order, pair)


def test_s_matrix_second_pair_uses_other_generators():
    s = s_matrix(0.3, ORDER, pair=2)
    assert s[2, 0] == 0.3 * Supernumber.eta(2, ORDER)
    assert s[0, 0].terms()[12] == pytest.approx(0.3**2 / 2)


@settings(max_examples=60, deadline=None)
@given(DISPLACEMENTS)
def test_s_matrix_matches_terminating_exponential(p):
    eta = Supernumber.eta(1, ORDER)
    built = exp_nilpotent(odd_exponent((2 * p) * eta))
    assert matrix_gap(built, s_matrix(p, ORDER)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(DISPLACEMENTS, DISPLACEMENTS)
def test_s_matrix_one_parameter_group_law(p, q):
    lhs = s_matrix(p, ORDER) @ s_matrix(q, ORDER)
    assert matrix_gap(lhs, s_matrix(p + q, ORDER)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(DISPLACEMENTS)
def test_s_matrix_superunitary(p):
    s = s_matrix(p, ORDER)
    assert matrix_gap(s.grade_adjoint() @ s, _ident()) < 1e-12


def test_exp_law_fails_for_independent_odd_arguments():
    # the one-parameter law is special: exponents along different Grassmann
    # pairs do not combine additively
    z1 = 0.8 * Supernumber.eta(1, ORDER)
    z2 = 0.6 * Supernumber.eta(2, ORDER)
    lhs = exp_nilpotent(odd_exponent(z1)) @ exp_nilpotent(odd_exponent(z2))
    rhs = exp_nilpotent(odd_exponent(z1 + z2))
    assert matrix_gap(lhs, rhs) > 0.01


# -- qubit-block rotations ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ANGLES, ANGLES)
def test_u_matrix_is_superunitary(theta, phi):
    u = u_matrix(theta, phi, ORDER)
    assert matrix_gap(u.grade_adjoint() @ u, _ident()) < 1e-12


def test_u_matrix_pinned_entries():
    theta, phi = 0.7, -1.3
    u = u_matrix(theta, phi, ORDER)
    alpha = complex(math.cos(theta))
    beta = cmath.exp(1j * phi) * math.sin(theta)
    assert u[0, 0] == Supernumber.from_complex(alpha, ORDER)
    assert u[1, 0] == Supernumber.from_complex(beta, ORDER)
    assert u[0, 1] == Supernumber.from_complex(-beta.conjugate(), ORDER)
    assert u[1, 1] == Supernumber.from_complex(alpha.conjugate(), ORDER)
    assert u[2, 2] == Supernumber.one(ORDER)
    for j in range(2):
        assert u[2, j].is_zero() and u[j, 2].is_zero()


def test_u_matrix_from_amplitudes_checks_normalization():
    u = u_matrix_from_amplitudes(0.6, 0.8j, ORDER)
    assert u[0, 0] == Supernumber.from_complex(0.6, ORDER)
    with pytest.raises(ValueError):
        u_matrix_from_amplitudes(1.0, 0.5, ORDER)


def test_group_element_is_displacement_times_rotation():
    z = group_element(0.9, 0.4, -0.35, ORDER)
    assert z == s_matrix(-0.35, ORDER) @ u_matrix(0.9, 0.4, ORDER)


@settings(max_examples=40, deadline=None)
@given(ANGLES, ANGLES, DISPLACEMENTS)
def test_group_element_superunitary(theta, phi, p):
    z = group_element(theta, phi, p, ORDER)
    assert matrix_gap(z.grade_adjoint() @ z, _ident()) < 1e-12


# -- interchanging a displacement and a rotation -----------------------------------


def _conjugation_residuals(theta, phi, p):
    """Residuals of S(2 p eta) U = U S(2 p eta') for two candidate eta'."""
    u = u_matrix(theta, phi, ORDER)
    lhs = s_matrix(p, ORDER) @ u
    alpha = complex(math.cos(theta))
    beta = cmath.exp(1j * phi) * math.sin(theta)
    eta = Supernumber.eta(1, ORDER)
    eta_h = Supernumber.eta_hash(1, ORDER)
    derived = alpha * eta - beta * eta_h
    transcribed = alpha.conjugate() * eta_h + beta.conjugate() * eta
    res = []
    for candidate in (derived, transcribed):
        rhs = u @ exp_nilpotent(odd_exponent((2 * p) * candidate))
        res.append(matrix_gap(lhs, rhs))
    return res


def test_displacement_conjugation_by_rotation():
    rng = random.Random(8)
    recorded = None
    for _ in range(20):
        theta, phi = rng.uniform(-3, 3), rng.uniform(-3, 3)
        p = rng.uniform(-1, 1)
        ok, printed = _conjugation_residuals(theta, phi, p)
        assert ok < 1e-12
        if recorded is None and printed > 1e-6:
            recorded = (theta, phi, p, printed)
    # the widely transcribed variant of the replacement generator does not
    # satisfy the relation; record the observed residual for the report
    assert recorded is not None
    warnings.warn(
        "conjugation relation holds with eta' = alpha eta - beta eta#; the "
        f"transcribed variant alpha* eta# + beta* eta leaves residual {recorded[3]:.3g} "
        f"at (theta, phi, p) = {recorded[:3]}",
        stacklevel=1,
    )
