"""uosp(1|2) over CL_N: generators, algebra elements, group elements S(2p eta) U(theta, phi).

All matrices are 3x3 over the graded basis (|0>, |1>, |bullet>) with
parities (0, 0, 1).  Generators act in an ambient algebra of order N
(N=2 single party, N=4 two parties); the anticommuting pair whose
generators multiply the odd generators is selected by the `pair` argument
of algebra_element, s_matrix and group_element.  U(theta, phi) has
alpha = cos(theta) and beta = e^(i phi) sin(theta), so |alpha|^2 + |beta|^2 = 1
for any angles; exp(zeta Q1 + zeta# Q2) is exp_nilpotent(odd_exponent(zeta)).
"""

from __future__ import annotations

import math

from .grassmann import COMPARE_TOL, MAX_ORDER, Supernumber, _new as _new_number, _pruned
from .supermatrix import Supermatrix, _new

VEC_PARITY = (0, 0, 1)


def generators(order: int = 2):
    """The five generators (A1, A2, A3, Q1, Q2); A's even, Q's odd.

    Their entries are numbers; the generator pair enters only through the
    odd coefficients that multiply Q1 and Q2 (see algebra_element)."""
    z = Supernumber.zero(order)

    def m(rows, parity):
        return Supermatrix(rows, VEC_PARITY, VEC_PARITY, parity, order=order)

    half_i = 0.5j
    a1 = m([[z, half_i, z], [half_i, z, z], [z, z, z]], 0)
    a2 = m([[z, 0.5, z], [-0.5, z, z], [z, z, z]], 0)
    a3 = m([[half_i, z, z], [z, -half_i, z], [z, z, z]], 0)
    q1 = m([[z, z, z], [z, z, -0.5], [-0.5, z, z]], 1)
    q2 = m([[z, z, -0.5], [z, z, z], [z, 0.5, z]], 1)
    return a1, a2, a3, q1, q2


def algebra_element(xi, p: float, order: int = 2, pair: int = 1) -> Supermatrix:
    """xi_1 A1 + xi_2 A2 + xi_3 A3 + zeta Q1 + zeta# Q2 with zeta = p eta."""
    a1, a2, a3, _, _ = generators(order)
    return xi[0] * a1 + xi[1] * a2 + xi[2] * a3 + odd_exponent(Supernumber.eta(pair, order) * p)


def s_matrix(p: float, order: int = 2, pair: int = 1) -> Supermatrix:
    """Closed form of S(2p eta) = exp(2p eta Q1 + 2p eta# Q2).

    [[1 + p^2/2 X, 0,           -p eta# ],
     [0,           1 + p^2/2 X, -p eta  ],
     [p eta,       -p eta#,     1 - p^2 X]]   with X = eta eta#.

    The entries are built as coefficient dicts, with the zero rule of the
    arithmetic that spells them out: the single terms drop only exact
    zeros, the two sums drop |c| <= PRUNE_TOL.
    """
    if order % 2 or not 0 < 2 * pair <= order <= MAX_ORDER:
        raise ValueError(f"generator pair {pair} out of range for order {order}")
    eta = 1 << (2 * pair - 2)
    etah = eta << 1

    def term(mask, c):
        return _new_number(order, {mask: complex(c)} if c else {})

    z = _new_number(order, {})
    gamma = _pruned(order, {0: 1 + 0j, eta | etah: complex(p * p / 2.0)})
    corner = _pruned(order, {0: 1 + 0j, eta | etah: complex(-(p * p))})
    rows = (
        (gamma, z, term(etah, -p)),
        (z, gamma, term(eta, -p)),
        (term(eta, p), term(etah, -p), corner),
    )
    return _new(rows, VEC_PARITY, VEC_PARITY, 0, order)


def u_matrix_from_amplitudes(alpha, beta, order: int = 2) -> Supermatrix:
    """SU(2) block embedded at the even corner: [[a, -conj(b), 0], [b, conj(a), 0], [0, 0, 1]]."""
    alpha = complex(alpha)
    beta = complex(beta)
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > COMPARE_TOL:
        raise ValueError("amplitudes must satisfy |alpha|^2 + |beta|^2 = 1")
    z = Supernumber.zero(order)
    one = Supernumber.one(order)
    rows = (
        (Supernumber.from_complex(alpha, order), Supernumber.from_complex(-beta.conjugate(), order), z),
        (Supernumber.from_complex(beta, order), Supernumber.from_complex(alpha.conjugate(), order), z),
        (z, z, one),
    )
    return _new(rows, VEC_PARITY, VEC_PARITY, 0, order)


def u_matrix(theta: float, phi: float, order: int = 2) -> Supermatrix:
    beta = complex(math.cos(phi), math.sin(phi)) * math.sin(theta)
    return u_matrix_from_amplitudes(math.cos(theta), beta, order)


def group_element(theta: float, phi: float, p: float,
                  order: int = 2, pair: int = 1) -> Supermatrix:
    """Z = S(2p eta) U(theta, phi), superunitary: the one local group element, which
    prepares superqubit(p, theta, phi) from |0> and acts as each CHSH setting."""
    return s_matrix(p, order, pair) @ u_matrix(theta, phi, order)


def odd_exponent(zeta: Supernumber) -> Supermatrix:
    """zeta Q1 + zeta# Q2 for an arbitrary odd zeta: the odd part of algebra_element."""
    order = zeta.order
    _, _, _, q1, q2 = generators(order)
    return zeta * q1 + zeta.hash() * q2
