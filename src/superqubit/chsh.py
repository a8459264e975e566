"""CHSH game played with a shared two-party superqubit resource.

Strategies carry two state displacements, per-setting local displacements
and SU(2) angles for both players.  Evaluation follows the exact
Grassmann path (superstate.measure_real of the locally rotated shared
state); the shared state, Alice's rows and their Koszul-twisted copy for
each of her two settings and Bob's half of the rotation for each of his
are built once for its four settings, so a setting runs only Alice's
half and the measurement.  The optimizer uses a dense vectorized
evaluator built on the graded tensor factorisation CL_4 = CL_2 (x) CL_2 of
the two players' generator pairs.  A coefficient vector is a 4x4 array
[Bob's monomial, Alice's monomial]; an entry of Alice's group element multiplies it from
the right by a 4x4 matrix of CL_2, one of Bob's from the left up to a
constant sign.  Each local group element is linear in 12 products of
trigonometric features of its angles with powers of its displacement, so
one matrix product against tables built at import time from the exact
algebra gives every player's 12x12 left-multiplication table; two more
apply Bob and then Alice to the shared state.  The hash and the Rogers
norm fold into one symmetric 16x16 quadratic form, which factorises into a
4x4 form per player up to the sign (-1)^(|alpha| |beta|); two 4x4 products
give the amplitudes' partners under the form, and one product with a fixed
weight matrix sums amplitudes times partners into the tables.  The shared
state is real, so every product runs on real arrays: Alice's complex
tables as [[Re, Im], [-Im, Re]] blocks, Bob's as their real and imaginary
parts.  The shared state, the layout of U and the outcome signs are read
from the exact algebra too, so no sign convention is restated here.  The
test suite and `superqubit verify` hold it to the exact path within
KERNEL_TOL, and every search reports how far it lay from it.

The search (optimize) is a seeded multi-start SLSQP that maximizes p_win
under the 36 constraints t >= 0 on the four tables, with the free
displacements bounded to the box and the angles unbounded; every table row
sums to one, so t <= 1 follows.  Each point it visits is one pass of the
kernel's one entry point, _fast_tables, which returns the tables with
their exact Jacobian: a local coordinate row has closed-form derivatives
in its displacement and angles, and the shared state in p_a and p_b, so
the same products carry value and derivative rows together, and since the
form is symmetric the partners of the value rows alone give the
derivatives of the tables.  The optimum lies on the family where one
party holds all the displacement, so a full-space restart runs its first
stage on that family with Bob displaced: p_a = r = 0 and p_b = 1/2 held
fixed, s and the eight angles searched.  A second stage then releases all 14
parameters.  The sign of either party's displacements and the exchange
of the parties leave every table unchanged, so this family stands for its
three mirror images.  A stage passes the kernel the number of leading
entries it holds, and the pass computes only what the free entries can
move: it drops the derivative rows of held entries and every coordinate
and monomial that is zero at each point behind the held values, read off
the zeros of the held state and of the tables (in the family stage Alice's
monomials other than 1, in the rotation-only stage both players').  Only
exact zeros go and no product is re-associated, so a stage's pass gives the
full pass's tables and Jacobian bit for bit, SLSQP follows the same path,
and a pass costs about half as much.

Winning rule: outcomes 1 and bullet both announce bit 1; the players win
when a XOR b = i AND j, each referee question pair weighted 1/4.
_WIN_WEIGHTS states it once; every win probability here is scored with it.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grassmann import Supernumber, _coefficient_array, modified_rogers
from .superstate import (
    BOX_LIMIT,
    _OUTCOME_SIGN,
    _alice_half,
    _alice_rows,
    _bob_half,
    digits_of,
    label_of,
    measure_real,
    upsilon,
)
from .uosp import VEC_PARITY, group_element, s_matrix, u_matrix_from_amplitudes

OUTCOME_LABELS = tuple(label_of(k, 2, ascii_bullet=True) for k in range(9))
# outcome 0 announces bit 0, outcomes 1 and bullet announce bit 1
_ANNOUNCED = tuple(tuple(min(d, 1) for d in digits_of(k, 2)) for k in range(9))
WIN_SAME = tuple(k for k, (a, b) in enumerate(_ANNOUNCED) if a == b)  # 00, 11, 1*, *1, **
WIN_DIFF = tuple(k for k, (a, b) in enumerate(_ANNOUNCED) if a != b)  # 01, 10, 0*, *0
SETTINGS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class Strategy:
    """Full 14-parameter strategy: state displacements p_a, p_b; Alice's
    per-bit displacements r and angle pairs alice; Bob's s and bob."""

    p_a: float = 0.0
    p_b: float = 0.0
    r: tuple[float, float] = (0.0, 0.0)
    s: tuple[float, float] = (0.0, 0.0)
    alice: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 0.0), (0.0, 0.0))
    bob: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 0.0), (0.0, 0.0))

    def to_vector(self) -> list[float]:
        return [
            self.p_a, self.p_b,
            self.r[0], self.r[1], self.s[0], self.s[1],
            self.alice[0][0], self.alice[0][1], self.alice[1][0], self.alice[1][1],
            self.bob[0][0], self.bob[0][1], self.bob[1][0], self.bob[1][1],
        ]

    @staticmethod
    def from_vector(vec) -> "Strategy":
        v = [float(x) for x in vec]
        if len(v) != 14:
            raise ValueError(f"strategy vector needs 14 entries, got {len(v)}")
        return Strategy(
            p_a=v[0], p_b=v[1],
            r=(v[2], v[3]), s=(v[4], v[5]),
            alice=((v[6], v[7]), (v[8], v[9])),
            bob=((v[10], v[11]), (v[12], v[13])),
        )

    def swapped(self) -> "Strategy":
        """Exchange the players' roles (the game matrix is symmetric)."""
        return Strategy(p_a=self.p_b, p_b=self.p_a, r=self.s, s=self.r,
                        alice=self.bob, bob=self.alice)

    @staticmethod
    def tsirelson() -> "Strategy":
        """Quantum strategy reaching cos^2(pi/8): all super parameters zero,
        Alice measures at angles (0, pi/4), Bob at (pi/8, -pi/8)."""
        return Strategy(
            alice=((0.0, 0.0), (math.pi / 4.0, 0.0)),
            bob=((math.pi / 8.0, 0.0), (-math.pi / 8.0, 0.0)),
        )


def outcome_probs(i: int, j: int, strat: Strategy) -> list[float]:
    """Nine outcome probabilities for question pair (i, j), exact path:
    measure_real of the shared state after Alice's group element for
    setting i and Bob's for setting j, that is apply_local's two halves.
    The shared state, Alice's rows for each of her settings and Bob's half
    for each of his are built once and kept for the next call."""
    state, alice, bob_halves = _strategy_parts(
        np.array(strat.to_vector(), dtype=float).tobytes())
    return measure_real(_alice_half(state, alice[i], bob_halves[j]))


@lru_cache(maxsize=1)  # callers ask for the four settings of one strategy in a row
def _strategy_parts(vec: bytes):
    """(upsilon, Alice's rows and their twisted copy (_alice_rows) for each
    of her two group elements, Bob's half of apply_local on upsilon for
    each of his two) of the strategy vector with these float64 bytes.
    Keyed on the bytes, not on float equality, so that -0.0 and 0.0 are
    different keys and no earlier call decides what a later one returns."""
    strat = Strategy.from_vector(np.frombuffer(vec).tolist())
    state = upsilon(strat.p_a, strat.p_b)
    alice = tuple(_alice_rows(group_element(*strat.alice[i], strat.r[i], 4, 1)) for i in (0, 1))
    bob_halves = tuple(_bob_half(state, group_element(*strat.bob[j], strat.s[j], 4, 2))
                       for j in (0, 1))
    return state, alice, bob_halves


def win_prob(strat: Strategy, tables=None) -> float:
    """Win probability on the exact path, or on the four tables of strat
    if given."""
    if tables is None:
        tables = [outcome_probs(i, j, strat) for (i, j) in SETTINGS]
    return _pwin_from_tables(tables)


def constraint_violation(strat: Strategy, tables=None) -> float:
    """Largest distance of any of the 36 probabilities outside [0, 1],
    plus the total box excess of |p|, |r|, |s| beyond 1/2; inf if any is not finite."""
    shifts = (strat.p_a, strat.p_b, *strat.r, *strat.s)
    if not all(map(math.isfinite, shifts)):
        return math.inf
    if tables is None:
        tables = [outcome_probs(i, j, strat) for (i, j) in SETTINGS]
    box = sum(max(0.0, abs(x) - BOX_LIMIT) for x in shifts)
    return _table_violation(np.asarray(tables, dtype=float)) + box


def best_classical_win_prob() -> float:
    """Best score over the 16 deterministic strategies: Alice answers a[i]
    and Bob b[j], so each table is 1 on outcome 3 a[i] + b[j]."""
    return max(_pwin_from_tables(np.eye(9)[[3 * a[i] + b[j] for (i, j) in SETTINGS]])
               for a in itertools.product((0, 1), repeat=2)
               for b in itertools.product((0, 1), repeat=2))


# -- plain complex-arithmetic reference (no Grassmann code path) ---------------


def _su2(theta: float, phi: float) -> np.ndarray:
    a = math.cos(theta)
    b = cmath.exp(1j * phi) * math.sin(theta)
    return np.array([[a, -b.conjugate()], [b, a]], dtype=complex)


def oracle_outcome_probs(i: int, j: int, strat: Strategy) -> list[float]:
    """Two-qubit reference evaluation: Bell state (|00>+|11>)/sqrt(2) rotated
    by SU(2) x SU(2).  Valid comparison point when all super parameters are
    zero; deliberately shares no code with the Grassmann machinery."""
    ua = _su2(*strat.alice[i])
    ub = _su2(*strat.bob[j])
    amp = (ua @ ub.T) / math.sqrt(2.0)
    out = [0.0] * 9
    for m in range(2):
        for n in range(2):
            out[3 * m + n] = abs(amp[m, n]) ** 2
    return out


def oracle_win_prob(strat: Strategy) -> float:
    return _pwin_from_tables([oracle_outcome_probs(i, j, strat) for (i, j) in SETTINGS])


# -- vectorized evaluator: CL_4 = CL_2 (x) CL_2, one factor per party ---------
#
# A coefficient vector over CL_4 is a 4x4 array [beta, alpha] with monomial
# mask alpha | beta << 2: alpha runs over Alice's generator pair, beta over
# Bob's.  Alice's generators come first, so e_x e_y = (-1)^(|beta_x| |alpha_y|)
# (e_alpha_x e_alpha_y) (e_beta_x e_beta_y).  Left multiplication by an entry
# a of Alice's group element is X -> X @ L1(a); by an entry b of Bob's it is
# X -> (-1)^(|b| |alpha|) * (L2(b)^T X), where L1 and L2 are the 4x4
# left-multiplication matrices of each factor CL_2.
#
# Every monomial of the shared state's entry on ket (j, l) has an alpha of
# parity |j|, and Bob's entries, which act on beta alone, keep it so.  With
# |B_kl| = |k| + |l|, Bob's sign and the graded Kronecker sign
# (-1)^((|i| + |j|) |k|) of Alice's entry A_ij multiply to
# (-1)^(|j| |l|) (-1)^(|i| |k|).  The first sits in the state (_upsilon_terms);
# the second flips a whole amplitude, which its norm does not see.
#
# The hash/Rogers form factorises over the players as well:
# KH[(beta, alpha), (beta', alpha')] = (-1)^(|alpha| |beta|) Kb[beta, beta']
# Ka[alpha, alpha'] (checked at import), so the probability of an amplitude
# M[beta, alpha] is its outcome's prefactor times
# Re sum_(beta, alpha) (-1)^(|alpha| |beta|) M o conj(Kb M Ka^T).  Two 4x4
# products (_fold) give that partner from M, and one product with a fixed
# weight matrix (_WEIGHTS) takes the sum.  The shared state is real and U is
# complex only through Im beta, so every product runs on real arrays:
# Bob's tables as Br and Bi, Alice's as the blocks [[Ar, Ai], [-Ai, Ar]],
# with [Xr | Xi] @ [[Ar, Ai], [-Ai, Ar]] = [Re XA | Im XA].


def _build_kernel_tables():
    """Structure tensor, folded hash/Rogers form and displacement tables of
    the dense evaluator, generated from the exact algebra so every sign
    convention is inherited rather than restated."""
    basis = [Supernumber(4, {x: 1.0}) for x in range(16)]
    m = np.zeros((16, 16, 16))  # e_x e_y = sum_z m[x, y, z] e_z
    for x, y in np.ndindex(16, 16):
        for z, c in (basis[x] * basis[y]).terms().items():
            m[x, y, z] = c.real
    w = np.array([modified_rogers(e).real if e.parity() == 0 else 0.0 for e in basis])
    # hash(c e_y) = conj(c) hsign[y] e_hperm[y]; folding it into the Rogers
    # weights of products gives modified_rogers(x hash(x)) = x @ kh @ conj(x)
    hperm, hsign = zip(*(next(iter(e.hash().terms().items())) for e in basis))
    kh = (m @ w)[:, list(hperm)] * np.real(hsign)
    # S(2 p eta) is quadratic in p, since eta eta# squares to zero:
    # S0 + p S1 + p^2 S2, fixed by its values at p = 0, 1, -1
    powers = []
    for pair in (1, 2):
        s0, plus, minus = (_coefficient_array(4, s_matrix(p, 4, pair).entries)
                           for p in (0.0, 1.0, -1.0))
        powers.append(np.stack((s0, (plus - minus) / 2, (plus + minus) / 2 - s0)))
    return m, kh, np.stack(powers)


# _S_POWERS[party, n, row, col, monomial]: the p^n part of S(2 p eta) on
# Alice's generator pair (party 0) and on Bob's (party 1)
_M, _KH, _S_POWERS = _build_kernel_tables()

# _SIGMA[beta, alpha] = (-1)^(|alpha| |beta|), read from e_beta e_alpha
_SIGMA = np.array([[_M[b << 2, a, a | b << 2] for a in range(4)] for b in range(4)])
_KA, _KB = _KH[:4, :4], _KH[::4, ::4]
assert np.array_equal(_KH.reshape(4, 4, 4, 4), np.einsum("ba,bc,ad->bacd", _SIGMA, _KB, _KA))


def _build_local_tables():
    """Left-multiplication tables of the local group elements Z = S U,
    linear in the 12 products of [1, cos theta, sin theta cos phi,
    sin theta sin phi] (U) with [1, p, p^2] (S).

    Alice's table [(q, n), (j, alpha, i, alpha')] holds L1(Z_ij), Bob's
    [(q, n), (k, beta', l, beta)] holds L2(Z_kl)^T.  Each party's S has
    monomials of its own factor only: masks 0..3 for Alice, 0, 4, 8, 12
    for Bob.
    """
    # U(alpha, beta) with alpha = cos(theta) real is linear in
    # [1, alpha, Re beta, Im beta], fixed by its values at alpha = +-1, beta = 1, i
    plus, minus, re, im = (_coefficient_array(4, u_matrix_from_amplitudes(a, b, 4).entries)[..., 0]
                           for a, b in ((1, 0), (-1, 0), (0, 1), (0, 1j)))
    u0 = (plus + minus) / 2
    u = np.stack((u0, (plus - minus) / 2, re - u0, im - u0))
    alice = np.einsum("nima,abc,qmj->qnjbic", _S_POWERS[0, ..., :4], _M[:4, :4, :4], u)
    bob = np.einsum("nkmb,bcd,qml->qnkdlc", _S_POWERS[1, ..., ::4], _M[::4, ::4, ::4], u)
    return alice.reshape(12, 12, 12), bob.reshape(12, 12, 12)


def _build_real_tables():
    """_build_local_tables on real arithmetic.

    _ALICE[(q, n), (re, j, alpha, re', i, alpha')] is [[Ar, Ai], [-Ai, Ar]]
    for L1(Z_ij), so that [Xr | Xi] @ it = [Re XA | Im XA] in one product;
    _BOB[(q, n), (k, beta', re, l, beta)] is Br (re 0) or Bi (re 1) for
    L2(Z_kl)^T."""
    alice, bob = _build_local_tables()
    alice = np.block([[alice.real, alice.imag], [-alice.imag, alice.real]])
    bob = np.stack((bob.real, bob.imag), axis=2)
    return alice.reshape(12, 576), bob.reshape(12, 288)


_ALICE, _BOB = _build_real_tables()

# (-1)^(|alpha| |beta|) times the measurement prefactor of each composite
# outcome 3 i + k (superstate._OUTCOME_SIGN), on [(k, beta, re, i, alpha), outcome]
_WEIGHTS = np.zeros((3, 4, 2, 3, 4, 9))
for _i, _k in np.ndindex(3, 3):
    _WEIGHTS[_k, :, :, _i, :, 3 * _i + _k] = _OUTCOME_SIGN[2][3 * _i + _k] * _SIGMA[:, None]
_WEIGHTS = _WEIGHTS.reshape(288, 9)


def _local_coefficients(v) -> np.ndarray:
    """Coordinates [party, setting, row, (q, n)] of the four local group
    elements on the basis of _build_local_tables, from the displacements
    r, s (v[:4]) and the eight angles (v[4:]).  Row 0 holds the
    coordinates, the outer product of [1, cos theta, sin theta cos phi,
    sin theta sin phi] with [1, p, p^2]; rows 1, 2 and 3 their derivatives
    in the setting's p, theta and phi, the same product with one factor
    differentiated."""
    # math on Python floats costs less than numpy's per-call overhead, and
    # it is the same libm the exact path (uosp.u_matrix) uses
    angular, powers = [], []
    for p, theta, phi in zip(v[:4], v[4::2], v[5::2]):
        s, c, sp, cp = math.sin(theta), math.cos(theta), math.sin(phi), math.cos(phi)
        u, n = (1.0, c, s * cp, s * sp), (1.0, p, p * p)
        angular += (*u, *u, 0.0, -s, c * cp, c * sp, 0.0, 0.0, -s * sp, s * cp)
        powers += (*n, 0.0, 1.0, 2.0 * p, *n, *n)
    rows = np.array(angular).reshape(16, 4, 1) * np.array(powers).reshape(16, 1, 3)
    return rows.reshape(2, 2, 4, 12)


def _upsilon_terms():
    """(flat index, value at p_A = p_B = 1, |alpha|, |beta|) of each nonzero
    entry of _upsilon_right, read from superstate.upsilon with the twist
    (-1)^(|j| |l|).  The state depends on p_A and p_B only through p_A eta_A
    and p_B eta_B, so the entry on monomial alpha | beta << 2 scales as
    p_A^|alpha| p_B^|beta|."""
    one = _coefficient_array(4, [upsilon(1.0, 1.0).right_coefficients()])[0]
    one = one.reshape(3, 3, 4, 4)  # [j, l, beta, alpha]
    assert not one.imag.any()
    one = one.real * (-1.0) ** np.outer(VEC_PARITY, VEC_PARITY)[..., None, None]
    flat = one.transpose(1, 2, 0, 3).ravel()  # [l, beta, j, alpha]
    degree = (0, 1, 1, 2)  # generators in the monomials 1, eta, eta#, eta eta#
    return [(k, float(flat[k]), degree[k % 4], degree[k // 12 % 4])
            for k in np.flatnonzero(flat)]


_UPSILON_TERMS = _upsilon_terms()


def _upsilon_right(pa: float, pb: float) -> np.ndarray:
    """Right coordinates of the shared state (real) as a [row, 12, 12]
    array indexed ((Bob digit l, beta), (Alice digit j, alpha)), times
    (-1)^(|j| |l|): row 0 the state, rows 1 and 2 its derivatives in p_A and
    p_B."""
    a, b = (1.0, pa, pa * pa), (1.0, pb, pb * pb)
    da, db = (0.0, 1.0, 2.0 * pa), (0.0, 1.0, 2.0 * pb)
    v = np.zeros((3, 144))
    for k, x, i, j in _UPSILON_TERMS:
        v[:, k] = x * a[i] * b[j], x * da[i] * b[j], x * a[i] * db[j]
    return v.reshape(3, 12, 12)


# the strategy entry behind each derivative row of _fast_amplitudes at
# setting (I, J), namely Alice's r_I, theta_I, phi_I, Bob's s_J, theta_J,
# phi_J, then p_a and p_b; the tables of (I, J) depend on no other entry
_JACOBIAN_ENTRIES = np.array([(2 + i, 6 + 2 * i, 7 + 2 * i, 4 + j, 10 + 2 * j, 11 + 2 * j, 0, 1)
                              for i, j in SETTINGS])
_JACOBIAN_SETTINGS = np.arange(4)[:, None]


class _HeldTables(NamedTuple):
    """The kernel's tables on what the points behind one held prefix can
    move (_held_tables); "in" and "out" name the monomials a table reads and
    writes."""

    coef_ix: tuple           # each party's index of its kept [setting, row, (q, n)] in
                             # _local_coefficients, ... for all of them
    alice: np.ndarray        # _ALICE on those (q, n), (re, j, alpha in), (re', i, alpha out)
    bob: np.ndarray          # _BOB on those (q, n), (k, beta out, re), (l, beta in)
    state: np.ndarray | None  # the held state's value row on (l, beta in), (j, alpha in)
    ka: np.ndarray           # _KA on alpha out
    kb: np.ndarray           # _KB on beta out
    weights: np.ndarray      # _WEIGHTS on (k, beta out, re, i, alpha out)
    entries: np.ndarray      # the strategy entry of each kept derivative row, by setting


@lru_cache(maxsize=4)  # one entry per search stage
def _held_tables(prefix: bytes) -> _HeldTables:
    """The kernel's tables for the strategy vectors whose leading entries
    are the float64 values with these bytes, keyed like _strategy_parts.

    Only terms that are exactly zero at every such point go: the derivative
    rows of held entries, the coordinates of _local_coefficients that vanish
    there (the p and p^2 parts of a party whose displacements are held at
    0), and, once p_a and p_b are held, the monomials that neither the held
    state nor a kept table reaches (alpha != 0 with p_a = 0 and r = 0,
    beta != 0 with p_b = 0 and s = 0).  The support is read off the zeros of
    the coordinates, of _upsilon_right and of the tables.  Every sum of the
    pass then adds the same nonzero products in the same order as the full
    pass (prefix b'', which keeps the module's tables themselves).  Where
    BLAS adds a sum term by term that gives the same bits.  x86-64 OpenBLAS
    does not add the last column of the final product, outcome
    (bullet, bullet), term by term, so dropping zeros there can move its
    last bits; at the search's stage prefixes that column is zero, and the
    tables and Jacobian are the full pass's bit for bit (tests/test_chsh.py
    pins both stages).  At other prefixes they match to rounding."""
    lead = np.frombuffer(prefix).tolist()
    held = len(lead)
    # the free entries probed at 1, where sin, cos and every power are
    # nonzero: a coordinate that is 0 there is 0 behind the whole prefix
    probe = _local_coefficients(lead[2:] + [1.0] * (14 - max(held, 2)))
    # a derivative row stays while its entry is free in some setting; the
    # state's two stay until both p_a and p_b are held
    deriv = [c for c in range(6) if _JACOBIAN_ENTRIES[:, c].max() >= held]
    deriv += [6, 7] if held < 2 else []
    coef_ix, cols = [], []
    for party in (0, 1):
        rows = [0] + [1 + c - 3 * party for c in deriv if c // 3 == party]
        cols.append(probe[party][:, rows].any(axis=(0, 1)))
        coef_ix.append(... if len(rows) == 4 and cols[-1].all()
                       else (slice(None), np.array(rows)[:, None], np.flatnonzero(cols[-1])))
    state = None
    beta_in = alpha_in = np.ones(4, dtype=bool)
    if held >= 2:
        state = _upsilon_right(*lead[:2])[:1].reshape(1, 3, 4, 3, 4)  # [row, l, beta, j, alpha]
        beta_in, alpha_in = state.any(axis=(0, 1, 3, 4)), state.any(axis=(0, 1, 2, 3))
        state = _restricted(_restricted(state, 2, beta_in), 4, alpha_in)
        state = state.reshape(1, 3 * beta_in.sum(), -1)
    # [(q, n), re, j, alpha, re', i, alpha'] and [(q, n), k, beta', re, l, beta]
    alice = _restricted(_restricted(_ALICE, 0, cols[0]).reshape(-1, 2, 3, 4, 2, 3, 4), 3, alpha_in)
    alpha_out = alice.any(axis=(0, 1, 2, 3, 4, 5))
    bob = _restricted(_restricted(_BOB, 0, cols[1]).reshape(-1, 3, 4, 2, 3, 4), 5, beta_in)
    beta_out = bob.any(axis=(0, 1, 3, 4, 5))
    weights = _WEIGHTS.reshape(3, 4, 2, 3, 4, 9)  # [k, beta, re, i, alpha, outcome]
    weights = _restricted(_restricted(weights, 1, beta_out), 4, alpha_out)
    return _HeldTables(
        tuple(coef_ix),
        _restricted(alice, 6, alpha_out).reshape(len(alice), -1),
        _restricted(bob, 2, beta_out).reshape(len(bob), -1),
        state,
        _restricted(_restricted(_KA, 0, alpha_out), 1, alpha_out),
        _restricted(_restricted(_KB, 0, beta_out), 1, beta_out),
        weights.reshape(-1, 9),
        _JACOBIAN_ENTRIES[:, deriv],
    )


def _restricted(a: np.ndarray, axis: int, keep: np.ndarray) -> np.ndarray:
    """a on the indices that keep marks along axis; a itself, with its
    layout, when it marks them all."""
    return a if keep.all() else a.compress(keep, axis)


def _fast_amplitudes(vec, kept: _HeldTables) -> np.ndarray:
    """Right coordinates M of the shared state after the local group
    elements of Alice's setting I and Bob's setting J, for the strategy vec,
    as a real array [(I, J), row, (k, beta, re, i, alpha)]: the real (re 0)
    and imaginary (re 1) parts of the entry of ket (i, k) on monomial
    alpha | beta << 2, times (-1)^(|i| |k|), on the rows and monomials that
    kept keeps.

    _local_coefficients and _upsilon_right each stack a value row on their
    derivative rows.  M is linear in Alice's coordinates, in Bob's and in
    the state, so row 0 of the result is M and, by the product rule, the
    rows after it are M's derivatives along Alice's derivative rows, then
    Bob's, then the state's."""
    coef = _local_coefficients(vec[2:])
    coef_a, coef_b = (coef[party][ix] for party, ix in enumerate(kept.coef_ix))
    state = _upsilon_right(vec[0], vec[1]) if kept.state is None else kept.state
    # alice[I, row, (re, j, alpha), (re', i, alpha')]
    alice = (coef_a.reshape(-1, coef_a.shape[-1]) @ kept.alice).reshape(
        2, coef_a.shape[1], -1, 6 * len(kept.ka))
    # Bob acts first: w[J, row, (k, beta'), (re, j, alpha)] = sum_l B_kl v_jl,
    # every row of Bob's on the state, then Bob's value on the state's
    # derivative rows, if it is not held
    bob = (coef_b.reshape(-1, coef_b.shape[-1]) @ kept.bob).reshape(
        2, coef_b.shape[1], 6 * len(kept.kb), -1)
    w = (bob.reshape(-1, bob.shape[-1]) @ state[0]).reshape(*bob.shape[:-1], -1)
    if len(state) > 1:
        w = np.concatenate((w, bob[:, :1] @ state[1:]), axis=1)
    w = w.reshape(2, -1, 3 * len(kept.kb), alice.shape[2])
    # then Alice, sum_j A_ij w_kj: every row of Alice's on w's value, then
    # Alice's value on w's derivative rows.  The real and the imaginary part
    # of w meet their row blocks inside one product, which sums them as a
    # complex matrix product does
    res = (w[:, 0].reshape(-1, w.shape[-1]) @ alice).reshape(2, alice.shape[1], 2, -1)
    res = res.transpose(0, 2, 1, 3)
    more = (w[:, 1:].reshape(-1, w.shape[-1]) @ alice[:, 0]).reshape(2, 2, -1, res.shape[-1])
    return np.concatenate((res, more), axis=2).reshape(4, -1, res.shape[-1])


def _fold(values: np.ndarray, kept: _HeldTables) -> np.ndarray:
    """F = Kb M Ka^T of the value rows M [(I, J), (k, beta, re, i, alpha)]
    of _fast_amplitudes, as [(I, J), 1, (k, beta, re, i, alpha)]: Ka^T on
    alpha, then Kb on beta."""
    nb, na = len(kept.kb), len(kept.ka)
    half = (values.reshape(12, nb, 6, na) @ kept.ka.T).reshape(12, nb, 6 * na)
    return (kept.kb @ half).reshape(4, 1, -1)


def _fast_tables(vec, held: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """All four 9-outcome probability tables (rows ordered 00, 01, 10, 11)
    of the 14 strategy entries vec, and their exact Jacobian
    [(I, J), outcome, entry] in the entries after the first held, which the
    caller holds fixed (_held_tables).

    A table is (M o F) @ _WEIGHTS with F = Kb M Ka^T.  The bilinear form
    behind it is symmetric (_KA and _KB are, and the sign (-1)^(|alpha| |beta|)
    in _WEIGHTS is the same on every pair of monomials they join), so the
    derivative along a row dM of _fast_amplitudes,
    (dM o F + M o dF) @ _WEIGHTS, is 2 (dM o F) @ _WEIGHTS.  F is needed on
    the value row alone, and one product, (M o F) @ _WEIGHTS over every row
    of every setting, gives the tables (row 0) and half the Jacobian rows
    (the others)."""
    kept = _held_tables(np.array(vec[:held], dtype=float).tobytes())
    amps = _fast_amplitudes(vec, kept)
    out = ((amps * _fold(amps[:, 0], kept)).reshape(-1, amps.shape[-1]) @ kept.weights)
    out = out.reshape(4, -1, 9)
    jac = np.zeros((4, 9, 14))
    jac[_JACOBIAN_SETTINGS, :, kept.entries] = 2.0 * out[:, 1:]
    return out[:, 0], jac[:, :, held:]


def fast_outcome_tables(strat: Strategy) -> np.ndarray:
    """Vectorized counterpart of outcome_probs for all four settings."""
    return _fast_tables(strat.to_vector())[0]


# how far fast_outcome_tables may lie from the exact path (worst measured:
# 4.4e-16 over 600 random strategies in the box, angles up to 1e3)
KERNEL_TOL = 1e-13


# 1/4 on each winning outcome of the four flattened tables
_WIN_WEIGHTS = 0.25 * np.array(
    [k in (WIN_DIFF if (i, j) == (1, 1) else WIN_SAME) for (i, j) in SETTINGS for k in range(9)],
    dtype=float,
)


def _pwin_from_tables(t) -> float:
    """Win probability from the four tables, as nested sequences or a (4, 9) array."""
    return float(np.asarray(t, dtype=float).ravel() @ _WIN_WEIGHTS)


def _table_violation(t: np.ndarray) -> float:
    """Largest distance of an entry outside [0, 1]; inf if one is not finite."""
    if not np.isfinite(t).all():  # max would pass a NaN over
        return math.inf
    return float(max(0.0, -t.min(), t.max() - 1.0))


# -- seeded multi-start maximization -------------------------------------------


def minimize(fun, x0, **options):
    """scipy.optimize.minimize, imported on the first call: only the search
    needs scipy, so importing the package does not load it."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(fun, x0, **options)


@dataclass(frozen=True)
class OptimizeConfig:
    """Master seed, number of restarts, iteration cap per SLSQP stage and
    whether to search rotations only.

    A single full-space restart at the default cap reaches the optimum
    0.8646747 in 135 of 300 measured tries (seeds 5000-5299); the rest end
    at 0.8630543 (132), 0.857202 (13), 0.856255 (15) and 0.75 (5), all
    feasible.  At that rate the default 200 restarts all miss it with
    probability about 0.55^200 ~ 1e-52."""

    seed: int = 0
    restarts: int = 200
    max_iters: int = 1000
    quantum_only: bool = False

    def __post_init__(self):
        if self.seed < 0 or self.restarts < 1 or self.max_iters < 0:
            raise ValueError("seed must be >= 0, restarts >= 1, max_iters >= 0")


@dataclass(frozen=True)
class OptimizationResult:
    strategy: Strategy
    p_win: float
    violation: float
    tables: tuple[tuple[float, ...], ...]
    feasible: bool
    iterations: int
    best_restart: int
    # max |fast - exact| over the reported tables: the kernel that steered
    # the search against the exact path that reports its result
    kernel_drift: float


# fixed leading entries of a search point, which moves only the rest;
# _FAMILY is (p_a, p_b, r0, r1) of the displaced-Bob family
_FREE = ()
_FAMILY = (0.0, BOX_LIMIT, 0.0, 0.0)
_ROTATION_ONLY = (0.0,) * 6
# the fixed entries of each stage, by quantum_only
_STAGES = {False: (_FAMILY, _FREE), True: (_ROTATION_ONLY,)}

# largest violation of a feasible restart; SLSQP's stop tolerance: a stage
# stops when -p_win changes by less and its 36 constraints are violated by
# less in total
FEASIBILITY_TOL = 1e-9
STOP_TOL = 1e-15


def _stage_problem(lead: tuple) -> dict:
    """SLSQP's objective -p_win, its 36 constraints t >= 0 on the four
    tables, their exact derivatives and the bounds, for a search point
    behind the fixed entries lead: the free displacements in the box, the
    angles unbounded.  Every table row sums to one and so its Jacobian rows
    sum to zero; t <= 1 then follows from the other entries of its row
    being >= 0, for the tables and for SLSQP's linearization of them alike,
    and the 36 upper bounds would only double the rows of each subproblem.
    SLSQP asks for the values and the derivatives at the same points, so one
    _fast_tables pass per point gives both; its tables and Jacobian in the
    free entries are kept for the last point."""

    @lru_cache(maxsize=1)
    def evaluated(point: bytes) -> tuple[np.ndarray, np.ndarray]:
        t, jac = _fast_tables([*lead, *np.frombuffer(point).tolist()], len(lead))
        return t.ravel(), jac.reshape(36, -1)

    return {
        "fun": lambda x: -_pwin_from_tables(evaluated(x.tobytes())[0]),
        "jac": lambda x: -_WIN_WEIGHTS @ evaluated(x.tobytes())[1],
        "constraints": {"type": "ineq", "fun": lambda x: evaluated(x.tobytes())[0],
                        "jac": lambda x: evaluated(x.tobytes())[1]},
        "bounds": [(-BOX_LIMIT, BOX_LIMIT)] * max(0, 6 - len(lead)) + [(None, None)] * 8,
    }


def optimize(config: OptimizeConfig = OptimizeConfig()) -> OptimizationResult:
    """Multi-start SLSQP maximization of win_prob, with every one of the 36
    probabilities held in [0, 1] and the displacements in the box.

    Restart k draws its start from SeedSequence([seed, k]) so the result
    is reproducible for a fixed master seed no matter how restarts are
    scheduled; ties between equal-value feasible restarts go to the lower
    restart index.  A full-space restart first searches the family where
    Bob holds every displacement (p_a = r = 0, p_b = 1/2; s and the eight
    angles free, taken from the draw), where the optimum lies, and then
    releases all 14 entries; a rotation-only restart searches its eight
    angles once.  max_iters caps the iterations of each stage.  Returns the
    best feasible point, or an explicit infeasible result (feasible=False)
    when no restart meets tolerance.
    """
    total_iters = 0
    best = None       # (p_win, restart index, vector, fast tables)
    fallback = None   # (violation, restart index, vector, fast tables)
    for rix in range(config.restarts):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, rix]))
        if config.quantum_only:
            vec = np.concatenate((_ROTATION_ONLY, rng.uniform(-math.pi, math.pi, 8)))
        else:
            vec = np.concatenate([
                rng.uniform(-BOX_LIMIT, BOX_LIMIT, 6),
                rng.uniform(-math.pi, math.pi, 8),
            ])
        for lead in _STAGES[config.quantum_only] if config.max_iters > 0 else ():
            res = minimize(x0=vec[len(lead):], method="SLSQP", **_stage_problem(lead),
                           options={"maxiter": config.max_iters, "ftol": STOP_TOL})
            vec = np.concatenate((lead, res.x))
            total_iters += int(res.nit)
        vec = vec.tolist()
        t = _fast_tables(vec)[0]
        pwin = _pwin_from_tables(t)
        viol = _table_violation(t)
        if viol <= FEASIBILITY_TOL and (best is None or pwin > best[0]):
            best = (pwin, rix, vec, t)
        if fallback is None or viol < fallback[0]:
            fallback = (viol, rix, vec, t)
    feasible = best is not None
    _, rix, vec, fast = best if feasible else fallback
    strat = Strategy.from_vector(vec)
    # report through the exact path: the fast kernel only steers the search
    tables = tuple(tuple(outcome_probs(i, j, strat)) for (i, j) in SETTINGS)
    pwin = _pwin_from_tables(tables)
    viol = constraint_violation(strat, tables)
    return OptimizationResult(
        strategy=strat, p_win=pwin, violation=viol, tables=tables,
        feasible=feasible, iterations=total_iters, best_restart=rix,
        kernel_drift=float(np.max(np.abs(fast - np.asarray(tables)))),
    )
