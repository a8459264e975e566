"""The identities the paper's claims rest on, each one function
``(rng, draws) -> worst residual``, with their random elements and residual
measures.  ``superqubit verify`` runs ``SUITE``; the acceptance gate calls the
same functions with its own seeds and draw counts.  Residuals compare
coefficients term by term: a subtraction would drop every difference at or
below ``PRUNE_TOL`` and report 0 for a real rounding gap.
"""

from __future__ import annotations

import math
import random

from . import chsh
from .grassmann import (
    Supernumber,
    berezin,
    inv_sqrt,
    invert,
    modified_rogers,
    pair_product,
    rogers_r1,
)
from .supermatrix import Supermatrix, exp_nilpotent, supertrace
from .superstate import (
    BOX_LIMIT,
    apply_local,
    grassmann_outcomes,
    norm_supernumber,
    superqubit,
    transition_real,
    upsilon,
)
from .uosp import VEC_PARITY, group_element, odd_exponent, s_matrix


# -- residual measures and random elements -------------------------------------------


def max_abs_coeff(a: Supernumber) -> float:
    """Largest coefficient magnitude of a supernumber (0.0 for the zero element)."""
    return max((abs(c) for c in a.terms().values()), default=0.0)


def coefficient_gap(a: Supernumber, b: Supernumber) -> float:
    """Largest coefficient difference of two supernumbers, compared term by
    term (a subtraction would prune differences below PRUNE_TOL)."""
    ta, tb = a.terms(), b.terms()
    return max((abs(ta.get(m, 0j) - tb.get(m, 0j)) for m in ta.keys() | tb.keys()), default=0.0)


def matrix_gap(a: Supermatrix, b: Supermatrix) -> float:
    """Largest coefficient_gap over the entries of two same-shape supermatrices."""
    rows, cols = a.shape
    return max(coefficient_gap(a[i, j], b[i, j]) for i in range(rows) for j in range(cols))


def unit_gap(a: Supernumber) -> float:
    """Distance of a from one: its body's gap, or infinity if a nilpotent term
    survives, since the claim is that the soul cancels exactly."""
    return math.inf if a.terms().keys() - {0} else abs(a.body - 1)


def rand_supernumber(rng: random.Random, order: int, parity=None) -> Supernumber:
    """Dense random supernumber; optionally restricted to one parity sector."""
    terms = {}
    for mask in range(1 << order):
        if parity is not None and bin(mask).count("1") % 2 != parity:
            continue
        terms[mask] = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
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


def _order(k: int) -> int:
    """Draw k's algebra order: draws alternate between orders 2 and 4."""
    return 2 if k % 2 == 0 else 4


def _grading(rng: random.Random) -> tuple[int, int, int]:
    return tuple(rng.randint(0, 1) for _ in range(3))


def _angle(rng: random.Random) -> float:
    return rng.uniform(-math.pi, math.pi)


def _displacement(rng: random.Random) -> float:
    return rng.uniform(-BOX_LIMIT, BOX_LIMIT)


def _strategy(rng: random.Random) -> chsh.Strategy:
    """A strategy uniform in the box: displacements in [-1/2, 1/2], any angles."""
    return chsh.Strategy.from_vector(
        [_displacement(rng) for _ in range(6)] + [_angle(rng) for _ in range(8)])


def _pairing(u: Supermatrix, v: Supermatrix) -> Supernumber:
    """Graded pairing of two supervectors: the bra is the grade adjoint."""
    return (u.grade_adjoint() @ v)[0, 0]


def _over_draws(residual):
    """The identity (rng, draws) -> worst residual, from residual(rng, k),
    which draws the k-th sample and returns its residual."""
    def identity(rng: random.Random, draws: int) -> float:
        return max((residual(rng, k) for k in range(draws)), default=0.0)
    identity.__name__ = identity.__qualname__ = residual.__name__
    identity.__doc__ = residual.__doc__
    return identity


# -- the identities ----------------------------------------------------------------------


@_over_draws
def involutions(rng, k):
    """hash∘hash is the grade involution and star an involution; hash keeps
    the order of a product and star reverses it."""
    a, b = rand_supernumber(rng, _order(k)), rand_supernumber(rng, _order(k))
    return max(coefficient_gap(a.hash().hash(), a.even_part() - a.odd_part()),
               coefficient_gap(a.star().star(), a),
               coefficient_gap((a * b).hash(), a.hash() * b.hash()),
               coefficient_gap((a * b).star(), b.star() * a.star()))


@_over_draws
def rogers_norms(rng, k):
    """On 1 + c·η1η1#, the modified Rogers norm is 1 - c and the coefficient
    norm 1 + |c|; the Berezin integral of 1 + c·η1 over η1 is c.  c is a real
    displaced-vacuum overlap in [0, 2] on even draws, complex on odd ones."""
    c = rng.uniform(0.0, 2.0) if k % 2 == 0 else complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    one = Supernumber.one(2)
    a = one + c * pair_product(1, 2)
    return max(abs(modified_rogers(a) - (1 - c)), abs(rogers_r1(a) - (1 + abs(c))),
               coefficient_gap(berezin(one + c * Supernumber.generator(1, 2), 1),
                               Supernumber.from_complex(c, 2)))


@_over_draws
def series_inverses(rng, k):
    """invert(a)·a = 1 and inv_sqrt(a)² a = 1 on order-4 elements."""
    a = rand_supernumber(rng, 4)
    if abs(a.body) < 0.3:
        a = a + 1.0
    pos = (a.hash() * a + 0.5).even_part()
    riv = inv_sqrt(pos)
    one = Supernumber.one(4)
    return max(coefficient_gap(invert(a) * a, one), coefficient_gap(riv * riv * pos, one))


@_over_draws
def supertranspose_period(rng, k):
    """The supertranspose has order four."""
    x = rand_supermatrix(rng, _grading(rng), _grading(rng), rng.randint(0, 1), _order(k))
    return matrix_gap(x.supertranspose().supertranspose().supertranspose().supertranspose(), x)


@_over_draws
def supertranspose_composition(rng, k):
    """(XY)^st = (-1)^(|X||Y|) Y^st X^st."""
    rp, cp = _grading(rng), _grading(rng)
    sp, tp = rng.randint(0, 1), rng.randint(0, 1)
    x = rand_supermatrix(rng, rp, cp, sp, _order(k))
    y = rand_supermatrix(rng, cp, rp, tp, _order(k))
    sign = -1 if sp * tp else 1
    return matrix_gap((x @ y).supertranspose(), sign * (y.supertranspose() @ x.supertranspose()))


@_over_draws
def supertrace_cyclicity(rng, k):
    """str(XY) = (-1)^(|X||Y|) str(YX), and an odd scalar anticommutes with
    an odd matrix."""
    rp = _grading(rng)
    sp, tp = rng.randint(0, 1), rng.randint(0, 1)
    x = rand_supermatrix(rng, rp, rp, sp, _order(k))
    y = rand_supermatrix(rng, rp, rp, tp, _order(k))
    zeta = rand_supernumber(rng, _order(k), 1)
    sign = -1 if sp * tp else 1
    return max(coefficient_gap(supertrace(x @ y), sign * supertrace(y @ x)),
               matrix_gap(zeta * x, -(x * zeta)) if sp else 0.0)


@_over_draws
def pairing(rng, k):
    """<Sz, w> = (-1)^(|S||z|) <z, S^adj w> on the superqubit space: draw k
    takes its order from bit 0 and the parities of S, z and w from bits 1-3,
    so sixteen draws cover both orders and all eight parity combinations.  The
    column grading of z and w is drawn at random."""
    order = _order(k)
    s_par, z_par, w_par = k >> 1 & 1, k >> 2 & 1, k >> 3 & 1
    s = rand_supermatrix(rng, VEC_PARITY, VEC_PARITY, s_par, order)
    z = rand_supermatrix(rng, VEC_PARITY, (rng.randint(0, 1),), z_par, order)
    w = rand_supermatrix(rng, VEC_PARITY, (rng.randint(0, 1),), w_par, order)
    sign = -1 if s_par * z_par else 1
    return coefficient_gap(_pairing(s @ z, w), sign * _pairing(z, s.grade_adjoint() @ w))


@_over_draws
def displacement_exponential(rng, k):
    """exp of the odd generator pair 2p·η equals the closed form S(p)."""
    p = rng.uniform(-1.5, 1.5)
    return matrix_gap(exp_nilpotent(odd_exponent((2 * p) * Supernumber.eta(1, 2))), s_matrix(p, 2))


@_over_draws
def displacement_group_law(rng, k):
    """S(p) S(q) = S(p + q)."""
    p, q = rng.uniform(-1, 1), rng.uniform(-1, 1)
    return matrix_gap(s_matrix(p, 2) @ s_matrix(q, 2), s_matrix(p + q, 2))


@_over_draws
def superunitarity(rng, k):
    """Z^adj Z = 1 for the group elements Z = S(2p·η) U(theta, phi) that the game plays."""
    z = group_element(_angle(rng), _angle(rng), rng.uniform(-1, 1), 2)
    return matrix_gap(z.grade_adjoint() @ z, Supermatrix.identity(VEC_PARITY, 2))


@_over_draws
def state_norm(rng, k):
    """<psi|psi> = 1, soul included, for displaced superqubits."""
    return unit_gap(norm_supernumber(superqubit(rng.uniform(-1, 1), _angle(rng), _angle(rng))))


@_over_draws
def outcome_sum(rng, k):
    """The nine two-party outcome supernumbers of a locally rotated shared
    state sum to 1, soul included."""
    ups = upsilon(_displacement(rng), _displacement(rng))
    za = group_element(_angle(rng), _angle(rng), _displacement(rng), order=4, pair=1)
    zb = group_element(_angle(rng), _angle(rng), _displacement(rng), order=4, pair=2)
    return unit_gap(sum(grassmann_outcomes(apply_local(ups, za, zb)), Supernumber.zero(4)))


@_over_draws
def transition_closed_form(rng, k):
    """The transition probability is |<a|b>|² (1 - (p - q)²), where <a|b> is
    the overlap of the two qubit rotations."""
    p, q = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
    t1, f1, t2, f2 = (_angle(rng) for _ in range(4))
    overlap = math.cos(t1) * math.cos(t2) + (
        complex(math.cos(f1), -math.sin(f1)) * complex(math.cos(f2), math.sin(f2))
        * math.sin(t1) * math.sin(t2))
    want = abs(overlap) ** 2 * (1 - (p - q) ** 2)
    return abs(transition_real(superqubit(p, t1, f1), superqubit(q, t2, f2)) - want)


def game_baselines(rng: random.Random, draws: int) -> float:
    """The rotation-only optimum is cos²(pi/8), the classical one 3/4, and the
    exact path agrees with the plain complex oracle on rotation-only
    strategies."""
    worst = max(abs(chsh.win_prob(chsh.Strategy.tsirelson()) - math.cos(math.pi / 8) ** 2),
                abs(chsh.best_classical_win_prob() - 0.75))
    for _ in range(draws):
        strat = _strategy(rng)
        quantum = chsh.Strategy(alice=strat.alice, bob=strat.bob)
        worst = max(worst, abs(chsh.win_prob(quantum) - chsh.oracle_win_prob(quantum)))
    return worst


@_over_draws
def kernel_drift(rng, k):
    """The vectorized kernel's tables equal the exact path's."""
    strat = _strategy(rng)
    fast = chsh.fast_outcome_tables(strat)
    return max(abs(f - e) for n, (i, j) in enumerate(chsh.SETTINGS)
               for f, e in zip(fast[n], chsh.outcome_probs(i, j, strat)))


@_over_draws
def no_signalling(rng, k):
    """Each party's outcome marginals ignore the other party's setting."""
    # [Alice's setting, Bob's setting, Alice's outcome, Bob's outcome]
    tables = chsh.fast_outcome_tables(_strategy(rng)).reshape(2, 2, 3, 3)
    alice, bob = tables.sum(axis=3), tables.sum(axis=2)
    return max(abs(alice[:, 0] - alice[:, 1]).max(), abs(bob[0] - bob[1]).max())


# the verify suite, with its seed: (name, identities, draws, tolerance), where a
# line passes when the worst residual of its identities, each run for that many
# draws, is below the tolerance
SEED = 20240917
SUITE = (
    ("involutions: hash grade-involution, star involution", (involutions,), 80, 1e-12),
    ("Berezin integral and Rogers norms", (rogers_norms,), 50, 1e-12),
    ("invert and inv_sqrt are exact series inverses", (series_inverses,), 20, 1e-10),
    ("supertranspose: order four and composition law",
     (supertranspose_period, supertranspose_composition), 40, 1e-12),
    ("supertrace cyclicity; odd scalars anticommute with odd matrices",
     (supertrace_cyclicity,), 40, 1e-12),
    ("grade adjoint moves across the pairing with (-1)^(|S||z|)", (pairing,), 200, 1e-12),
    ("one-parameter subgroup, closed form, superunitarity",
     (displacement_group_law, displacement_exponential, superunitarity), 25, 1e-12),
    ("superqubit norm 1; two-party probabilities sum to 1", (state_norm, outcome_sum), 10, 1e-12),
    ("transition probability closed form", (transition_closed_form,), 50, 1e-12),
    ("game baselines match closed forms and the oracle", (game_baselines,), 3, 1e-10),
    ("vectorized evaluator matches exact path", (kernel_drift,), 3, chsh.KERNEL_TOL),
    ("no signalling: each party's marginals ignore the other's setting",
     (no_signalling,), 3, chsh.KERNEL_TOL),
)
