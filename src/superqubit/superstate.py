"""Superqubit states: graded inner products, transition probabilities, measurement.

A k-party state (k in {1, 2}) stores 3^k Supernumber coefficients over
the product basis kets (m_1 ... m_k), m in {0, 1, bullet}, in
lexicographic order with digit values 0, 1, 2(=bullet).  It stores the
right coordinates x_I of state = sum_I |I> x_I (the column-supervector
entries), in which every operation computes.  The left-pulled c_I of
state = sum_I c_I |I> differ by the sign an odd part picks up crossing
an odd ket; that conversion (_flip_odd) runs only at the public
boundary: the constructor, left_coefficient, str and state_to_text.

Valid states are even: every coefficient is homogeneous of the same
parity as its basis ket.  The public SuperState constructor checks this,
as is_valid does; the internal _new, for built and computed states, does not.

Local operations on two parties never form the 9x9 graded Kronecker
product: apply_local is Bob's half (_bob_half, his group element
contracted with his digit) followed by Alice's half (_alice_half, hers
with her digit, the Koszul sign folded into her entries), so a caller
that keeps Bob's setting can keep his half too.
"""

from __future__ import annotations

import math

from .grassmann import (
    DimensionMismatch,
    ParityError,
    Supernumber,
    _new as _new_number,
    _sum_of_products,
    pair_product,
    rogers_of_hash_product,
)
from .supermatrix import Supermatrix
from .uosp import VEC_PARITY, s_matrix, u_matrix

BULLET = "•"
# the physical box |p| <= BOX_LIMIT of a super displacement
BOX_LIMIT = 0.5


def digits_of(index: int, parties: int) -> tuple[int, ...]:
    """Base-3 digits of a basis index, most significant party first."""
    out = []
    for _ in range(parties):
        out.append(index % 3)
        index //= 3
    return tuple(reversed(out))


def index_of(label: str) -> int:
    """Basis index from a label like '1' or '0•' ('*' also means bullet)."""
    label = label.strip()
    if not label:
        raise ValueError("empty basis label")
    idx = 0
    for ch in label:
        if ch in ("*", BULLET):
            d = 2
        elif ch in ("0", "1"):
            d = int(ch)
        else:
            raise ValueError(f"bad basis label {label!r}")
        idx = idx * 3 + d
    return idx


def label_of(index: int, parties: int, ascii_bullet: bool = False) -> str:
    marks = ("0", "1", "*" if ascii_bullet else BULLET)
    return "".join(marks[d] for d in digits_of(index, parties))


def _ket_table(f) -> dict[int, tuple[int, ...]]:
    """f(digits) of every basis ket, per number of parties."""
    return {k: tuple(f(digits_of(i, k)) for i in range(3 ** k)) for k in (1, 2)}


_KET_PARITY = _ket_table(lambda ds: sum(VEC_PARITY[d] for d in ds) % 2)
_METRIC_SIGN = _ket_table(lambda ds: -1 if ds == (2, 2) else 1)
# outcome sign (-1)^|I| kappa_I of the measurement probabilities: kappa_I,
# the bra-reordering sign of o bullet outcomes, is (-1)^(o(o-1)/2): -1 only
# at o = 2, the two-party |••>, which is where the metric sign is -1 too, so
# for at most two parties the two are one table
_OUTCOME_SIGN = {k: tuple(-g if par else g for par, g in zip(_KET_PARITY[k], _METRIC_SIGN[k]))
                 for k in (1, 2)}


def ket_parity(index: int, parties: int) -> int:
    return _KET_PARITY[parties][index]


def _flip_odd(c: Supernumber, index: int, parties: int) -> Supernumber:
    """c with the sign of its odd part flipped if ket index is odd: the
    left-pulled <-> right conversion of that ket's coefficient (involutive).
    It forms no sum, so drops no term; 0j - x keeps a subtraction's +0.0."""
    if not _KET_PARITY[parties][index]:
        return c
    return _new_number(c.order, {m: 0j - x if m.bit_count() & 1 else x for m, x in c._terms.items()})


def metric_sign(index: int, parties: int) -> int:
    """Diagonal metric: +1 everywhere except -1 at the two-party |••>."""
    return _METRIC_SIGN[parties][index]


class SuperState:
    """Immutable k-party superqubit state in right coordinates; the
    constructor takes the left-pulled coefficients c_I."""

    __slots__ = ("parties", "order", "pairs", "_right")

    def __init__(self, coeffs, parties: int, pairs=None, order=None):
        coeffs = list(coeffs)
        if order is None:
            order = next((c.order for c in coeffs if isinstance(c, Supernumber)), 2 * parties)
        pairs = _checked_pairs(parties, pairs, order)
        if len(coeffs) != 3 ** parties:
            raise DimensionMismatch(f"need {3 ** parties} coefficients, got {len(coeffs)}")
        cs = tuple(
            c if isinstance(c, Supernumber) else Supernumber.from_complex(c, order)
            for c in coeffs
        )
        if any(c.order != order for c in cs):
            raise DimensionMismatch("mixed algebra orders in one state")
        fault = _parity_fault(cs, parties)
        if fault:
            raise ParityError(fault)
        object.__setattr__(self, "parties", parties)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_right", tuple(_flip_odd(c, i, parties)
                                                 for i, c in enumerate(cs)))

    def __setattr__(self, name, value):
        raise AttributeError("SuperState is immutable")

    @staticmethod
    def basis_state(label: str, parties: int, pairs=None, order=None) -> "SuperState":
        """|label> with coefficient 1; on an odd ket this is not a valid state."""
        if order is None:
            order = 2 * parties
        pairs = _checked_pairs(parties, pairs, order)
        idx = index_of(label)
        coeffs = [Supernumber.zero(order) for _ in range(3 ** parties)]
        coeffs[idx] = Supernumber.one(order)
        return _new(tuple(coeffs), parties, pairs, order)

    # -- coefficient access --------------------------------------------------

    def left_coefficient(self, index) -> Supernumber:
        if isinstance(index, str):
            index = index_of(index)
        return _flip_odd(self._right[index], index, self.parties)

    def right_coefficient(self, index) -> Supernumber:
        return self._right[index_of(index) if isinstance(index, str) else index]

    def right_coefficients(self) -> tuple[Supernumber, ...]:
        return self._right

    def is_valid(self) -> bool:
        return _parity_fault(self._right, self.parties) is None

    def __mul__(self, z):
        """Scale by a number or an even supernumber (an odd one makes an odd vector)."""
        if isinstance(z, Supernumber) and z.parity() != 0:
            raise ParityError("a state can only be scaled by an even supernumber")
        return _new(tuple(c * z for c in self._right), self.parties, self.pairs, self.order)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, SuperState):
            return NotImplemented
        if (self.parties, self.order, self.pairs) != (other.parties, other.order, other.pairs):
            return False
        return all(a == b for a, b in zip(self._right, other._right))

    __hash__ = None

    def __str__(self):
        parts = []
        for i in range(3 ** self.parties):
            c = self.left_coefficient(i)
            if c.is_zero(0.0):
                continue
            parts.append(f"({c})|{label_of(i, self.parties)}>")
        return " + ".join(parts) if parts else "0"

    def swap_parties(self) -> "SuperState":
        """Exchange the two parties: kets reordered with the graded swap sign."""
        if self.parties != 2:
            raise ValueError("swap_parties needs a two-party state")
        out = [None] * 9
        for i in range(9):
            m, n = digits_of(i, 2)
            sign = -1 if VEC_PARITY[m] and VEC_PARITY[n] else 1
            out[n * 3 + m] = self._right[i] * sign
        return _new(tuple(out), 2, self.pairs[::-1], self.order)


def _checked_pairs(parties: int, pairs, order: int) -> tuple[int, ...]:
    """Generator pairs of a state: one per party, distinct, each a pair of
    the algebra, 1..order/2 (default 1..parties)."""
    if parties not in (1, 2):
        raise ValueError("only 1 or 2 parties are supported")
    pairs = tuple(range(1, parties + 1)) if pairs is None else tuple(int(x) for x in pairs)
    if len(pairs) != parties:
        raise ValueError("one generator pair per party")
    if len(set(pairs)) != parties:
        raise ValueError(f"generator pairs {pairs} repeat a pair")
    if not all(1 <= x <= order // 2 for x in pairs):
        raise ValueError(f"generator pairs {pairs} outside 1..{order // 2} of order {order}")
    return pairs


def _parity_fault(coeffs, parties: int) -> str | None:
    """Which coefficient breaks the parity rule, or None if none does; the
    same in both coordinates, since _flip_odd keeps a homogeneous parity."""
    for i, c in enumerate(coeffs):
        par = c.parity()
        if not c.is_zero(0.0) and par != ket_parity(i, parties):
            return (f"coefficient of |{label_of(i, parties)}> has parity "
                    f"{'mixed' if par is None else par}, ket needs {ket_parity(i, parties)}")
    return None


def _new(right, parties: int, pairs, order: int) -> SuperState:
    """Internal constructor: right is a tuple of the 3^parties right
    coordinates, Supernumbers of one order, pairs one generator pair per
    party; the parity rule is not checked."""
    out = object.__new__(SuperState)
    object.__setattr__(out, "parties", parties)
    object.__setattr__(out, "order", order)
    object.__setattr__(out, "pairs", pairs)
    object.__setattr__(out, "_right", right)
    return out


# -- constructors -------------------------------------------------------------


def superqubit(p: float, theta: float, phi: float, order: int = 2, pair: int = 1) -> SuperState:
    """Pure superqubit S(2p eta) U(alpha, beta) |0>: S times U's first column."""
    u_col = tuple(row[0] for row in u_matrix(theta, phi, order).entries)
    s = s_matrix(p, order, pair)
    return _new(tuple(_sum_of_products(order, zip(row, u_col)) for row in s.entries),
                1, (pair,), order)


def upsilon(p_a: float, p_b: float) -> SuperState:
    """The shared two-party resource state (entangled superqubit pair).

    Left-pulled coefficients: G_A G_B/sqrt(2) on |00> and |11>,
    p_B eta_B G_A on |1•>, p_A eta_A G_B on |•1>, -p_A p_B eta_A eta_B
    on |••>, where G_i = 1 + p_i^2/2 eta_i eta_i#.  Stored are the right
    coordinates, which negate the two odd entries on the odd kets |1•>, |•1>.
    """
    order = 4
    eta_a = Supernumber.eta(1, order)
    eta_b = Supernumber.eta(2, order)
    g_a = Supernumber.one(order) + pair_product(1, order) * (p_a * p_a / 2.0)
    g_b = Supernumber.one(order) + pair_product(2, order) * (p_b * p_b / 2.0)
    zero = Supernumber.zero(order)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    coeffs = [zero] * 9
    coeffs[index_of("00")] = g_a * g_b * inv_sqrt2
    coeffs[index_of("11")] = g_a * g_b * inv_sqrt2
    coeffs[index_of("1*")] = eta_b * g_a * (-p_b)
    coeffs[index_of("*1")] = eta_a * g_b * (-p_a)
    coeffs[index_of("**")] = eta_a * eta_b * (-p_a * p_b)
    return _new(tuple(coeffs), 2, (1, 2), order)


def tensor(a: SuperState, b: SuperState) -> SuperState:
    """Graded tensor product of two single-party states on disjoint pairs."""
    if a.parties != 1 or b.parties != 1:
        raise ValueError("tensor combines two single-party states")
    if a.order != b.order:
        raise DimensionMismatch("algebra orders differ")
    if set(a.pairs) & set(b.pairs):
        raise ValueError(f"overlapping generator pairs {a.pairs} and {b.pairs}")
    # move each a-coefficient past the b-ket: odd parts pick up (-1)^|n|
    out = tuple(_flip_odd(a._right[m], n, 1) * b._right[n] for m in range(3) for n in range(3))
    return _new(out, 2, a.pairs + b.pairs, a.order)


# -- inner product and probabilities ------------------------------------------


def inner_product(u: SuperState, v: SuperState) -> Supernumber:
    """<u|v> = sum_J hash(u^J) g_J v^J over right coordinates, one fused sum."""
    if (u.parties, u.order, u.pairs) != (v.parties, v.order, v.pairs):
        raise DimensionMismatch("states live in different spaces")
    return _sum_of_products(u.order, zip(bra_coefficients(u), v._right))


def norm_supernumber(u: SuperState) -> Supernumber:
    return inner_product(u, u)


def grassmann_transition(u: SuperState, v: SuperState) -> Supernumber:
    """p_G(u, v) = <u|v> hash(<u|v>): even, hash-invariant."""
    s = inner_product(u, v)
    return s * s.hash()


def transition_real(u: SuperState, v: SuperState) -> float:
    """modified_rogers(grassmann_transition(u, v)), read off <u|v> alone."""
    return rogers_of_hash_product(inner_product(u, v)).real


def grassmann_outcomes(state: SuperState) -> list[Supernumber]:
    """Grassmann-valued measurement probabilities, one per basis ket.

    p_G(I) = (-1)^|I| kappa_I x_I hash(x_I) with x_I the right coordinate
    (the sign is _OUTCOME_SIGN); the diagonal metric signs square away.
    Their sum is exactly 1 for a normalized valid state.
    """
    return [x * x.hash() * sign
            for x, sign in zip(state._right, _OUTCOME_SIGN[state.parties])]


def measure_real(state: SuperState) -> list[float]:
    """Real outcome probabilities via the modified Rogers norm: the norm of
    each outcome of grassmann_outcomes, read off x_I alone without forming
    hash(x_I) or the product."""
    out = []
    for x, sign in zip(state._right, _OUTCOME_SIGN[state.parties]):
        r = rogers_of_hash_product(x).real
        out.append(sign * r if r else 0.0)  # an empty sum stays +0.0
    return out


# -- rotations ----------------------------------------------------------------


def apply(state: SuperState, z: Supermatrix) -> SuperState:
    """Act with a 3x3 even group element on a single-party state."""
    if state.parties != 1:
        raise ValueError("apply takes a single-party state; use apply_local for two")
    col = Supermatrix.column(state.right_coefficients(), VEC_PARITY, 0, order=state.order)
    res = z @ col
    return _new(tuple(res[i, 0] for i in range(3)), 1, state.pairs, state.order)


def apply_local(state: SuperState, z_a: Supermatrix, z_b: Supermatrix) -> SuperState:
    """Act with Z_A (x) Z_B on a two-party state.

    Computes graded_kron(z_a, z_b) @ column in two passes over the right
    coordinates: Bob's half, then Alice's half.
    """
    if state.parties != 2:
        raise ValueError("apply_local needs a two-party state")
    if z_a.parity != 0 or z_b.parity != 0:
        raise ParityError("apply_local needs even group elements")
    order = state.order
    for z in (z_a, z_b):
        if z.order != order:
            raise DimensionMismatch("algebra orders differ")
        if z.col_parity != VEC_PARITY or z.row_parity != VEC_PARITY:
            raise DimensionMismatch("apply_local needs 3x3 group elements on (0, 1, bullet)")
    return _alice_half(state, z_a, _bob_half(state, z_b))


def _bob_half(state: SuperState, z_b: Supermatrix) -> list[list[Supernumber]]:
    """w[k][j] = sum_l b_kl v_jl over the right coordinates v[j, l] of a
    two-party state, each entry one fused sum of products; unchecked."""
    v = state._right
    bob = z_b.entries
    return [[_sum_of_products(state.order, zip(bob[k], v[3 * j:3 * j + 3])) for j in range(3)]
            for k in range(3)]


def _alice_half(state: SuperState, z_a: Supermatrix, w) -> SuperState:
    """The two-party state, on the pairs and order of state, with right
    coordinates r[i, k] = sum_j (-1)^((|i|+|j|)|k|) a_ij w[k][j], the
    parities those of VEC_PARITY; each entry one fused sum of products,
    unchecked."""
    # Alice's rows, with the Koszul sign folded in for an odd Bob digit k
    alice = z_a.entries
    twisted = [[-e if (VEC_PARITY[i] + VEC_PARITY[j]) % 2 else e for j, e in enumerate(row)]
               for i, row in enumerate(alice)]
    out = tuple(_sum_of_products(state.order, zip(twisted[i] if VEC_PARITY[k] else alice[i], w[k]))
                for i in range(3) for k in range(3))
    return _new(out, 2, state.pairs, state.order)


def density_matrix(state: SuperState) -> Supermatrix:
    """|psi><psi| as an even supermatrix; its supertrace equals <psi|psi>."""
    par = _KET_PARITY[state.parties]
    ket = Supermatrix.column(state.right_coefficients(), par, 0, order=state.order)
    bra = Supermatrix.row(bra_coefficients(state), par, 0, order=state.order)
    return ket @ bra


def bra_coefficients(state: SuperState) -> tuple[Supernumber, ...]:
    """Row-supervector entries of the corresponding bra."""
    return tuple(x.hash() * g for x, g in zip(state._right, _METRIC_SIGN[state.parties]))


# -- physicality and compactification -----------------------------------------


def compactify(p: float) -> float:
    """Map the super displacement onto the fundamental window [-1/2, 1/2)."""
    if not math.isfinite(p):
        raise ValueError("displacement must be finite")
    t = p / (2.0 * math.pi)
    c = t - math.floor(t) - 0.5
    # within rounding of the open upper edge is the lower edge: the fractional
    # part of a tiny negative t rounds up to 1.0, and p + 2 pi can round onto
    # a whole turn, so fold those values onto -1/2 to keep the map periodic.
    # c for p and for p + 2 pi differ by the rounding of p + 2 pi, of each
    # division and of t - floor(t), under 3 ulp(|t| + 1) in all; 8 is a margin
    return -0.5 if c >= 0.5 - 8 * math.ulp(abs(t) + 1.0) else c


def is_physical(p: float) -> bool:
    return abs(p) <= BOX_LIMIT


def physical_pair(p: float, q: float) -> tuple[bool, bool]:
    """(s1, s2) membership: s1 = {|p-q|<=1 and |p+q|<=1}, s2 = {|p|,|q| <= 1/2}."""
    s1 = abs(p - q) <= 1.0 and abs(p + q) <= 1.0
    s2 = is_physical(p) and is_physical(q)
    return s1, s2


# -- serialization --------------------------------------------------------------


def state_to_text(state: SuperState) -> str:
    """Structured text record: header plus per-ket monomial/coefficient lines."""
    lines = [
        "superqubit-state v1",
        f"parties {state.parties}",
        f"order {state.order}",
        "pairs " + " ".join(str(p) for p in state.pairs),
    ]
    for i in range(3 ** state.parties):
        terms = state.left_coefficient(i).terms()
        if not terms:
            continue
        lines.append(f"ket {label_of(i, state.parties, ascii_bullet=True)}")
        for mask in sorted(terms):
            gens = ",".join(str(g + 1) for g in range(state.order) if mask >> g & 1) or "-"
            z = terms[mask]
            lines.append(f"  term {gens} {z.real!r} {z.imag!r}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def state_from_text(text: str) -> SuperState:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "superqubit-state v1":
        raise ValueError("not a superqubit state record")
    parties = order = None
    pairs = None
    coeffs = None
    current = None
    masks = []  # (term line, generator mask) of each term
    header = set()  # the header keys read so far
    for ln in lines[1:]:
        if ln == "end":
            break
        key, *rest = ln.split()
        if key in ("parties", "order", "ket") and len(rest) != 1:
            raise ValueError(f"record line {ln!r} needs exactly one value")
        if key in header:  # a second one would reset or reinterpret the terms read
            raise ValueError(f"record line {ln!r} repeats the {key} line")
        if key in ("parties", "order", "pairs"):
            header.add(key)
        if key == "parties":
            parties = int(rest[0])
            if parties not in (1, 2):  # before allocating 3^parties kets
                raise ValueError("only 1 or 2 parties are supported")
            coeffs = [dict() for _ in range(3 ** parties)]
        elif key == "order":
            order = int(rest[0])
        elif key == "pairs":
            pairs = tuple(int(x) for x in rest)
        elif key == "ket":
            if parties is None or len(rest[0]) != parties:  # one digit per party
                raise ValueError(f"ket line {ln!r} outside the declared basis")
            current = index_of(rest[0])
        elif key == "term":
            if current is None or coeffs is None or order is None:
                raise ValueError("term line before header/ket lines")
            if len(rest) != 3:
                raise ValueError(f"term line {ln!r} needs generators, real and imaginary part")
            gens, re_s, im_s = rest
            idx = [] if gens == "-" else [int(g) for g in gens.split(",")]
            # each generator once, ascending: the monomial's sign is that of this order
            if any(not 0 < g <= order for g in idx) or idx != sorted(set(idx)):
                raise ValueError(f"term line {ln!r} needs distinct generators "
                                 f"in ascending order within 1..{order}")
            mask = sum(1 << (g - 1) for g in idx)
            if mask in coeffs[current]:
                raise ValueError(f"term line {ln!r} repeats a monomial of its ket")
            coeffs[current][mask] = complex(float(re_s), float(im_s))
            masks.append((ln, mask))
        else:
            raise ValueError(f"unrecognized record line {ln!r}")
    if parties is None or order is None or coeffs is None:
        raise ValueError("incomplete state record")
    # every generator of a term belongs to a declared pair; pair k holds
    # generators 2k - 1 and 2k
    pairs = _checked_pairs(parties, pairs, order)
    declared = sum(3 << 2 * (k - 1) for k in pairs)
    for ln, mask in masks:
        if mask & ~declared:
            raise ValueError(f"term line {ln!r} uses a generator outside the "
                             f"record's pairs {' '.join(map(str, pairs))}")
    sns = [Supernumber(order, t) for t in coeffs]
    return SuperState(sns, parties, pairs=pairs, order=order)
