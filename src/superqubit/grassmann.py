"""Exact arithmetic in the finite complex Grassmann algebra CL_N.

Generators are indexed 1..N (N even) and come in conjugate pairs:
index 2i-1 holds eta_i and index 2i holds eta_i#.  A monomial is a
strictly ascending product of distinct generators, stored as an N-bit
mask (bit g-1 set iff generator g is present), so nilpotency and the
reordering signs reduce to bit arithmetic.

Arithmetic works on the coefficient dicts directly: a sum of products
sum_t a_t b_t (a product, one entry of a matrix product) accumulates into
one dict, and the result is built once, dropping every coefficient with
|c| <= PRUNE_TOL.  Scaling by a number cancels nothing and keeps every
term (only exact zeros go).  The reordering sign of each factor mask and
the hash image of each monomial are cached by mask; masks are independent
of the algebra order, so each cache holds at most 2^MAX_ORDER entries.  The
modified Rogers norm is a dot product with the closed form of its
Berezin-integral definition: a product of k full conjugate pairs has weight
(-1)^k and every other monomial weight 0, whatever the algebra order.  The
norm of x hash(x), rogers_of_hash_product(x), is read off x alone without
forming the product or hash(x): each monomial of x meets only the
monomials whose hash images complete it to a full-pair mask, listed with
the image's sign once per (mask, order).

A matrix product (matrix_product) takes one of two paths, chosen by its
order.  The dict loop visits every (term, term) pair of each entry's sum
and skips those that share a generator; it serves every order but one.
Products of order TABLE_ORDER (6) run on the pair table of the order
instead: the 3^N disjoint mask pairs (ma, mb) with the reordering sign
of e_ma e_mb, built once.  There the coefficients of all entries are
gathered along the table in numpy, multiplied and summed over the inner
index in order, and scattered onto the product masks with bincount (no
BLAS call, so the bytes do not depend on its thread count); each entry
then passes the same zero rule.  A product with a coefficient that is
not finite stays on the loop.

Everything here is a pure function on immutable values.
"""

from __future__ import annotations

import functools
import math
import numbers
from itertools import chain

import numpy as np

PRUNE_TOL = 1e-14
COMPARE_TOL = 1e-12
MAX_ORDER = 16


class DimensionMismatch(ValueError):
    """Operands live in Grassmann algebras of different order."""


class ParityError(ValueError):
    """Operation requires a homogeneous (usually even) element."""


class NotInvertible(ValueError):
    """Zero body: the element has no inverse."""


class DomainError(ValueError):
    """Body outside the domain of the requested function (e.g. sqrt)."""


@functools.cache
def _above(mask: int) -> int:
    """Bit g set iff an odd number of the generators of mask lie above g.

    The sign of sorting the concatenation of ascending monomials ma, mb
    (disjoint) is (-1)^popcount(_above(ma) & mb): each generator of mb
    jumps over every generator of ma with a larger index.
    """
    a = mask >> 1  # suffix parity; masks have at most MAX_ORDER = 16 bits
    a ^= a >> 1
    a ^= a >> 2
    a ^= a >> 4
    a ^= a >> 8
    return a


_ETA_BITS = 0x5555  # the bits of the eta_i, generator indices 2i-1


def _partners(mask: int) -> int:
    """Mask with every generator replaced by the other one of its pair."""
    return ((mask & _ETA_BITS) << 1) | ((mask >> 1) & _ETA_BITS)


def _full_pairs(mask: int) -> int:
    """Number of conjugate pairs with both generators in mask."""
    return (mask & (mask >> 1) & _ETA_BITS).bit_count()


@functools.cache
def _hash_image(mask: int) -> tuple[int, int]:
    """(sign, mask') with hash(e_mask) = sign * e_mask'.

    Each eta_i# maps to -eta_i; re-sorting the mapped factors swaps the
    two generators of each full pair."""
    flips = ((mask >> 1) & _ETA_BITS).bit_count() + _full_pairs(mask)
    return -1 if flips & 1 else 1, _partners(mask)


def _bits(mask: int):
    """Yield generator indices (1-based, ascending) present in mask."""
    g = 1
    while mask:
        if mask & 1:
            yield g
        mask >>= 1
        g += 1


class Supernumber:
    """Element of CL_N: sparse complex coefficients on monomial masks."""

    __slots__ = ("order", "_terms")

    def __init__(self, order: int, terms=None):
        if order < 0 or order > MAX_ORDER or order % 2:
            raise ValueError(f"order must be even and in [0, {MAX_ORDER}], got {order}")
        cleaned: dict[int, complex] = {}
        if terms:
            top = 1 << order
            for mask, c in terms.items():
                if not 0 <= mask < top:
                    raise ValueError(f"monomial mask {mask} out of range for order {order}")
                c = complex(c)
                size = abs(c)
                if not size <= PRUNE_TOL:  # a NaN passes the zero test
                    if not size < math.inf:
                        raise ValueError(f"coefficient {c!r} on mask {mask} is not finite")
                    cleaned[mask] = c
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Supernumber is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(order: int) -> "Supernumber":
        return Supernumber(order, {})

    @staticmethod
    def one(order: int) -> "Supernumber":
        return Supernumber(order, {0: 1.0})

    @staticmethod
    def from_complex(z, order: int) -> "Supernumber":
        return Supernumber(order, {0: complex(z)})

    @staticmethod
    def generator(g: int, order: int) -> "Supernumber":
        if not 1 <= g <= order:
            raise ValueError(f"generator index {g} out of range 1..{order}")
        return Supernumber(order, {1 << (g - 1): 1.0})

    @staticmethod
    def eta(pair: int, order: int) -> "Supernumber":
        """eta_i, the first generator of conjugate pair i."""
        return Supernumber.generator(2 * pair - 1, order)

    @staticmethod
    def eta_hash(pair: int, order: int) -> "Supernumber":
        """eta_i#, the second generator of conjugate pair i."""
        return Supernumber.generator(2 * pair, order)

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[int, complex]:
        return dict(self._terms)

    def coefficient(self, mask: int) -> complex:
        return self._terms.get(mask, 0j)

    @property
    def body(self) -> complex:
        return self._terms.get(0, 0j)

    def soul(self) -> "Supernumber":
        return _new(self.order, {m: c for m, c in self._terms.items() if m})

    def parity(self) -> int | None:
        """0 for even (an element with no terms too), 1 for odd, None for mixed."""
        parities = {m.bit_count() & 1 for m in self._terms}
        if not parities:
            return 0
        if len(parities) == 1:
            return parities.pop()
        return None

    def is_zero(self, tol: float | None = None) -> bool:
        tol = COMPARE_TOL if tol is None else tol
        return all(abs(c) <= tol for c in self._terms.values())

    def even_part(self) -> "Supernumber":
        return _new(self.order, {m: c for m, c in self._terms.items() if not m.bit_count() & 1})

    def odd_part(self) -> "Supernumber":
        return _new(self.order, {m: c for m, c in self._terms.items() if m.bit_count() & 1})

    def is_real_even(self) -> bool:
        """Even and invariant under the hash involution."""
        return self.parity() == 0 and (self.hash() - self).is_zero()

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Supernumber):
            if other.order != self.order:
                raise DimensionMismatch(f"orders differ: {self.order} vs {other.order}")
            return other
        if isinstance(other, numbers.Complex):
            return Supernumber.from_complex(other, self.order)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0j) + c
        return _pruned(self.order, out)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.order, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Supernumber):
            if other.order != self.order:
                raise DimensionMismatch(f"orders differ: {self.order} vs {other.order}")
            return _sum_of_products(self.order, ((self, other),))
        if isinstance(other, numbers.Complex):
            # scaling cancels nothing: only exact zeros go
            z = complex(other)
            return _new(self.order, {m: w for m, c in self._terms.items() if (w := c * z)})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Complex):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Complex):
            return self * (1.0 / complex(other))
        if isinstance(other, Supernumber):
            return self * invert(other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Supernumber) and other.order != self.order:
            return False
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self - other).is_zero()

    __hash__ = None

    # -- involutions -------------------------------------------------------

    def hash(self) -> "Supernumber":
        """Hash involution: eta_i -> eta_i#, eta_i# -> -eta_i, coefficients conjugated.

        Order-preserving on products, so a monomial maps factor by factor
        and is then re-sorted with the transposition sign.
        """
        out: dict[int, complex] = {}
        for mask, c in self._terms.items():
            sign, m2 = _hash_image(mask)
            out[m2] = c.conjugate() if sign > 0 else -c.conjugate()
        return _new(self.order, out)

    def star(self) -> "Supernumber":
        """Star involution: order-reversing, eta_i <-> eta_i* on the paired slots."""
        out: dict[int, complex] = {}
        for mask, c in self._terms.items():
            # reversing k factors takes k(k-1)/2 transpositions, of which the
            # partner swap undoes one per full pair
            k = mask.bit_count()
            s2 = -1 if (k * (k - 1) // 2 + _full_pairs(mask)) & 1 else 1
            m2 = _partners(mask)
            out[m2] = out.get(m2, 0j) + s2 * c.conjugate()
        return _new(self.order, out)

    # -- rendering ---------------------------------------------------------

    def __repr__(self):
        return f"Supernumber({self.order}, {self._terms!r})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for mask in sorted(self._terms, key=lambda m: (m.bit_count(), m)):
            c = self._terms[mask]
            cs = _fmt_complex(c)
            if mask == 0:
                parts.append(cs)
            else:
                gens = "".join(
                    f"η{(g + 1) // 2}" if g & 1 else f"η{g // 2}#" for g in _bits(mask)
                )
                parts.append(f"{cs}·{gens}")
        return " + ".join(parts)


def _fmt_complex(c: complex) -> str:
    if c.imag == 0:
        return f"{c.real:g}"
    if c.real == 0:
        return f"{c.imag:g}i"
    return f"({c.real:g}{c.imag:+g}i)"


_set_order = Supernumber.order.__set__
_set_terms = Supernumber._terms.__set__


def _new(order: int, terms: dict[int, complex]) -> Supernumber:
    """Internal constructor for arithmetic results: the masks are in range,
    the coefficients complex and already past the zero rule."""
    out = object.__new__(Supernumber)
    _set_order(out, order)
    _set_terms(out, terms)
    return out


def _pruned(order: int, terms: dict[int, complex]) -> Supernumber:
    """Apply the zero rule (drop |c| <= PRUNE_TOL) once, to a finished result;
    a NaN stays."""
    return _new(order, {m: c for m, c in terms.items() if not abs(c) <= PRUNE_TOL})


def _sum_of_products(order: int, pairs) -> Supernumber:
    """sum_t a_t * b_t over (a_t, b_t) pairs of one order, accumulated in
    one dict and pruned once; the operands' orders are not checked."""
    out: dict[int, complex] = {}
    get = out.get
    for a, b in pairs:
        bt = b._terms
        if not bt:
            continue
        for ma, ca in a._terms.items():
            sa = _above(ma)
            for mb, cb in bt.items():
                if ma & mb:
                    continue  # repeated generator, vanishes
                m = ma | mb
                if (sa & mb).bit_count() & 1:
                    out[m] = get(m, 0j) - ca * cb
                else:
                    out[m] = get(m, 0j) + ca * cb
    return _pruned(order, out)


# The one order whose products run on the pair table.  The dense order-6
# pairings of the graded identities run ~5x faster there (3x3 @ 3x1:
# 220 us against 1360 us on a 2-core x86 machine, Python 3.11, numpy
# 2.4); a sparse order-6 product pays at most ~0.5 ms for it.  Order 4
# stays on the dict loop, which is faster for the exact CHSH path's group
# elements of one or two terms per entry; so does every order above 6: no
# caller uses one, and the table has 3^order rows (43 M at MAX_ORDER).
TABLE_ORDER = 6


def matrix_product(order: int, left, right) -> tuple[tuple[Supernumber, ...], ...]:
    """The grid of sum_t left[i][t] * right[t][j] over two nonempty grids
    of Supernumbers of one order, each entry pruned once.

    Products of order TABLE_ORDER run on the pair table of the order;
    all others run the dict loop of _sum_of_products entry by entry.
    """
    if order == TABLE_ORDER:
        grid = _table_product(order, left, right)
        if grid is not None:
            return grid
    cols = tuple(zip(*right))
    return tuple(tuple(_sum_of_products(order, zip(row, col)) for col in cols) for row in left)


def _coefficient_array(order: int, grid) -> np.ndarray:
    """The coefficients of a grid of Supernumbers as a complex array of
    shape (rows, cols, 2^order)."""
    top = 1 << order
    dicts = [e._terms for row in grid for e in row]
    sizes = [len(d) for d in dicts]
    count = sum(sizes)
    slots = np.fromiter(chain.from_iterable(dicts), np.intp, count)
    slots += np.repeat(np.arange(0, len(dicts) * top, top), sizes)
    out = np.zeros(len(dicts) * top, complex)
    out[slots] = np.fromiter(chain.from_iterable(d.values() for d in dicts), complex, count)
    return out.reshape(len(grid), -1, top)


def _table_product(order: int, left, right):
    """matrix_product on the pair table of the order, or None if a
    coefficient is not finite: a NaN or an infinity times a vacant
    coefficient would spread to monomials the dict loop never forms."""
    ma, mb, sign, slots = _pair_table(order)
    a = _coefficient_array(order, left)
    b = _coefficient_array(order, right)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return None
    ga = np.take(a, ma, axis=-1)  # (n, k, 3^order)
    gb = np.take(b, mb, axis=-1)  # (k, m, 3^order)
    gb *= sign
    acc = ga[:, 0, None] * gb[None, 0]
    for t in range(1, ga.shape[1]):
        acc += ga[:, t, None] * gb[None, t]
    # scatter real and imaginary parts, interleaved, onto the masks of
    # every entry: one bincount whose float output is the complex sums
    n, m, _ = acc.shape
    width = 2 << order
    index = (np.arange(0, n * m * width, width)[:, None] + slots).ravel()
    sums = np.bincount(index, acc.ravel().view(float), n * m * width).view(complex)
    # masks no pair reached hold exact zeros: leave them out before the zero rule
    flat = [_pruned(order, {mask: c for mask, c in enumerate(cs) if c})
            for cs in sums.reshape(n * m, -1).tolist()]
    return tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(n))


@functools.cache
def _pair_table(order: int) -> tuple[np.ndarray, ...]:
    """(ma, mb, sign, slots) over the 3^order disjoint pairs of masks of
    the order, ma-major: e_ma e_mb = sign e_(ma|mb), and slots holds the
    float offsets 2 (ma|mb), 2 (ma|mb) + 1 of its real and imaginary part
    in a complex array indexed by mask."""
    top = 1 << order
    ma, mb = np.nonzero((np.arange(top)[:, None] & np.arange(top)) == 0)
    sign = np.array([-1.0 if (_above(a) & b).bit_count() & 1 else 1.0
                     for a, b in zip(ma.tolist(), mb.tolist())])
    slots = (2 * (ma | mb)[:, None] + np.arange(2)).ravel()
    return ma, mb, sign, slots


def berezin(a: Supernumber, g: int) -> Supernumber:
    """Left-derivative Berezin integral: int dg (x + g*y) = y.

    Pulling generator g to the front of a monomial crosses every
    generator with a smaller index, each crossing contributing -1.
    """
    if not 1 <= g <= a.order:
        raise ValueError(f"generator index {g} out of range 1..{a.order}")
    bit = 1 << (g - 1)
    below = bit - 1
    out = {}
    for mask, c in a._terms.items():
        if not mask & bit:
            continue
        sign = -1 if (mask & below).bit_count() & 1 else 1
        out[mask ^ bit] = sign * c
    return _new(a.order, out)


def rogers_r1(a: Supernumber) -> float:
    """Sum of the coefficient moduli (does not respect the ring order)."""
    return sum(abs(c) for c in a._terms.values())


def modified_rogers(a: Supernumber) -> complex:
    """Berezin integral of an even element against prod exp(-eta_i eta_i#).

    Linear in a, so it is evaluated as sum_m w[m] a[m] with the weight
    w[m] = _rogers_integral(e_m) read from _PAIR_WEIGHTS (0 off it).  Always
    complex, so it stays linear; callers that want a probability take the
    real part.
    """
    if a.parity() != 0:
        raise ParityError("modified Rogers norm requires an even element")
    val = 0j
    for mask, c in a._terms.items():
        w = _PAIR_WEIGHTS.get(mask)
        if w is not None:
            val += w * c
    return val


def _rogers_integral(a: Supernumber) -> complex:
    """The definition of the modified Rogers norm of an even element.

    The weight factors expand to (1 - eta_i eta_i#) exactly.  Each pair is
    integrated deta_i# then deta_i, pairs ascending; this order makes
    modified_rogers(1 + c*eta*eta#) = 1 - c and normalizes
    modified_rogers(1) = 1.
    """
    acc = a
    for pair in range(1, a.order // 2 + 1):
        x = pair_product(pair, a.order)
        acc = (Supernumber.one(a.order) - x) * acc
    for pair in range(1, a.order // 2 + 1):
        acc = berezin(acc, 2 * pair)
        acc = berezin(acc, 2 * pair - 1)
    return acc.body


# the nonzero Rogers weights: (-1)^k on each product of k full conjugate pairs
_PAIR_WEIGHTS = {sum(3 << 2 * i for i in range(MAX_ORDER // 2) if pairs >> i & 1):
                 (-1.0) ** pairs.bit_count() for pairs in range(1 << MAX_ORDER // 2)}


def rogers_of_hash_product(x: Supernumber) -> complex:
    """modified_rogers(x * x.hash()) without forming the product or hash(x).

    Only the full-pair monomials P of x hash(x) carry weight.  hash(e_mc)
    is sign(mc) e_mb with mb the partner mask of mc, and e_ma e_mb lands on
    P exactly when mb = P ^ ma, so the norm is the sum over the monomials
    ma of x of w[P] * sign(ma, mb) * sign(mc) * x[ma] * conj(x[mc]) over
    the full-pair masks P that contain ma.  No zero rule applies to the
    product's coefficients.  x must be homogeneous (zero counts as even);
    either parity makes the product even.
    """
    if x.parity() is None:
        raise ParityError("modified Rogers norm requires an even element")
    xt = x._terms
    val = 0j
    for ma, ca in xt.items():
        for mc, w in _rogers_partners(ma, x.order):
            c = xt.get(mc)
            if c is not None:
                val += w * (ca * c.conjugate())
    return val


@functools.cache
def _rogers_partners(mask: int, order: int) -> tuple[tuple[int, float], ...]:
    """(mc, w[P] * sign(mask, mb) * sign(mc)) for each full-pair mask P of
    the order that contains mask, with mb = P ^ mask and hash(e_mc) =
    sign(mc) e_mb."""
    sa = _above(mask)
    partners = []
    for p, w in _PAIR_WEIGHTS.items():
        if p >> order == 0 and p & mask == mask:
            mb = p ^ mask
            mc = _partners(mb)
            if (sa & mb).bit_count() & 1:
                w = -w
            partners.append((mc, w * _hash_image(mc)[0]))
    return tuple(partners)


def pair_product(pair: int, order: int) -> Supernumber:
    """eta_i eta_i# for conjugate pair i."""
    return Supernumber.eta(pair, order) * Supernumber.eta_hash(pair, order)


def _nilpotent_series(a: Supernumber, body, step) -> Supernumber:
    """sum_k c_k n^k over the nilpotent n = a / body - 1, with c_0 = 1 and
    c_k = step(k, c_(k-1)); the sum stops at the first vanishing power."""
    n = a * (1.0 / body) - 1
    out = power = Supernumber.one(a.order)
    coeff = 1.0
    for k in range(1, a.order + 2):
        power = power * n
        if power.is_zero(0.0):
            break
        coeff = step(k, coeff)
        out = out + power * coeff
    return out


def invert(a: Supernumber) -> Supernumber:
    """Exact inverse: finite geometric series around the nonzero body."""
    b = a.body
    if abs(b) <= PRUNE_TOL:
        raise NotInvertible("zero body")
    return _nilpotent_series(a, b, lambda k, c: -c) * (1.0 / b)


def inv_sqrt(a: Supernumber) -> Supernumber:
    """a^(-1/2) for even a with positive real body; inv_sqrt(a)^2 * a = 1."""
    b = a.body
    if abs(b.imag) > PRUNE_TOL or b.real <= 0:
        raise DomainError(f"inv_sqrt needs a positive real body, got {b}")
    # the binomial coefficients binom(-1/2, k) by their recursion
    series = _nilpotent_series(a, b.real, lambda k, c: c * (-(2 * k - 1) / (2 * k)))
    return series * (b.real ** -0.5)
