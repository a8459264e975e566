"""Z2-graded matrices over a finite complex Grassmann algebra.

A supermatrix carries explicit per-row and per-column parity labels
(0 even, 1 odd) and a declared parity.  For a matrix of declared parity
s, the entry at (i, j) must be a homogeneous Supernumber of parity
|i| + |j| + s mod 2 (or zero).  With rows/columns ordered even-first
this reproduces the usual A/B/C/D block picture; permuted orders (as
produced by the graded tensor product) are equally valid.

Every supermatrix is homogeneous: sums need equal declared parities (a
zero matrix has either) and scalars must be homogeneous supernumbers.

Results of arithmetic (@, +, entrywise maps, scalar multiples,
supertranspose, graded_kron) are built by an internal constructor that
trusts the grid and the parity labels; a product is one call of
grassmann's matrix_product, which forms each entry as one fused sum of
products, pruned once, on the dict loop or the pair table; supertrace and
each entry of exp_nilpotent are one such sum too, and a number scales each
term, dropping only exact zeros.  The public constructor always validates.
"""

from __future__ import annotations

from .grassmann import (
    COMPARE_TOL,
    DimensionMismatch,
    ParityError,
    Supernumber,
    _sum_of_products,
    matrix_product,
)
import numbers


class NotNilpotent(ValueError):
    """exp_nilpotent requires every entry to have zero body."""


def _as_parity_tuple(par) -> tuple[int, ...]:
    t = tuple(int(x) for x in par)
    if any(x not in (0, 1) for x in t):
        raise ValueError(f"parities must be 0 or 1, got {par!r}")
    return t


class Supermatrix:
    """Dense graded matrix; immutable, entries are Supernumbers."""

    __slots__ = ("order", "row_parity", "col_parity", "entries", "parity")

    def __init__(self, entries, row_parity, col_parity, parity, order=None):
        row_parity = _as_parity_tuple(row_parity)
        col_parity = _as_parity_tuple(col_parity)
        if parity not in (0, 1):
            raise ValueError(f"parity must be 0 (even) or 1 (odd), got {parity!r}")
        rows = [tuple(r) for r in entries]
        if len(rows) != len(row_parity) or any(len(r) != len(col_parity) for r in rows):
            raise DimensionMismatch("entry grid does not match the parity labels")
        if order is None:
            order = next((e.order for r in rows for e in r if isinstance(e, Supernumber)), None)
            if order is None:
                raise ValueError("cannot infer algebra order from scalar-only entries")
        grid = tuple(tuple(e if isinstance(e, Supernumber) else Supernumber.from_complex(e, order)
                           for e in r) for r in rows)
        if any(e.order != order for r in grid for e in r):
            raise DimensionMismatch("mixed algebra orders in one matrix")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "row_parity", row_parity)
        object.__setattr__(self, "col_parity", col_parity)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "parity", parity)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("Supermatrix is immutable")

    def _validate(self):
        s = self.parity
        for i, rp in enumerate(self.row_parity):
            for j, cp in enumerate(self.col_parity):
                e = self.entries[i][j]
                if e.is_zero(0.0):
                    continue
                want = (rp + cp + s) % 2
                if e.parity() != want:
                    raise ParityError(
                        f"entry ({i},{j}) has parity {e.parity()}, "
                        f"declared matrix parity {s} requires {want}"
                    )

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def identity(parities, order: int) -> "Supermatrix":
        parities = _as_parity_tuple(parities)
        n = len(parities)
        one = Supernumber.one(order)
        zero = Supernumber.zero(order)
        grid = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return Supermatrix(grid, parities, parities, 0, order=order)

    @staticmethod
    def zeros(row_parity, col_parity, order: int, parity=0) -> "Supermatrix":
        z = Supernumber.zero(order)
        grid = [[z] * len(col_parity) for _ in row_parity]
        return Supermatrix(grid, row_parity, col_parity, parity, order=order)

    @staticmethod
    def column(entries, row_parity, parity, order=None) -> "Supermatrix":
        return Supermatrix([[e] for e in entries], row_parity, (0,), parity, order=order)

    @staticmethod
    def row(entries, col_parity, parity, order=None) -> "Supermatrix":
        return Supermatrix([list(entries)], (0,), col_parity, parity, order=order)

    # -- inspection ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_parity), len(self.col_parity)

    @property
    def row_dims(self) -> tuple[int, int]:
        return self.row_parity.count(0), self.row_parity.count(1)

    @property
    def col_dims(self) -> tuple[int, int]:
        return self.col_parity.count(0), self.col_parity.count(1)

    def is_square(self) -> bool:
        return self.row_parity == self.col_parity

    def is_zero(self, tol: float | None = None) -> bool:
        return all(e.is_zero(tol) for r in self.entries for e in r)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def _map(self, f) -> "Supermatrix":
        grid = tuple(tuple(f(e) for e in r) for r in self.entries)
        return _new(grid, self.row_parity, self.col_parity, self.parity, self.order)

    # -- linear structure ----------------------------------------------------

    def _check_same_shape(self, other):
        if self.row_parity != other.row_parity or self.col_parity != other.col_parity:
            raise DimensionMismatch("shape/parity labels differ")
        if self.order != other.order:
            raise DimensionMismatch("algebra orders differ")

    def __add__(self, other):
        if not isinstance(other, Supermatrix):
            return NotImplemented
        self._check_same_shape(other)
        parity = self.parity
        if other.parity != parity and not other.is_zero(0.0):
            if not self.is_zero(0.0):  # a zero matrix has either parity
                raise ParityError("cannot add an even and an odd supermatrix")
            parity = other.parity
        grid = tuple(tuple(a + b for a, b in zip(ra, rb))
                     for ra, rb in zip(self.entries, other.entries))
        return _new(grid, self.row_parity, self.col_parity, parity, self.order)

    def __neg__(self):
        return self._map(lambda e: -e)

    def __sub__(self, other):
        if not isinstance(other, Supermatrix):
            return NotImplemented
        return self + (-other)

    def _scalar(self, zeta) -> tuple[Supernumber | numbers.Complex, int]:
        """zeta, a number or a Supernumber of this matrix's order, with its parity."""
        if not isinstance(zeta, Supernumber):
            return zeta, 0  # a number scales each term: only exact zeros go
        zp = zeta.parity()
        if zp is None:
            raise ParityError("a supermatrix can only be scaled by a homogeneous supernumber")
        return zeta, zp

    def __mul__(self, other):
        """S * zeta with the column-parity sign (-1)^(|zeta| |j|)."""
        if not isinstance(other, (Supernumber, numbers.Complex)):
            return NotImplemented
        zeta, zp = self._scalar(other)
        grid = tuple(tuple(e * zeta if cp == 0 or zp == 0 else -(e * zeta)
                           for cp, e in zip(self.col_parity, row))
                     for row in self.entries)
        return _new(grid, self.row_parity, self.col_parity, (self.parity + zp) % 2, self.order)

    def __rmul__(self, other):
        """zeta * S with the row-parity sign (-1)^(|zeta| |i|)."""
        if not isinstance(other, (Supernumber, numbers.Complex)):
            return NotImplemented
        zeta, zp = self._scalar(other)
        grid = tuple(tuple(zeta * e if rp == 0 or zp == 0 else -(zeta * e) for e in row)
                     for rp, row in zip(self.row_parity, self.entries))
        return _new(grid, self.row_parity, self.col_parity, (self.parity + zp) % 2, self.order)

    def __matmul__(self, other):
        if not isinstance(other, Supermatrix):
            return NotImplemented
        if self.col_parity != other.row_parity:
            raise DimensionMismatch("inner parity labels differ")
        if self.order != other.order:
            raise DimensionMismatch("algebra orders differ")
        (n, k), m = self.shape, len(other.col_parity)
        if n and k and m:
            grid = matrix_product(self.order, self.entries, other.entries)
        else:  # no entry or an empty inner sum: the labels give the shape, every entry is 0
            grid = tuple((Supernumber.zero(self.order),) * m for _ in range(n))
        return _new(grid, self.row_parity, other.col_parity,
                    (self.parity + other.parity) % 2, self.order)

    def __eq__(self, other):
        if not isinstance(other, Supermatrix):
            return NotImplemented
        if self.row_parity != other.row_parity or self.col_parity != other.col_parity:
            return False
        if self.order != other.order:
            return False
        if self.parity != other.parity:
            return self.is_zero() and other.is_zero()
        return (self - other).is_zero()

    __hash__ = None

    # -- graded operations ---------------------------------------------------

    def supertranspose(self) -> "Supermatrix":
        s = self.parity
        n, m = self.shape
        grid = []
        for c in range(m):
            row = []
            for r in range(n):
                rp, cp = self.row_parity[r], self.col_parity[c]
                if rp == cp:
                    sign = 1
                elif rp == 1:  # old C block -> new upper block
                    sign = -1 if s else 1
                else:          # old B block -> new lower block
                    sign = 1 if s else -1
                e = self.entries[r][c]
                row.append(-e if sign < 0 else e)
            grid.append(tuple(row))
        return _new(tuple(grid), self.col_parity, self.row_parity, s, self.order)

    def hash(self) -> "Supermatrix":
        """Entrywise hash involution (preserves parity labels)."""
        return self._map(lambda e: e.hash())

    def grade_adjoint(self) -> "Supermatrix":
        return self.hash().supertranspose()

    def __repr__(self):
        return (f"Supermatrix({self.shape[0]}x{self.shape[1]}, parity={self.parity}, "
                f"rows={self.row_parity}, cols={self.col_parity})")

    def __str__(self):
        width = max((len(str(e)) for r in self.entries for e in r), default=1)
        lines = []
        for r in self.entries:
            lines.append("[ " + " | ".join(str(e).ljust(width) for e in r) + " ]")
        return "\n".join(lines)


def _new(entries, row_parity, col_parity, parity, order) -> Supermatrix:
    """Internal constructor for arithmetic results: entries is a tuple of
    row tuples of Supernumbers of one order, and the parity labels are
    tuples of 0/1 that match it."""
    out = object.__new__(Supermatrix)
    object.__setattr__(out, "order", order)
    object.__setattr__(out, "row_parity", row_parity)
    object.__setattr__(out, "col_parity", col_parity)
    object.__setattr__(out, "entries", entries)
    object.__setattr__(out, "parity", parity)
    return out


def supertrace(s: Supermatrix) -> Supernumber:
    """Tr(A) - (-1)^|S| Tr(D) over the graded diagonal, one fused sum."""
    if not s.is_square():
        raise DimensionMismatch("supertrace needs matching row/column parities")
    one = Supernumber.one(s.order)
    signs = (one, -one) if s.parity == 0 else (one, one)
    return _sum_of_products(s.order, ((s.entries[i][i], signs[rp])
                                      for i, rp in enumerate(s.row_parity)))


def graded_kron(a: Supermatrix, b: Supermatrix) -> Supermatrix:
    """Graded tensor product of two even supermatrices.

    Entry at (row (i,k), col (j,l)) is (-1)^((|i|+|j|)|k|) a_ij b_kl, which
    makes (A (x) B)(u (x) v) = (Au) (x) (Bv) in the graded basis whose ket
    (i,k) has parity |i|+|k|.  Row/column pairs are flattened in
    lexicographic order (a-index outer).
    """
    if a.parity != 0 or b.parity != 0:
        raise ParityError("graded tensor product needs even factors")
    if a.order != b.order:
        raise DimensionMismatch("algebra orders differ")
    row_parity = tuple((pa + pb) % 2 for pa in a.row_parity for pb in b.row_parity)
    col_parity = tuple((pa + pb) % 2 for pa in a.col_parity for pb in b.col_parity)
    na, ma = a.shape
    nb, mb = b.shape
    grid = []
    for i in range(na):
        for k in range(nb):
            row = []
            for j in range(ma):
                koszul = (a.row_parity[i] + a.col_parity[j]) * b.row_parity[k]
                for l in range(mb):
                    e = a.entries[i][j] * b.entries[k][l]
                    row.append(-e if koszul % 2 else e)
            grid.append(tuple(row))
    return _new(tuple(grid), row_parity, col_parity, 0, a.order)


def exp_nilpotent(s: Supermatrix) -> Supermatrix:
    """Matrix exponential of an even pure-soul (hence nilpotent) supermatrix."""
    if not s.is_square():
        raise DimensionMismatch("exp needs a square matrix")
    if s.parity != 0 and not s.is_zero(0.0):
        raise ParityError("exp needs an even matrix: the powers of an odd one alternate parity")
    for row in s.entries:
        for e in row:
            if abs(e.body) > COMPARE_TOL:
                raise NotNilpotent(f"entry has nonzero body {e.body}")
    one = Supernumber.one(s.order)
    terms = [Supermatrix.identity(s.row_parity, s.order)]
    for k in range(1, s.order + 2):
        terms.append((terms[-1] @ s) * (1.0 / k))
        if terms[-1].is_zero(0.0):
            break
    # each entry is one fused sum over the series, pruned once
    grid = tuple(tuple(_sum_of_products(s.order, ((t.entries[i][j], one) for t in terms))
                       for j in range(len(s.col_parity))) for i in range(len(s.row_parity)))
    return _new(grid, s.row_parity, s.col_parity, 0, s.order)
