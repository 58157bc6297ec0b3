"""Finite fields GF(p^k) of order q <= 256 and dense linear algebra over them.

Elements are integers in [0, q) packing polynomial coefficients little-endian
in base p.  Each field is a set of numpy tables built once and read by every
operation.  Addition and negation act digit by digit.  The product table
comes from the digits of t^j * a, each row one shift and one reduction of
t^k from the last; the modulus is the least monic one whose table has no
zero divisors, which for a finite ring means a field.  ``inv`` and ``pow``
read a q x (q-1) power table filled from the product table.  The vectorized
variants cover whole numpy arrays so exhaustive searches stay cheap; they add
by XOR in characteristic 2, where that beats a table read.  ``matmul`` is
one gather of the products of a block of rows and a pairwise sum of them,
with no loop over the inner dimension.  :func:`rref`, a
Gauss-Jordan pass whose loop runs over columns, is the one elimination:
ranks, dual codes, code chains and measured dimensions are all read off it.
Every array holds its elements as one byte, the type ``ELEMENT``.
"""

import json
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (DivisionByZero, InvariantViolation, MatrixShapeMismatch,
                     UnsupportedField, UnwritableFile)

_SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
_MAX_ORDER = 256
ELEMENT = np.uint8  # the one type of a field element; q <= _MAX_ORDER fits
_MATMUL_BLOCK = 1 << 16  # entries of one gather of products in matmul


def _mul_table(p: int, k: int, modulus: int) -> np.ndarray:
    """q x q product table of GF(p)[t] modulo the monic ``modulus`` of degree k.

    Row j of ``shifted`` holds the digits of t^j * a for every a, each from
    the row before by one shift up a place and one reduction of the digit
    pushed out to t^k, which the modulus sets to minus its lower digits.
    The product a * b is then the sum of b_j times row j, mod p.
    """
    place = p ** np.arange(k)
    digits = np.arange(p ** k)[:, None] // place % p
    lower = modulus // place % p
    shifted = [digits]
    for _ in range(k - 1):
        prev = shifted[-1]
        up = np.hstack([np.zeros_like(prev[:, :1]), prev[:, :-1]])
        shifted.append((up - prev[:, -1:] * lower) % p)
    prod = np.einsum("bj,jax->abx", digits, np.stack(shifted)) % p
    return (prod @ place).astype(ELEMENT)


class FiniteField:
    """GF(p^k) with the least monic modulus that makes it a field."""

    def __init__(self, p: int, k: int):
        if p not in _SUPPORTED_PRIMES:
            raise UnsupportedField(f"characteristic {p} not supported")
        if not 1 <= k <= 4 or p ** k > _MAX_ORDER:
            raise UnsupportedField(
                f"GF({p}^{k}) not supported: need k <= 4 and p^k <= {_MAX_ORDER}")
        self.p = p
        self.k = k
        self.q = q = p ** k
        # a finite ring without zero divisors is a field, so the first
        # candidate whose table has none is the least irreducible modulus;
        # one of every degree exists, so the loop always breaks
        for modulus in range(q, 2 * q):
            self._mul = _mul_table(p, k, modulus)
            if self._mul[1:, 1:].all():
                break
        self.modulus = modulus
        place = p ** np.arange(k)
        digits = np.arange(q)[:, None] // place % p
        self._add = ((digits[:, None, :] + digits[None, :, :]) % p
                     @ place).astype(ELEMENT)
        self._neg = ((-digits) % p @ place).astype(ELEMENT)
        # _pow[a, e] = a^e for e < q - 1, a column at a time
        self._pow = np.ones((q, q - 1), dtype=ELEMENT)
        for e in range(1, q - 1):
            self._pow[:, e] = self._mul[self._pow[:, e - 1], np.arange(q)]

    def _gather(self, table: np.ndarray, x, y) -> np.ndarray:
        """table[x, y] with broadcasting, through one flat index x * q + y,
        widened to uint16 (below q^2 <= 65536): in one byte it would wrap."""
        return table.take(x.astype(np.uint16) * self.q + y)

    # -- scalar arithmetic ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self._add[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self._mul[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("zero to a negative power")
            return 0
        return int(self._pow[a, e % (self.q - 1)])

    def elements(self) -> range:
        return range(self.q)

    # -- vectorized arithmetic ------------------------------------------

    def add_arrays(self, x, y):
        """Elementwise field addition with numpy broadcasting."""
        x = np.asarray(x, dtype=ELEMENT)
        y = np.asarray(y, dtype=ELEMENT)
        if self.p == 2:
            return np.bitwise_xor(x, y)
        return self._gather(self._add, x, y)

    def neg_arrays(self, x):
        return self._neg[np.asarray(x, dtype=ELEMENT)]

    def inv_arrays(self, x):
        """Elementwise inverse, read off the power table's last column."""
        x = np.asarray(x, dtype=ELEMENT)
        if not x.all():
            raise DivisionByZero("zero has no multiplicative inverse")
        return self._pow[x, -1]

    def mul_arrays(self, x, y):
        """Elementwise field multiplication with numpy broadcasting."""
        x = np.asarray(x, dtype=ELEMENT)
        y = np.asarray(y, dtype=ELEMENT)
        return self._gather(self._mul, x, y)

    def pow_arrays(self, x, e):
        """Elementwise x^e with broadcasting, for integer exponents e, read
        off the power table; 0^0 = 1 and 0^e = 0 for e > 0."""
        x = np.asarray(x, dtype=ELEMENT)
        e = np.asarray(e)
        zero = x == 0
        if (zero & (e < 0)).any():
            raise DivisionByZero("zero to a negative power")
        return np.where(zero & (e > 0), ELEMENT(0),
                        self._pow[x, e % (self.q - 1)])

    def scale_array(self, lam: int, x):
        """lam times each entry of x."""
        return self._mul[lam][np.asarray(x, dtype=ELEMENT)]

    def matmul(self, a, b):
        """Field matrix product of 2-D arrays (r x K) @ (K x n).

        Each block of rows gathers all its products a[i, j] * b[j, l] at
        once, shape (rows, K, n) with about _MATMUL_BLOCK entries, and sums
        them over K by pairwise halving: the last half is added onto the
        first, and an odd middle term waits for the next round.
        """
        a = np.asarray(a, dtype=ELEMENT)
        b = np.asarray(b, dtype=ELEMENT)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise MatrixShapeMismatch(
                f"cannot multiply shapes {a.shape} and {b.shape}")
        (r, K), n = a.shape, b.shape[1]
        out = np.zeros((r, n), dtype=ELEMENT)
        if K == 0:
            return out
        step = max(1, _MATMUL_BLOCK // (K * n or 1))
        for lo in range(0, r, step):
            terms = self.mul_arrays(a[lo:lo + step, :, None], b)
            width = K
            while width > 1:
                half = width // 2
                terms[:, :half] = self.add_arrays(terms[:, :half],
                                                  terms[:, width - half:width])
                width -= half
            out[lo:lo + step] = terms[:, 0]
        return out

    # -- plumbing -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FiniteField(p={self.p}, k={self.k})"


@lru_cache(maxsize=None)
def field(p: int, k: int) -> FiniteField:
    """Cached field factory; the canonical way to obtain a field."""
    return FiniteField(p, k)


def field_array(fld: FiniteField, data) -> np.ndarray:
    """data as an ``ELEMENT`` array, once every entry is an integer in [0, q).

    Checked before the cast, which would wrap or truncate; anything else,
    ragged nesting included, raises :class:`InvariantViolation`.
    """
    try:
        arr = np.asarray(data)
    except ValueError as exc:
        raise InvariantViolation(f"ragged entries: {exc}") from exc
    if arr.size and (arr.dtype.kind not in "iu" or arr.min() < 0
                     or arr.max() >= fld.q):
        raise InvariantViolation(f"entries must be integers in [0, {fld.q})")
    return arr.astype(ELEMENT)


class FieldMatrix:
    """Dense matrix over a finite field; value-semantic and never mutated."""

    __slots__ = ("field", "data")

    def __init__(self, fld: FiniteField, data):
        arr = field_array(fld, data)
        if arr.ndim != 2:
            raise MatrixShapeMismatch("matrix data must be two-dimensional")
        self.field = fld
        self.data = arr

    @property
    def nrows(self) -> int:
        return self.data.shape[0]

    @property
    def ncols(self) -> int:
        return self.data.shape[1]

    def __getitem__(self, rows) -> "FieldMatrix":
        return FieldMatrix(self.field, self.data[rows])

    def __eq__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"FieldMatrix({self.nrows}x{self.ncols} over {self.field!r})"

    def to_json(self) -> dict:
        return {
            "p": self.field.p,
            "k": self.field.k,
            "rows": self.nrows,
            "cols": self.ncols,
            "data": [int(x) for x in self.data.reshape(-1)],
        }


class RowReduction(NamedTuple):
    matrix: FieldMatrix
    rank: int
    pivots: tuple


def rref(M: FieldMatrix) -> RowReduction:
    """Reduced row-echelon form by Gauss-Jordan elimination over the columns.

    Each column with a nonzero entry at or below the next free row becomes
    a pivot: the first such row moves up, is scaled to 1 at the pivot, and
    clears the column from every other row in one array step.  Rows are
    ordered by pivot column, and the reduced form of a row space is unique.
    """
    fld = M.field
    a = M.data.copy()
    pivots = []
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == a.shape[0]:
            break
        below = np.flatnonzero(a[r:, c])
        if below.size == 0:
            continue
        p = r + int(below[0])
        a[[r, p]] = a[[p, r]]
        a[r] = fld.scale_array(fld.inv(int(a[r, c])), a[r])
        factors = fld.neg_arrays(a[:, c])
        factors[r] = 0
        a = fld.add_arrays(a, fld.mul_arrays(factors[:, None], a[r]))
        pivots.append(c)
    return RowReduction(FieldMatrix(fld, a), len(pivots), tuple(pivots))


def save_matrix(M: FieldMatrix, path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(M.to_json(), fh)
    except OSError as exc:
        raise UnwritableFile(f"cannot write {path}: {exc.strerror}") from exc
