"""Finite fields GF(p^k) of order q <= 256 and dense linear algebra over them.

Elements are integers in [0, q) packing polynomial coefficients little-endian
in base p.  Addition, negation and multiplication read q x q and length-q
tables built once per field.  The vectorized variants cover whole numpy
arrays so exhaustive searches stay cheap; they add by XOR in characteristic
2, where that beats a table read.  :func:`rref`, a Gauss-Jordan pass whose
loop runs over columns, is the one elimination: ranks, dual codes, code
chains and measured dimensions are all read off it.
"""

import json
from functools import lru_cache, partial, reduce
from typing import NamedTuple

import numpy as np

from .errors import (DivisionByZero, InvariantViolation, MatrixShapeMismatch,
                     SchemaError, UnreadableFile, UnsupportedField,
                     UnwritableFile)

_SUPPORTED_PRIMES = (2, 3, 5, 7, 11, 13)
_MAX_ORDER = 256

# moduli pinned for reproducibility of every example and file
_PINNED_MODULI = {
    (2, 2): 7,    # t^2 + t + 1
    (2, 3): 11,   # t^3 + t + 1
    (2, 4): 19,   # t^4 + t + 1
    (3, 2): 10,   # t^2 + 1
}


def _digits(x: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(x % p)
        x //= p
    return out


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            f = (c * inv_lead) % p
            for j, mj in enumerate(mod):
                a[i - dm + j] = (a[i - dm + j] - f * mj) % p
    return a[:dm]


def _is_irreducible(poly: list[int], p: int) -> bool:
    deg = len(poly) - 1
    if deg == 1:
        return True
    for ddeg in range(1, deg // 2 + 1):
        for c in range(p ** ddeg, 2 * p ** ddeg):
            div = _digits(c, p, ddeg + 1)
            if any(_poly_rem(poly, div, p)):
                continue
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class FiniteField:
    """GF(p^k) with a fixed irreducible modulus and precomputed tables."""

    def __init__(self, p: int, k: int):
        if p not in _SUPPORTED_PRIMES:
            raise UnsupportedField(f"characteristic {p} not supported")
        if not 1 <= k <= 4 or p ** k > _MAX_ORDER:
            raise UnsupportedField(
                f"GF({p}^{k}) not supported: need k <= 4 and p^k <= {_MAX_ORDER}")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = self._find_modulus()
        self._mod_coeffs = _digits(self.modulus, p, k + 1)
        self._build_tables()

    def _find_modulus(self) -> int:
        pinned = _PINNED_MODULI.get((self.p, self.k))
        if pinned is not None:
            return pinned
        for c in range(self.q, 2 * self.q):
            if _is_irreducible(_digits(c, self.p, self.k + 1), self.p):
                return c
        raise UnsupportedField(
            f"no irreducible modulus found for GF({self.p}^{self.k})"
        )

    def _mul_slow(self, a: int, b: int) -> int:
        prod = _poly_mul(_digits(a, self.p, self.k), _digits(b, self.p, self.k),
                         self.p)
        rem = _poly_rem(prod, self._mod_coeffs, self.p)
        out = 0
        for c in reversed(rem):
            out = out * self.p + c
        return out

    def _pow_slow(self, a: int, e: int) -> int:
        out, base = 1, a
        while e:
            if e & 1:
                out = self._mul_slow(out, base)
            base = self._mul_slow(base, base)
            e >>= 1
        return out

    def _build_tables(self) -> None:
        q, p = self.q, self.p
        factors = _prime_factors(q - 1) if q > 2 else []
        gen = None
        for cand in range(1, q):
            if q == 2 or all(self._pow_slow(cand, (q - 1) // f) != 1
                             for f in factors):
                gen = cand
                break
        exp = [1] * (q - 1)
        for i in range(1, q - 1):
            exp[i] = self._mul_slow(exp[i - 1], gen)
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        self.generator = gen
        self._exp = exp
        self._log = log
        logs = np.array(log[1:])
        self._mul = np.zeros((q, q), dtype=np.int32)
        self._mul[1:, 1:] = np.array(exp, dtype=np.int32)[
            (logs[:, None] + logs[None, :]) % (q - 1)]
        place = p ** np.arange(self.k)
        digits = np.arange(q)[:, None] // place % p
        self._add = ((digits[:, None, :] + digits[None, :, :]) % p
                     @ place).astype(np.int32)
        self._neg = ((-digits) % p @ place).astype(np.int32)

    def _gather(self, table: np.ndarray, x, y) -> np.ndarray:
        """table[x, y] with broadcasting, through one flat index."""
        return table.reshape(-1)[x * self.q + y]

    # -- scalar arithmetic ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        return int(self._add[a, b])

    def neg(self, a: int) -> int:
        return int(self._neg[a])

    def mul(self, a: int, b: int) -> int:
        return int(self._mul[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        return self._exp[(-self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("zero to a negative power")
            return 0
        return self._exp[(self._log[a] * e) % (self.q - 1)]

    def elements(self) -> range:
        return range(self.q)

    # -- vectorized arithmetic ------------------------------------------

    def add_arrays(self, x, y):
        """Elementwise field addition with numpy broadcasting."""
        x = np.asarray(x, dtype=np.int32)
        y = np.asarray(y, dtype=np.int32)
        if self.p == 2:
            return np.bitwise_xor(x, y)
        return self._gather(self._add, x, y)

    def neg_arrays(self, x):
        return self._neg[np.asarray(x, dtype=np.int32)]

    def mul_arrays(self, x, y):
        """Elementwise field multiplication with numpy broadcasting."""
        x = np.asarray(x, dtype=np.int32)
        y = np.asarray(y, dtype=np.int32)
        return self._gather(self._mul, x, y)

    def scale_array(self, lam: int, x):
        """lam times each entry of x."""
        return self._mul[lam][np.asarray(x, dtype=np.int32)]

    def sum_field(self, x, axis=None):
        """Field sum of an array along an axis."""
        x = np.asarray(x, dtype=np.int32)
        if self.p == 2:
            return np.bitwise_xor.reduce(x, axis=axis)
        if axis is None:
            x, axis = x.reshape(-1), 0
        planes = np.moveaxis(x, axis, 0)
        return reduce(partial(self._gather, self._add), planes,
                      np.zeros(planes.shape[1:], dtype=np.int32))

    def matmul(self, a, b):
        """Field matrix product of 2-D arrays (r x k) @ (k x n)."""
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int32)
        for j in range(a.shape[1]):
            col = a[:, j]
            if not col.any():
                continue
            out = self.add_arrays(out, self.mul_arrays(col[:, None], b[j][None, :]))
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
    """data as an int32 array, once every entry is an integer in [0, q).

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
    return arr.astype(np.int32)


class FieldMatrix:
    """Dense matrix over a finite field; value-semantic and never mutated."""

    __slots__ = ("field", "data")

    def __init__(self, fld: FiniteField, data):
        arr = field_array(fld, data)
        if arr.ndim != 2:
            raise MatrixShapeMismatch("matrix data must be two-dimensional")
        self.field = fld
        self.data = arr

    @classmethod
    def zeros(cls, fld: FiniteField, nrows: int, ncols: int) -> "FieldMatrix":
        return cls(fld, np.zeros((nrows, ncols), dtype=np.int32))

    @property
    def nrows(self) -> int:
        return self.data.shape[0]

    @property
    def ncols(self) -> int:
        return self.data.shape[1]

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.field, self.data.T.copy())

    def rank(self) -> int:
        return rref(self).rank

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

    @classmethod
    def from_json(cls, obj: dict) -> "FieldMatrix":
        """Inverse of :meth:`to_json`; ``data`` is a flat list of entries."""
        try:
            p, k = int(obj["p"]), int(obj["k"])
            shape = (int(obj["rows"]), int(obj["cols"]))
            data = obj["data"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"malformed matrix: {exc!r}") from exc
        fld = field(p, k)
        if min(shape) < 0:
            raise SchemaError(f"negative matrix shape {shape[0]}x{shape[1]}")
        if not isinstance(data, list) or any(
                type(v) is not int or not 0 <= v < fld.q for v in data):
            raise SchemaError(
                f"matrix data must be a flat list of integers in [0, {fld.q})")
        if len(data) != shape[0] * shape[1]:
            raise MatrixShapeMismatch(
                f"{len(data)} entries do not fill {shape[0]}x{shape[1]}")
        return cls(fld, np.array(data, dtype=np.int32).reshape(shape))


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


def load_matrix(path) -> FieldMatrix:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UnreadableFile(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise UnreadableFile(f"cannot read {path}: not JSON ({exc})") from exc
    return FieldMatrix.from_json(obj)
