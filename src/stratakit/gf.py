"""Exact arithmetic in small finite fields GF(p^(e*k)) with the q-power Frobenius.

Elements are represented as integers in ``range(p**(e*k))`` whose base-p
digits (little-endian) are the coefficients of a polynomial over the prime
field.  Arithmetic is done modulo a monic irreducible polynomial of degree
``e*k``; multiplication and inversion go through discrete log tables, so a
context is cheap to use but bounded in size (desk scale, a few thousand
elements).

The operation tables are plain Python lists: ``ADD`` and ``MUL`` nested
(``ADD[a][b]``), ``NEG``, ``INV``, ``FROB`` and ``FROB_INV`` flat.  Their
callers are pure-Python loops over single codes, where indexing a list is
several times cheaper than indexing a numpy array and yields a plain
``int`` rather than a numpy scalar.  Every entry is one of the shared
``int`` objects of ``list(range(size))``, so a table costs one pointer per
entry.  numpy is used only while the tables are built.

The context views its field as the degree-``k`` extension of a base field
GF(q), q = p^e, and exposes the arithmetic Frobenius ``x -> x**q``.  The
base field is recovered intrinsically as the fixed set of that map; no
Conway-style compatible towers are needed.

>>> ctx = FieldCtx(3, 1, 2)            # GF(9) over GF(3), auto modulus
>>> ctx.modulus                        # x^2 + 1 is the smallest irreducible
(1, 0, 1)
>>> g = ctx.gen_code                   # a generator of GF(9)^x
>>> ctx.mul(g, ctx.inv(g))
1
>>> ctx.from_coeffs(ctx.coeffs(g)) == g
True
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Hard cap on field size; everything here is meant for exhaustive checks.
ENUMERATION_BOUND = 4096


class FieldError(ValueError):
    pass


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        if n % d == 0:
            return n == d
    # deterministic Miller-Rabin for the desk-scale range we care about
    r, s = n - 1, 0
    while r % 2 == 0:
        r //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, r, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    a = list(a)
    binv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        coef = a[-1] * binv % p
        q[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bc) % p
        _poly_trim(a)
    return q, a


def _poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Exhaustive trial division by every monic polynomial of degree <= d/2."""
    d = len(coeffs) - 1
    if d < 1 or coeffs[-1] != 1:
        return False
    if d == 1:
        return True
    mod = list(coeffs)
    for deg in range(1, d // 2 + 1):
        for code in range(p**deg):
            div = _int_to_digits(code, p, deg) + [1]
            _, rem = _poly_divmod(mod, div, p)
            if not rem:
                return False
    return True


def _int_to_digits(code: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(code % p)
        code //= p
    return out


def _digits_to_int(digits, p: int) -> int:
    out = 0
    for c in reversed(list(digits)):
        out = out * p + c
    return out


@lru_cache(maxsize=None)
def auto_modulus(p: int, degree: int) -> tuple[int, ...]:
    """Smallest monic irreducible of the given degree over GF(p).

    "Smallest" means the lowest little-endian integer encoding of the
    non-leading coefficients, which makes the auto choice reproducible.
    """
    if degree == 1:
        return (0, 1)  # the convention x - 0 for prime fields
    for code in range(p**degree):
        coeffs = tuple(_int_to_digits(code, p, degree)) + (1,)
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise FieldError(f"no irreducible polynomial of degree {degree} over GF({p})")


class FieldCtx:
    """GF(p^(e*k)) seen as the degree-k extension of GF(q), q = p^e.

    Parameters
    ----------
    p : odd prime characteristic.
    e : degree of the base field over the prime field (q = p^e).
    k : degree of the working extension over the base field.
    modulus : coefficient tuple (little-endian, monic) of an irreducible
        polynomial of degree e*k over GF(p), or "auto".
    """

    def __init__(self, p: int, e: int, k: int, modulus="auto"):
        if not _is_probable_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if p < 3:
            raise FieldError("odd characteristic required (p >= 3)")
        if e < 1 or k < 1:
            raise FieldError("extension degrees must be >= 1")
        d = e * k
        if p**d > ENUMERATION_BOUND:
            raise FieldError(f"field size {p**d} exceeds enumeration bound {ENUMERATION_BOUND}")
        if modulus == "auto":
            modulus = auto_modulus(p, d)
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != d + 1 or modulus[-1] != 1:
            raise FieldError(f"modulus must be monic of degree {d}")
        if not _poly_is_irreducible(modulus, p):
            raise FieldError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.e = e
        self.k = k
        self.q = p**e
        self.size = p**d
        self.degree = d
        self.modulus = modulus
        self._build_tables()

    # -- construction ---------------------------------------------------

    def _mul_codes_slow(self, a: int, b: int) -> int:
        p, d = self.p, self.degree
        da = _int_to_digits(a, p, d)
        db = _int_to_digits(b, p, d)
        prod = [0] * (2 * d - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        # reduce modulo the (monic) modulus
        for i in range(len(prod) - 1, d - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(d):
                    prod[i - d + j] = (prod[i - d + j] - c * self.modulus[j]) % p
        return _digits_to_int(prod[:d], p)

    def _build_tables(self) -> None:
        n, p = self.size, self.p
        codes = list(range(n))

        def shared(arr) -> list:
            # entries become the shared ints of ``codes``, not fresh objects
            return list(map(codes.__getitem__, arr.tolist()))

        # additive structure is digitwise mod p, one (n, n) array per digit
        c = np.arange(n)
        add = np.zeros((n, n), dtype=np.int64)
        neg = np.zeros(n, dtype=np.int64)
        for i in range(self.degree):
            w = p**i
            d = (c // w) % p
            add += (d[:, None] + d[None, :]) % p * w
            neg += (-d) % p * w
        self.ADD = [shared(row) for row in add]
        del add  # free the array before the MUL lists raise the peak
        self.NEG = shared(neg)
        # multiplicative structure via a generator
        gen = None
        for cand in range(2, n):
            x = cand
            order = 1
            while x != 1:
                x = self._mul_codes_slow(x, cand)
                order += 1
                if order > n:
                    break
            if order == n - 1:
                gen = cand
                break
        if gen is None:
            raise FieldError("no multiplicative generator found (bug)")
        self.gen_code = gen
        exp = [0] * (2 * (n - 1))
        log = [0] * n
        x = 1
        for i in range(n - 1):
            exp[i] = codes[x]
            log[x] = i
            x = self._mul_codes_slow(x, gen)
        exp[n - 1 :] = exp[: n - 1]
        self._EXP, self._LOG = exp, log
        # MUL[a][b] = g^(log a + log b); the exponent list is doubled, so no mod
        nz_logs = log[1:]
        self.MUL = [[0] * n] + [[0] + list(map(exp[la : la + n - 1].__getitem__, nz_logs))
                                for la in nz_logs]
        self.INV = [0] + [exp[(n - 1 - la) % (n - 1)] for la in nz_logs]
        # Frobenius x -> x^q, its inverse x -> x^(q^(k-1)), its fixed set (the base field)
        qm, qi = self.q % (n - 1), pow(self.q, self.k - 1, n - 1)
        self.FROB = [0] + [exp[la * qm % (n - 1)] for la in nz_logs]
        self.FROB_INV = [0] + [exp[la * qi % (n - 1)] for la in nz_logs]
        self.base_codes = tuple(a for a in codes if self.FROB[a] == a)

    # -- scalar ops on codes ---------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.ADD[a][b]

    def neg(self, a: int) -> int:
        return self.NEG[a]

    def mul(self, a: int, b: int) -> int:
        return self.MUL[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.INV[a]

    def frobenius(self, a: int) -> int:
        return self.FROB[a]

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("inverse of zero")
            return 0
        return self._EXP[self._LOG[a] * n % (self.size - 1)]

    def coeffs(self, code: int) -> tuple[int, ...]:
        return tuple(_int_to_digits(code, self.p, self.degree))

    def from_coeffs(self, coeffs) -> int:
        """The code with the given little-endian coefficients (inverse of ``coeffs``)."""
        return _digits_to_int([int(c) % self.p for c in coeffs], self.p)

    def subfield_codes(self, j: int = 1) -> tuple[int, ...]:
        """Codes of the subfield GF(q^j), the fixed set of frobenius^j."""
        if self.k % j != 0:
            raise FieldError(f"GF(q^{j}) is not a subfield for k = {self.k}")
        FROB = self.FROB
        fixed = []
        for a in range(self.size):
            x = a
            for _ in range(j):
                x = FROB[x]
            if x == a:
                fixed.append(a)
        return tuple(fixed)

    # -- misc -------------------------------------------------------------

    def describe(self) -> dict:
        return {"p": self.p, "e": self.e, "k": self.k, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.e, self.k, self.modulus) == (other.p, other.e, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.k, self.modulus))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e}, k={self.k})"

