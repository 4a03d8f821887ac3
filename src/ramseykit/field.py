"""Exact arithmetic in prime fields Z_p and Galois fields GF(p^k).

Field elements are plain ints in a canonical encoding: the element with
polynomial coefficients (c0, c1, ..., c_{k-1}) over Z_p is the integer
c0 + c1*p + ... + c_{k-1}*p^(k-1).  For prime fields (k = 1) this is the
usual residue 0..p-1.  All arithmetic takes and returns encoded elements,
so downstream code can use them directly as vertex labels and array
indices.

The encoding also fixes a total order on elements (plain integer order),
which everything that promises a "first found" or "least" result relies
on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

MAX_ORDER = 1 << 31

# Strong-pseudoprime bases proven deterministic for n < 3.3 * 10^24,
# far beyond MAX_ORDER.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _decode_digits(x: int, p: int, k: int) -> list[int]:
    out = []
    for _ in range(k):
        x, r = divmod(x, p)
        out.append(r)
    return out


def _encode_digits(digits: list[int], p: int) -> int:
    x = 0
    for c in reversed(digits):
        x = x * p + c
    return x


def _poly_rem(num: list[int], den: tuple[int, ...] | list[int], p: int) -> list[int]:
    """Remainder of num modulo a monic polynomial den, coefficients mod p."""
    num = [c % p for c in num]
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            for j in range(d + 1):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    rem = num[:d]
    rem += [0] * (d - len(rem))
    return rem


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg(poly)//2."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for low in range(p**d):
            den = _decode_digits(low, p, d) + [1]
            if not any(_poly_rem(list(poly), den, p)):
                return False
    return True


@functools.lru_cache(maxsize=None)
def canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    """Least monic irreducible of degree k over Z_p.

    Candidates are ordered by the integer encoding of their low k
    coefficients (constant term first), so the choice is deterministic
    and every element/coset label derived from it is reproducible.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if k < 1:
        raise ValueError("degree must be >= 1")
    for low in range(p**k):
        cand = tuple(_decode_digits(low, p, k)) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("unreachable: irreducible polynomials exist for every degree")


@dataclass(frozen=True)
class FieldSpec:
    """A prime field Z_p (degree 1) or Galois field GF(p^k) (degree k > 1).

    ``modulus_poly`` holds the k+1 coefficients (constant term first) of a
    monic irreducible reduction polynomial; it must be None for degree 1.
    """

    characteristic: int
    degree: int = 1
    modulus_poly: tuple[int, ...] | None = None

    def __post_init__(self):
        p, k = self.characteristic, self.degree
        if k < 1:
            raise ValueError("degree must be >= 1")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if p**k > MAX_ORDER:
            raise ValueError(f"field order {p}^{k} exceeds supported range 2^31")
        if k == 1:
            if self.modulus_poly is not None:
                raise ValueError("prime fields take no modulus polynomial")
        else:
            mp = self.modulus_poly
            if mp is None:
                raise ValueError("degree > 1 requires a modulus polynomial")
            mp = tuple(int(c) for c in mp)
            if len(mp) != k + 1 or mp[-1] != 1 or any(not 0 <= c < p for c in mp):
                raise ValueError("modulus must be monic of degree k with coefficients in [0, p)")
            if not _is_irreducible(mp, p):
                raise ValueError(f"modulus polynomial {mp} is reducible over Z_{p}")
            object.__setattr__(self, "modulus_poly", mp)

    @property
    def order(self) -> int:
        return self.characteristic**self.degree

    def __str__(self) -> str:
        if self.degree == 1:
            return f"Z_{self.characteristic}"
        return f"GF({self.characteristic}^{self.degree})"

    # -- element helpers ------------------------------------------------

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    def check_element(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element of {self}")
        return a

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Polynomial coefficients (constant term first) of an encoded element."""
        self.check_element(a)
        return tuple(_decode_digits(a, self.characteristic, self.degree))

    def element(self, coeffs) -> int:
        """Encode a coefficient sequence (constant term first)."""
        coeffs = list(coeffs)
        p = self.characteristic
        if len(coeffs) > self.degree or any(not 0 <= c < p for c in coeffs):
            raise ValueError("coefficient vector out of range")
        return _encode_digits(coeffs, p)

    # -- arithmetic ------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.characteristic
        if self.degree == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        k = self.degree
        da, db = _decode_digits(a, p, k), _decode_digits(b, p, k)
        return _encode_digits([(x + y) % p for x, y in zip(da, db)], p)

    def neg(self, a: int) -> int:
        p = self.characteristic
        if self.degree == 1:
            return (-a) % p
        if p == 2:
            return a
        k = self.degree
        return _encode_digits([(-x) % p for x in _decode_digits(a, p, k)], p)

    def sub(self, a: int, b: int) -> int:
        p = self.characteristic
        if self.degree == 1:
            return (a - b) % p
        if p == 2:
            return a ^ b
        k = self.degree
        da, db = _decode_digits(a, p, k), _decode_digits(b, p, k)
        return _encode_digits([(x - y) % p for x, y in zip(da, db)], p)

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a * b % self.characteristic
        if self.order <= 256:
            return _mul_table(self)[a][b]
        return self._poly_mul(a, b)

    def _poly_mul(self, a: int, b: int) -> int:
        p, k = self.characteristic, self.degree
        da, db = _decode_digits(a, p, k), _decode_digits(b, p, k)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        return _encode_digits(_poly_rem(prod, self.modulus_poly, p), p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative inverse")
        if self.degree == 1:
            return pow(a, self.characteristic - 2, self.characteristic)
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        """Square-and-multiply exponentiation; negative e inverts first."""
        if self.degree == 1:
            return pow(a, e, self.characteristic)
        if e < 0:
            a, e = self.inv(a), -e
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


@functools.lru_cache(maxsize=None)
def _mul_table(spec: FieldSpec) -> list[list[int]]:
    n = spec.order
    return [[spec._poly_mul(a, b) for b in range(n)] for a in range(n)]


def make_field(p: int, k: int = 1) -> FieldSpec:
    """The field of p^k elements, with the canonical modulus when k > 1."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    if k == 1:
        return FieldSpec(p)
    return FieldSpec(p, k, canonical_modulus(p, k))


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n."""
    r = int(round(n ** (1.0 / k)))
    while r > 1 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _prime_power(n: int) -> tuple[int, int] | None:
    """Decompose n as p^k with p prime and k >= 2, if possible."""
    for k in range(2, n.bit_length() + 1):
        r = _iroot(n, k)
        if r < 2:
            break
        if r**k == n and is_prime(r):
            return r, k
    return None


def admissible_orders(m: int, lo: int, hi: int, prime_only: bool = False) -> list[FieldSpec]:
    """All field orders N in [lo, hi] with m | N-1, ascending.

    Primes always qualify; with prime_only unset, prime powers p^k are
    included as well (with the canonical modulus).  Orders for which no
    field exists are skipped silently.
    """
    return list(_iter_orders(m, lo, hi, prime_only))


def _iter_orders(m: int, lo: int, hi: int, prime_only: bool = False):
    """``admissible_orders`` one field at a time, so a caller can print or
    search each order as soon as it is found."""
    if m < 2:
        raise ValueError("m must be >= 2")
    for n in range(max(lo, 2), hi + 1):
        if (n - 1) % m:
            continue
        if is_prime(n):
            yield FieldSpec(n)
        elif not prime_only:
            pk = _prime_power(n)
            if pk is not None:
                yield make_field(*pk)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


@functools.lru_cache(maxsize=None)
def multiplicative_generator(spec: FieldSpec) -> int:
    """Least element generating the (cyclic) multiplicative group."""
    n1 = spec.order - 1
    if n1 == 1:
        return 1
    factors = _prime_factors(n1)
    for g in range(2, spec.order):
        if all(spec.pow(g, n1 // q) != 1 for q in factors):
            return g
    raise AssertionError("unreachable: finite field multiplicative groups are cyclic")


def generator_powers(spec: FieldSpec, g: int) -> list[int]:
    """g^0, g^1, ..., g^(N-2) for the field of order N, by one walk of N - 1
    multiplications.  The walk is checked, not trusted: it must come back to
    1 after exactly N - 1 steps without repeating an element, so g generates
    the multiplicative group; otherwise AssertionError."""
    n = spec.order
    seen = bytearray(n)
    powers = []
    x = 1
    for i in range(n - 1):
        if seen[x]:
            raise AssertionError(f"{g} revisits {x} after {i} steps; generator is wrong")
        seen[x] = 1
        powers.append(x)
        x = spec.mul(x, g)
    if x != 1:
        raise AssertionError(f"{g}^{n - 1} = {x} != 1; generator is wrong")
    return powers
