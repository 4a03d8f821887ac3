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

Prime fields use plain int arithmetic.  GF(p^k) arithmetic (k > 1) is
table lookups, in tables built once per field on first use from one
checked walk over the powers of the least multiplicative generator g
(Zech logarithms; Lidl & Niederreiter, *Finite Fields*, section 9): the
antilog list ``exp[i] = g^i``, the logs ``log[g^i] = i``, and for odd p
the Zech logs ``zech[i] = log(1 + g^i)``.  ``mul``, ``inv`` and ``pow``
add or scale logs mod N - 1; odd-p ``add``, ``sub`` and ``neg`` use
a + b = a * (1 + b/a) and -1 = g^((N-1)/2); characteristic 2 adds by
XOR.  Polynomial multiplication remains only in the test that finds g.

The tables cap Galois arithmetic at ``GALOIS_MAX_ORDER`` = 2^20 elements:
at the cap they take about 50 MB and 1-2 s to build (GF(3^8): 0.3 MB,
0.02 s).  Above it the first operation that needs the tables (all but
addition in characteristic 2) raises ValueError, while ``make_field``
and ``admissible_orders`` still work up to ``MAX_ORDER``.
"""

from __future__ import annotations

import functools
from array import array

from .records import record

MAX_ORDER = 1 << 31
# Largest GF(p^k), k > 1, with arithmetic: its tables take 42-49 bytes an
# element (the antilog list and its ints, 4-byte logs and Zech logs).
GALOIS_MAX_ORDER = 1 << 20

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
    and every element encoding and coset derived from it is reproducible.
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


class FieldSpec(record("FieldSpec", "characteristic degree modulus_poly", (1, None))):
    """A prime field Z_p (degree 1) or Galois field GF(p^k) (degree k > 1).

    ``modulus_poly`` holds the k+1 coefficients (constant term first) of a
    monic irreducible reduction polynomial; it must be None for degree 1.
    No ``__slots__``: ``_tables`` is cached in the instance ``__dict__``.
    """

    def __new__(cls, characteristic: int, degree: int = 1,
                modulus_poly: tuple[int, ...] | None = None):
        p, k, mp = characteristic, degree, modulus_poly
        if k < 1:
            raise ValueError("degree must be >= 1")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if p**k > MAX_ORDER:
            raise ValueError(f"field order {p}^{k} exceeds supported range 2^31")
        if k == 1:
            if mp is not None:
                raise ValueError("prime fields take no modulus polynomial")
        else:
            if mp is None:
                raise ValueError("degree > 1 requires a modulus polynomial")
            mp = tuple(int(c) for c in mp)
            if len(mp) != k + 1 or mp[-1] != 1 or any(not 0 <= c < p for c in mp):
                raise ValueError("modulus must be monic of degree k with coefficients in [0, p)")
            if not _is_irreducible(mp, p):
                raise ValueError(f"modulus polynomial {mp} is reducible over Z_{p}")
        return super().__new__(cls, p, k, mp)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: FieldSpec is immutable")

    @property
    def order(self) -> int:
        return self.characteristic**self.degree

    def __str__(self) -> str:
        if self.degree == 1:
            return f"Z_{self.characteristic}"
        return f"GF({self.characteristic}^{self.degree})"

    # -- arithmetic ------------------------------------------------------

    @functools.cached_property
    def _tables(self) -> "_Tables":
        # held per instance for fast lookups; equal fields share one build
        return _galois_tables(self)

    def add(self, a: int, b: int) -> int:
        p = self.characteristic
        if self.degree == 1:
            return (a + b) % p
        if p == 2:
            return a ^ b
        if not b:
            return a
        t = self._tables
        return t.zech_add(a, t.log[b])

    def neg(self, a: int) -> int:
        p = self.characteristic
        if self.degree == 1:
            return (-a) % p
        if p == 2 or not a:
            return a
        t = self._tables
        return t.exp[(t.log[a] + t.half) % t.q]

    def sub(self, a: int, b: int) -> int:
        p = self.characteristic
        if self.degree == 1:
            return (a - b) % p
        if p == 2:
            return a ^ b
        if not b:
            return a
        t = self._tables
        return t.zech_add(a, t.log[b] + t.half)  # -b = g^half * b

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a * b % self.characteristic
        if not (a and b):
            return 0
        t = self._tables
        return t.exp[(t.log[a] + t.log[b]) % t.q]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ValueError("0 has no multiplicative inverse")
        if self.degree == 1:
            return pow(a, self.characteristic - 2, self.characteristic)
        t = self._tables
        return t.exp[-t.log[a] % t.q]

    def pow(self, a: int, e: int) -> int:
        """a^e; negative e inverts first."""
        if self.degree == 1:
            return pow(a, e, self.characteristic)
        if a == 0:
            if e < 0:
                raise ValueError("0 has no multiplicative inverse")
            return 0 if e else 1
        t = self._tables
        return t.exp[t.log[a] * e % t.q]


class _Tables:
    """Log/antilog/Zech tables of one GF(p^k) for its least generator g;
    q = N - 1 is the group order and half = q // 2 the log of -1."""

    __slots__ = ("g", "q", "half", "exp", "log", "zech")

    def __init__(self, g, exp, log, zech):
        self.g, self.exp, self.log, self.zech = g, exp, log, zech
        self.q = len(exp)
        self.half = self.q // 2

    def zech_add(self, a: int, lb: int) -> int:
        """a + g^lb for odd p: a * (1 + g^(lb - log a))."""
        q = self.q
        if not a:
            return self.exp[lb % q]
        la = self.log[a]
        z = self.zech[(lb - la) % q]
        return 0 if z == q else self.exp[(la + z) % q]


def _poly_mulmod(a: list[int], b: list[int], mod: tuple[int, ...], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_rem(prod, mod, p)


def _poly_pow(a: list[int], e: int, mod: tuple[int, ...], p: int) -> list[int]:
    result = [1]
    while e:
        if e & 1:
            result = _poly_mulmod(result, a, mod, p)
        e >>= 1
        if e:
            a = _poly_mulmod(a, a, mod, p)
    return result


def _times_table(spec: FieldSpec, g: int) -> list[int]:
    """g * a for every element a, by linearity over Z_p from the images
    g * x^j of the basis."""
    p, k, mod = spec.characteristic, spec.degree, spec.modulus_poly
    images = [_decode_digits(g, p, k)]
    for _ in range(k - 1):  # g * x^(j+1) = x * (g * x^j): shift, then reduce
        images.append(_poly_rem([0] + images[-1], mod, p))
    if p == 2:
        table = [0]
        for img in images:
            img = _encode_digits(img, 2)
            table += [t ^ img for t in table]
        return table
    # digit i of g * a is the sum over j of a_j * images[j][i], mod p;
    # one column of digits at a time, most significant first
    table = [0] * spec.order
    for i in reversed(range(k)):
        col = [0]
        for img in images:
            s = img[i]
            col = [(v + c * s) % p for c in range(p) for v in col] if s else col * p
        table = [t * p + d for t, d in zip(table, col)]
    return table


def _walk(step, n: int, g: int) -> list[int]:
    """1, g, g^2, ..., g^(n-2) by n - 1 applications of step (x -> x * g),
    checked: the walk must come back to 1 after exactly n - 1 steps without
    repeating an element, so g generates the multiplicative group;
    otherwise AssertionError."""
    seen = bytearray(n)
    powers = []
    x = 1
    for i in range(n - 1):
        if seen[x]:
            raise AssertionError(f"{g} revisits {x} after {i} steps; generator is wrong")
        seen[x] = 1
        powers.append(x)
        x = step(x)
    if x != 1:
        raise AssertionError(f"{g}^{n - 1} = {x} != 1; generator is wrong")
    return powers


@functools.lru_cache(maxsize=None)
def _galois_tables(spec: FieldSpec) -> _Tables:
    p, k, n = spec.characteristic, spec.degree, spec.order
    if n > GALOIS_MAX_ORDER:
        raise ValueError(f"{spec} arithmetic needs tables of {n} entries; "
                         f"Galois fields are supported up to order 2^20")
    q = n - 1
    factors = _prime_factors(q)
    one = [1] + [0] * (k - 1)
    # the least generator, by the polynomial test g^(q/r) != 1 for every
    # prime r | q; the constants 2..p-1 lie in Z_p*, of order < q
    g = next(g for g in range(p, n)
             if all(_poly_pow(_decode_digits(g, p, k), q // r, spec.modulus_poly, p) != one
                    for r in factors))
    exp = _walk(_times_table(spec, g).__getitem__, n, g)
    log = array("I", [q]) * n  # log[0] = q stands for "no log"
    for i, x in enumerate(exp):
        log[x] = i
    zech = None
    if p > 2:
        # 1 + x adds 1 to the constant digit of x, which wraps at p - 1
        zech = array("I", [log[x + 1 if (x + 1) % p else x + 1 - p] for x in exp])
    return _Tables(g, exp, log, zech)


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


def admissible_orders(m: int, lo: int, hi: int, prime_only: bool = False):
    """The fields whose order N lies in [lo, hi] with m | N-1, ascending,
    one at a time, so a caller can print or search each as it is found.

    Primes always qualify; with prime_only unset, prime powers p^k are
    included as well (with the canonical modulus).  Orders for which no
    field exists are skipped silently.
    """
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
    if spec.degree > 1:
        return spec._tables.g
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
    the multiplicative group; otherwise AssertionError.  Z_p walks in a
    bare loop and checks it after; only a walk that fails is retraced by
    ``_walk``, for its error.  For the least generator of GF(p^k) this is
    the (already checked) antilog table itself, not a copy: do not modify
    it."""
    if spec.degree == 1:
        p = spec.characteristic
        powers, x = [1], 1
        append = powers.append
        for _ in range(p - 2):
            x = x * g % p
            append(x)
        # back at 1 after p - 1 steps and not before: then g has order p - 1,
        # and its p - 1 powers are distinct
        if x * g % p == 1 and powers.count(1) == 1:
            return powers
        return _walk(lambda x: x * g % p, p, g)  # raises: g is no generator
    if g == spec._tables.g:
        return spec._tables.exp
    return _walk(functools.partial(spec.mul, g), spec.order, g)
