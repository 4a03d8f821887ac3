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

Subtraction and negation follow the definition of the additive group
Z_p^k: digit by digit mod p on the encoding (XOR when p = 2), with Z_p as
the one-digit case.  Z_p multiplies with plain int arithmetic.  The least
multiplicative generator g of either kind is found by one test
(``multiplicative_generator``: g^(q/r) != 1 for every prime r | q = N - 1,
by int or polynomial powers).  ``generator_powers`` is the one place a
field is walked: g^0, ..., g^(N-2) by one checked walk (``_walk``),
stepping x -> x * g mod p in Z_p and through the times-g table in
GF(p^k).  Only GF(p^k) multiplication (k > 1) reads more: logs
``log[g^i] = i`` built from that walk on the first ``mul`` and cached per
field, so ``mul`` adds logs mod N - 1.  Polynomial multiplication remains
only in the generator test and the times-g table.

The walk is capped at ``MAX_WALK_ORDER`` = 2^20 elements for both kinds:
``generator_powers`` refuses a larger field with ValueError before it
seeks the generator, and so does GF(p^k) ``mul``.  At the cap a walk's
list takes about 42 MB and under 1 s, and GF(p^k) logs 4 MB more
(GF(3^8): 0.3 MB, 0.01 s).  Subtraction, negation,
``multiplicative_generator``, ``make_field`` and ``admissible_orders``
still work up to ``MAX_ORDER`` = 2^31, which one check (``_check_order``),
shared by ``FieldSpec`` and ``canonical_modulus``, enforces before any
modulus is sought.
"""

from __future__ import annotations

import functools

from .records import record

MAX_ORDER = 1 << 31
# Largest field whose generator is walked: the walk's list of N - 1 ints
# takes about 40 bytes an element, GF(p^k) logs 4 more.
MAX_WALK_ORDER = 1 << 20

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
    _check_order(p, k)  # before the search, whose work grows with p^k
    for low in range(p**k):
        cand = tuple(_decode_digits(low, p, k)) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("unreachable: irreducible polynomials exist for every degree")


def _check_order(p: int, k: int) -> None:
    """ValueError unless k >= 1, p^k is at most MAX_ORDER and p is prime.
    The order is checked first, so a huge p (a file may give one of 4300
    digits) is refused without a primality test; p^k is not computed for
    k > 31 or p > MAX_ORDER, either of which puts it above 2^31."""
    if k < 1:
        raise ValueError("degree must be >= 1")
    if k > 31 or p > MAX_ORDER or p**k > MAX_ORDER:
        raise ValueError(f"field order {p}^{k} exceeds supported range 2^31")
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")


class FieldSpec(record("FieldSpec", "characteristic degree modulus_poly", (1, None))):
    """A prime field Z_p (degree 1) or Galois field GF(p^k) (degree k > 1).

    ``modulus_poly`` holds the k+1 coefficients (constant term first) of a
    monic irreducible reduction polynomial; it must be None for degree 1.
    No ``__slots__``: ``_tables`` is cached in the instance ``__dict__``.
    """

    def __new__(cls, characteristic: int, degree: int = 1,
                modulus_poly: tuple[int, ...] | None = None):
        p, k, mp = characteristic, degree, modulus_poly
        _check_order(p, k)
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
    def _tables(self) -> tuple:
        # (exp, log), held per instance for fast lookups; equal fields
        # share one build
        return _galois_tables(self)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def sub(self, a: int, b: int) -> int:
        """The element whose k base-p digits are those of a minus those of
        b, each mod p."""
        p = self.characteristic
        if p == 2:
            return a ^ b
        r, w = 0, 1
        for _ in range(self.degree):
            r += (a - b) % p * w  # mod p, a and b are their low digits
            a //= p
            b //= p
            w *= p
        return r

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a * b % self.characteristic
        if not (a and b):
            return 0
        exp, log = self._tables
        return exp[(log[a] + log[b]) % len(exp)]


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


def _walk(step, n: int) -> list[int]:
    """1, g, ..., g^(n-2) by n - 2 applications of step (x -> x * g),
    checked once after: one more step must give 1, and 1 occur once, else
    AssertionError.  A repeat x_i = x_j, i < j, would recur with period
    j - i and put a second 1 in the walk, so for any step the check passes
    iff the n - 1 powers are distinct: g generates the group."""
    powers, x = [1], 1
    append = powers.append
    for _ in range(n - 2):
        x = step(x)
        append(x)
    if step(x) != 1 or powers.count(1) != 1:
        raise AssertionError(f"the walk does not first return to 1 after {n - 1} steps; "
                             f"generator is wrong")
    return powers


@functools.lru_cache(maxsize=None)
def _galois_tables(spec: FieldSpec) -> tuple:
    """The powers exp of GF(p^k)'s least generator (a list) and their logs
    log (an ``array("I")``), for ``mul``.  No command multiplies, so only
    ``mul`` loads the ``array`` module."""
    from array import array

    exp = generator_powers(spec)
    n = spec.order
    log = array("I", [n - 1]) * n  # log[0] = N - 1 stands for "no log"
    for i, x in enumerate(exp):
        log[x] = i
    return exp, log


def make_field(p: int, k: int = 1) -> FieldSpec:
    """The field of p^k elements, with the canonical modulus when k > 1."""
    if k == 1:
        return FieldSpec(p)
    return FieldSpec(p, k, canonical_modulus(p, k))


def admissible_orders(m: int, lo: int, hi: int, prime_only: bool = False):
    """The fields whose order N lies in [lo, hi] with m | N-1, ascending,
    one at a time, so a caller can print or search each as it is found.

    Primes always qualify; with prime_only unset, prime powers p^k are
    included as well (with the canonical modulus).  Orders for which no
    field exists are skipped silently.  A prime power p^k, k >= 2, is
    looked up among the powers of the primes p with p^2 up to the order
    scanned, each prime's powers listed once the scan reaches its square.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    powers, p = {}, 2  # p^k -> (p, k) for k >= 2, of every prime below p
    for n in range(max(lo, 2), hi + 1):
        if (n - 1) % m:
            continue
        if is_prime(n):
            yield FieldSpec(n)
        elif not prime_only:
            while p * p <= n:
                if is_prime(p):
                    powers.update((p ** k, (p, k)) for k in range(2, hi.bit_length())
                                  if p ** k <= hi)
                p += 1
            if n in powers:
                yield make_field(*powers[n])


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
    """Least element g generating the (cyclic) multiplicative group of the
    field of order N: g^(q/r) != 1 for every prime r | q = N - 1 (Lidl and
    Niederreiter, Finite Fields).  Z_p tests from 1 (which generates only
    Z_2*) by ``pow``; GF(p^k) tests from p, as the constants 1..p-1 lie in
    Z_p*, of order < q, by polynomial powers, and builds no tables."""
    p, k, n = spec.characteristic, spec.degree, spec.order
    q = n - 1
    factors = _prime_factors(q)
    if k == 1:
        return next(g for g in range(1, p) if all(pow(g, q // r, p) != 1 for r in factors))
    one = [1] + [0] * (k - 1)
    return next(g for g in range(p, n)
                if all(_poly_pow(_decode_digits(g, p, k), q // r, spec.modulus_poly, p) != one
                       for r in factors))


def generator_powers(spec: FieldSpec) -> list[int]:
    """g^0, g^1, ..., g^(N-2) for the least generator g of the field of
    order N, a new list, by the one checked walk (``_walk``): x -> x * g
    mod p for Z_p, the times-g table for GF(p^k).  A field above
    ``MAX_WALK_ORDER`` is refused before its generator is sought."""
    n = spec.order
    if n > MAX_WALK_ORDER:
        raise ValueError(f"{spec} has {n} elements; the generator walk is "
                         f"supported up to order 2^20")
    g = multiplicative_generator(spec)
    if spec.degree == 1:
        return _walk(lambda x: x * g % n, n)
    return _walk(_times_table(spec, g).__getitem__, n)
