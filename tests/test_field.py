"""Field arithmetic, canonical moduli, and admissible order enumeration."""

import random
import re

import pytest

from ramseykit import field
from ramseykit.cli import main
from ramseykit.field import (
    MAX_WALK_ORDER,
    FieldSpec,
    admissible_orders,
    canonical_modulus,
    generator_powers,
    is_prime,
    make_field,
    multiplicative_generator,
)

from helpers import (
    multiplicative_order,
    poly_add,
    poly_inv,
    poly_mul,
    poly_neg,
    poly_pow,
    poly_sub,
    trial_division_primes,
)


def test_is_prime_matches_trial_division():
    reference = set(trial_division_primes(2, 2000))
    for n in range(2000):
        assert is_prime(n) == (n in reference), n


def test_admissible_orders_primes_mod3():
    orders = [s.order for s in admissible_orders(3, 2, 20, prime_only=True)]
    # oracle: direct enumeration of primes p with 3 | p - 1
    expected = [p for p in trial_division_primes(2, 20) if (p - 1) % 3 == 0]
    assert expected == [7, 13, 19]
    assert orders == expected


def test_admissible_orders_includes_241():
    assert (241 - 1) % 3 == 0
    assert [s.order for s in admissible_orders(3, 241, 241, prime_only=True)] == [241]


def test_admissible_orders_empty():
    assert list(admissible_orders(2, 2, 2, prime_only=True)) == []


def test_admissible_orders_prime_powers():
    orders = [s.order for s in admissible_orders(3, 2, 20)]
    assert orders == [4, 7, 13, 16, 19]
    [gf16] = admissible_orders(3, 16, 16)
    assert (gf16.characteristic, gf16.degree) == (2, 4)


def _trial_prime_power(n):
    # n = p^k for the least divisor p > 1 of n, or None
    p = next(d for d in range(2, n + 1) if n % d == 0)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return (p, k) if n == 1 else None


@pytest.mark.parametrize("m,lo,hi", [(2, 2, 3000), (3, 1000, 5000), (4, 3125, 3125),
                                     (2, 2187, 2200), (5, 60000, 66000)])
def test_admissible_orders_match_trial_division(m, lo, hi):
    # the prime powers listed once the scan reaches each prime's square are
    # those trial division finds, also in a window that starts at one
    expected = [pk for n in range(lo, hi + 1) if (n - 1) % m == 0
                for pk in [_trial_prime_power(n)] if pk is not None]
    assert [(s.characteristic, s.degree) for s in admissible_orders(m, lo, hi)] == expected
    assert [s.order for s in admissible_orders(m, lo, hi, prime_only=True)] == [
        p for p, k in expected if k == 1]


@pytest.mark.parametrize("m,lo,hi", [(2, 2, 200), (3, 2, 200), (4, 2, 120), (6, 2, 300)])
def test_admissible_orders_divisibility(m, lo, hi):
    for spec in admissible_orders(m, lo, hi):
        assert (spec.order - 1) % m == 0


def test_make_field_prime():
    f = make_field(5)
    assert (f.characteristic, f.degree, f.order) == (5, 1, 5)
    assert f.modulus_poly is None


def test_make_field_rejects_bad_args():
    with pytest.raises(ValueError):
        make_field(4)
    with pytest.raises(ValueError):
        make_field(5, 0)


def test_canonical_modulus_gf16():
    # oracle: mark every product of lower-degree monic polynomials over Z_2
    # as reducible; the least remaining degree-4 encoding must win.
    def mul_bits(a, b):
        out = 0
        while b:
            if b & 1:
                out ^= a
            a <<= 1
            b >>= 1
        return out

    reducible = set()
    for d1 in (1, 2, 3):
        d2 = 4 - d1
        for a in range(1 << d1, 1 << (d1 + 1)):
            for b in range(1 << d2, 1 << (d2 + 1)):
                reducible.add(mul_bits(a, b))
    least = min(f for f in range(1 << 4, 1 << 5) if f not in reducible)
    assert least == 0b10011  # x^4 + x + 1
    assert canonical_modulus(2, 4) == (1, 1, 0, 0, 1)
    assert make_field(2, 4).modulus_poly == (1, 1, 0, 0, 1)


def test_field_spec_rejects_reducible_modulus():
    with pytest.raises(ValueError, match="reducible"):
        FieldSpec(2, 4, (1, 0, 0, 0, 1))  # x^4 + 1 = (x + 1)^4
    with pytest.raises(ValueError):
        FieldSpec(2, 4, (1, 1, 0, 0, 2))  # not monic over Z_2
    with pytest.raises(ValueError):
        FieldSpec(5, 1, (1, 1))  # prime fields take no modulus


def test_prime_field_ops():
    f = make_field(7)
    assert f.mul(3, 5) == 1  # 3 * 5 = 15 = 1 mod 7
    assert f.mul(4, 1) == 4
    assert f.sub(2, 5) == 4
    assert f.neg(3) == 4


def test_gf16_reduction():
    f = make_field(2, 4)
    x3, x = 8, 2  # coefficients (0, 0, 0, 1) and (0, 1)
    assert f.mul(x3, x) == 3  # x^4 = x + 1 under the modulus


def _all_fields_up_to(limit):
    """Every field of order <= limit: all primes plus all prime powers."""
    specs = [make_field(p) for p in trial_division_primes(2, limit)]
    for p in trial_division_primes(2, int(limit**0.5) + 1):
        k = 2
        while p**k <= limit:
            specs.append(make_field(p, k))
            k += 1
    return sorted(specs, key=lambda s: s.order)


def test_mul_by_the_oracle_inverse_gives_1_all_orders_up_to_256():
    for spec in _all_fields_up_to(256):
        for a in range(1, spec.order):
            inv = poly_inv(spec, a)
            assert spec.mul(a, inv) == spec.mul(inv, a) == 1


def test_multiplicative_group_cyclic_all_orders_up_to_256():
    for spec in _all_fields_up_to(256):
        g = multiplicative_generator(spec)
        assert multiplicative_order(spec, g) == spec.order - 1


def test_generator_powers():
    assert generator_powers(make_field(13)) == [1, 2, 4, 8, 3, 6, 12, 11, 9, 5, 10, 7]
    assert generator_powers(make_field(2)) == [1]


def test_walk_is_checked_for_every_element_up_to_order_64():
    # walking a's step gives a's powers iff a generates the group; any
    # other a (a revisit, or 0, which never comes back to 1) is refused
    walks = refused = 0
    for spec in _all_fields_up_to(64):
        n = spec.order
        for a in range(n):
            step = lambda x, a=a, s=spec: s.mul(x, a)
            if a and multiplicative_order(spec, a) == n - 1:
                powers = [1]
                for _ in range(n - 2):
                    powers.append(poly_mul(spec, powers[-1], a))
                assert field._walk(step, n) == powers, (spec, a)
                walks += 1
            else:
                with pytest.raises(AssertionError, match="generator is wrong"):
                    field._walk(step, n)
                refused += 1
    # 27 fields of 735 elements in all, of which sum(phi(N - 1)) generate
    assert (walks, refused) == (310, 425)


@pytest.mark.parametrize("p,k,g", [(13, 1, 3), (2, 4, 8), (3, 1, 0), (2, 1, 0), (5, 1, 1)])
def test_generator_powers_refuses_a_non_generator(p, k, g):
    # the walk behind generator_powers, on the named cases: 3 has order 3
    # mod 13 and 8 order 5 in GF(16)* (revisits); 0 in Z_3 and Z_2 repeats
    # nothing in n - 1 steps but does not come back to 1
    spec = make_field(p, k)
    with pytest.raises(AssertionError, match="generator is wrong"):
        field._walk(lambda x: spec.mul(x, g), spec.order)


@pytest.mark.parametrize("spec", [make_field(61), make_field(2, 6), make_field(3, 3),
                                  make_field(7, 2)])
def test_distributivity_exhaustive(spec):
    n = spec.order
    assert n <= 64
    add = [[poly_add(spec, b, c) for c in range(n)] for b in range(n)]
    for a in range(n):
        for b in range(n):
            ab = spec.mul(a, b)
            for c in range(n):
                assert spec.mul(a, add[b][c]) == add[ab][spec.mul(a, c)]


def test_repeated_mul_agrees_with_square_and_multiply_oracle():
    spec = make_field(3, 2)
    for a in range(spec.order):
        acc = 1
        for e in range(10):
            assert poly_pow(spec, a, e) == acc
            acc = spec.mul(acc, a)


def _oracle_generator(spec):
    """Least element whose powers, by polynomial multiplication, reach all
    N - 1 nonzero elements."""
    for g in range(2, spec.order):
        x, order = g, 1
        while x != 1:
            x = poly_mul(spec, x, g)
            order += 1
        if order == spec.order - 1:
            return g


@pytest.mark.parametrize("spec", [s for s in _all_fields_up_to(256) if s.degree > 1], ids=str)
def test_tables_match_polynomial_oracle_exhaustive(spec):
    # every GF(p^k), k > 1, of order <= 256 (prime fields keep plain int
    # arithmetic): each table operation against the digit/polynomial oracle
    n = spec.order
    assert multiplicative_generator(spec) == _oracle_generator(spec)
    for a in range(n):
        assert spec.neg(a) == poly_neg(spec, a)
        assert [spec.sub(a, b) for b in range(n)] == [poly_sub(spec, a, b) for b in range(n)]
        assert [spec.mul(a, b) for b in range(n)] == [poly_mul(spec, a, b) for b in range(n)]


@pytest.mark.parametrize("p,k", [(2, 12), (3, 8), (5, 4), (13, 3), (47, 2)])
def test_tables_match_polynomial_oracle_sampled(p, k):
    # p = 47 > 36: digits are not characters of a base-p string
    spec = make_field(p, k)
    rng = random.Random(1000 * p + k)
    elems = [0, 1, p - 1, spec.order - 1] + [rng.randrange(spec.order) for _ in range(1500)]
    for a, b in zip(elems, elems[1:] + elems[:1]):
        assert spec.sub(a, b) == poly_sub(spec, a, b)
        assert spec.mul(a, b) == poly_mul(spec, a, b)
        assert spec.neg(a) == poly_neg(spec, a)


def test_galois_order_cap(capsys):
    assert MAX_WALK_ORDER == 1 << 20
    gf2 = make_field(2, 21)  # the field and its encoding exist above the cap
    gf3 = make_field(3, 13)
    assert (gf2.order, gf3.order) == (1 << 21, 3**13)
    assert gf2.sub(2, 3) == 1  # subtraction acts on digits and needs no walk
    pairs = [(0, 0), (1, 2), (2, 2), (5, 3**12 + 7), (3**13 - 1, 3**13 - 1), (123456, 1 << 20)]
    for a, b in pairs:
        assert gf3.sub(a, b) == poly_sub(gf3, a, b)
        assert gf3.neg(a) == poly_neg(gf3, a)
    # the generator test needs no tables: p itself, the least element
    # outside Z_p, generates both groups, by polynomial powers g^(q/r) != 1
    # for the primes r of q = 2^21 - 1 = 7^2 * 127 * 337 and 3^13 - 1 = 2 * 797161
    for spec, primes in ((gf2, (7, 127, 337)), (gf3, (2, 797161))):
        q = spec.order - 1
        assert multiplicative_generator(spec) == spec.characteristic
        assert all(q % r == 0 and is_prime(r) for r in primes)
        assert all(poly_pow(spec, spec.characteristic, q // r) != 1 for r in primes)
        message = f"{spec} has {spec.order} elements; the generator walk is supported " \
                  f"up to order 2^20"
        for op in (lambda: spec.mul(2, 3), lambda: generator_powers(spec)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                op()
    assert [s.order for s in admissible_orders(3, 1 << 22, 1 << 22)] == [1 << 22]
    assert main(["primes", "--mod", "3", "--min", str(1 << 22), "--max", str(1 << 22)]) == 0
    assert capsys.readouterr().out == f"{1 << 22}\n"
    assert main(["search", "--galois", "2,22", "--mod", "3", "-t", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: GF(2^22) has") and "up to order 2^20" in err


def test_order_bound_is_checked_before_the_modulus_search(monkeypatch, capsys):
    # the least irreducible of degree 40 would be sought by trial division
    # among 2^40 candidates; an order above 2^31 is refused before any search
    def no_search(poly, p):
        raise AssertionError(f"_is_irreducible({poly}, {p}) was called")

    monkeypatch.setattr(field, "_is_irreducible", no_search)
    for build in (make_field, canonical_modulus):
        with pytest.raises(ValueError,
                           match=r"^field order 2\^40 exceeds supported range 2\^31$"):
            build(2, 40)
    assert main(["search", "--galois", "2,40", "--mod", "3", "-t", "5"]) == 3
    assert capsys.readouterr() == ("", "error: field order 2^40 exceeds supported range 2^31\n")


def test_walk_order_cap_is_inclusive_and_checked_first(monkeypatch):
    # at the cap both kinds walk; above it both are refused, and mul with
    # them, before the generator is sought or walked
    def no_call(*args):
        raise AssertionError("called")

    monkeypatch.setattr(field, "MAX_WALK_ORDER", 27)
    field._galois_tables.cache_clear()
    assert make_field(3, 3).mul(3, 9) == poly_mul(make_field(3, 3), 3, 9)
    assert len(generator_powers(make_field(23))) == 22
    monkeypatch.setattr(field, "multiplicative_generator", no_call)
    monkeypatch.setattr(field, "_walk", no_call)
    for spec in (make_field(29), make_field(2, 5), make_field(5, 3)):
        with pytest.raises(ValueError, match=rf"^{re.escape(str(spec))} has {spec.order} "
                                             r"elements; the generator walk"):
            generator_powers(spec)
    with pytest.raises(ValueError, match=r"^GF\(2\^5\) has 32 elements"):
        make_field(2, 5).mul(2, 3)
    field._galois_tables.cache_clear()


def test_table_walk_is_checked(monkeypatch):
    spec = make_field(2, 4)
    build = field._galois_tables.__wrapped__  # past the cache
    revisit = field._times_table(spec, 8)  # 8 has order 5 in GF(16)*
    no_return = [0] + list(range(2, 16)) + [2]  # 1 -> 2 -> ... -> 15 -> 2
    for table in (revisit, no_return):
        monkeypatch.setattr(field, "_times_table", lambda s, g, table=table: table)
        with pytest.raises(AssertionError, match="generator is wrong"):
            build(spec)


@pytest.mark.parametrize("spec", [make_field(2, 4), make_field(3, 8), make_field(1031)],
                         ids=str)
def test_generator_powers_is_a_new_walk_each_call(spec):
    g = multiplicative_generator(spec)
    powers = generator_powers(spec)
    again = generator_powers(spec)
    assert again == powers and again is not powers  # a caller may keep or modify its list
    if spec.degree > 1:
        assert field._galois_tables(spec)[0] == powers and spec._tables[0] is not powers
    x = 1
    for i in range(spec.order - 1):
        assert powers[i] == x
        x = poly_mul(spec, x, g)
