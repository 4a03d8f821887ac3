"""Field arithmetic, canonical moduli, and admissible order enumeration."""

import random

import pytest

from ramseykit import field
from ramseykit.cli import main
from ramseykit.field import (
    GALOIS_MAX_ORDER,
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
    assert f.inv(3) == 5  # 3 * 5 = 15 = 1 mod 7
    assert f.mul(4, 1) == 4
    assert f.add(5, 4) == 2
    assert f.sub(2, 5) == 4
    assert f.pow(3, 6) == 1
    with pytest.raises(ValueError):
        f.inv(0)


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


def test_inv_is_involutive_all_orders_up_to_256():
    for spec in _all_fields_up_to(256):
        for a in range(1, spec.order):
            inv = spec.inv(a)
            assert spec.mul(a, inv) == 1
            assert spec.inv(inv) == a


def test_multiplicative_group_cyclic_all_orders_up_to_256():
    for spec in _all_fields_up_to(256):
        g = multiplicative_generator(spec)
        assert multiplicative_order(spec, g) == spec.order - 1


def test_generator_powers():
    assert generator_powers(make_field(13), 2) == [1, 2, 4, 8, 3, 6, 12, 11, 9, 5, 10, 7]
    gf81 = make_field(3, 4)
    g = multiplicative_generator(gf81)
    powers = generator_powers(gf81, g)
    assert powers == [gf81.pow(g, i) for i in range(80)]


@pytest.mark.parametrize("p,k,g", [(13, 1, 3), (2, 4, 8), (3, 1, 0), (2, 1, 0), (5, 1, 1)])
def test_generator_powers_refuses_a_non_generator(p, k, g):
    # 3 has order 3 mod 13 and 8 order 5 in GF(16)* (revisits); 0 in Z_3 and
    # Z_2 repeats nothing in n - 1 steps but does not come back to 1
    with pytest.raises(AssertionError, match="generator is wrong"):
        generator_powers(make_field(p, k), g)


@pytest.mark.parametrize("spec", [make_field(61), make_field(2, 6), make_field(3, 3),
                                  make_field(7, 2)])
def test_distributivity_exhaustive(spec):
    n = spec.order
    assert n <= 64
    for a in range(n):
        for b in range(n):
            ab = spec.mul(a, b)
            for c in range(n):
                assert spec.mul(a, spec.add(b, c)) == spec.add(ab, spec.mul(a, c))


def test_pow_square_and_multiply_agrees_with_repeated_mul():
    spec = make_field(3, 2)
    for a in range(spec.order):
        acc = 1
        for e in range(10):
            assert spec.pow(a, e) == acc
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
        if a:
            assert spec.inv(a) == spec.pow(a, -1) == poly_inv(spec, a)
        assert [spec.add(a, b) for b in range(n)] == [poly_add(spec, a, b) for b in range(n)]
        assert [spec.sub(a, b) for b in range(n)] == [poly_sub(spec, a, b) for b in range(n)]
        assert [spec.mul(a, b) for b in range(n)] == [poly_mul(spec, a, b) for b in range(n)]


@pytest.mark.parametrize("p,k", [(2, 12), (3, 8), (5, 4), (13, 3), (47, 2)])
def test_tables_match_polynomial_oracle_sampled(p, k):
    # p = 47 > 36: digits are not characters of a base-p string
    spec = make_field(p, k)
    rng = random.Random(1000 * p + k)
    elems = [0, 1, p - 1, spec.order - 1] + [rng.randrange(spec.order) for _ in range(1500)]
    for a, b in zip(elems, elems[1:] + elems[:1]):
        assert spec.add(a, b) == poly_add(spec, a, b)
        assert spec.sub(a, b) == poly_sub(spec, a, b)
        assert spec.mul(a, b) == poly_mul(spec, a, b)
        assert spec.neg(a) == poly_neg(spec, a)
        if a:
            assert spec.inv(a) == poly_inv(spec, a)


def test_galois_order_cap(capsys):
    assert GALOIS_MAX_ORDER == 1 << 20
    gf2 = make_field(2, 21)  # the field and its encoding exist above the cap
    gf3 = make_field(3, 13)
    assert (gf2.order, gf3.order) == (1 << 21, 3**13)
    assert gf2.add(2, 3) == 1  # characteristic-2 addition needs no tables
    for op in (lambda: gf2.mul(2, 3), lambda: gf2.inv(2), lambda: gf2.pow(2, 5),
               lambda: multiplicative_generator(gf2), lambda: gf3.add(1, 1),
               lambda: gf3.sub(1, 2), lambda: gf3.neg(1), lambda: gf3.mul(2, 3)):
        with pytest.raises(ValueError, match=r"up to order 2\^20"):
            op()
    assert [s.order for s in admissible_orders(3, 1 << 22, 1 << 22)] == [1 << 22]
    assert main(["primes", "--mod", "3", "--min", str(1 << 22), "--max", str(1 << 22)]) == 0
    assert capsys.readouterr().out == f"{1 << 22}\n"
    assert main(["search", "--galois", "2,22", "--mod", "3", "-t", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "up to order 2^20" in err


def test_galois_order_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(field, "GALOIS_MAX_ORDER", 27)
    field._galois_tables.cache_clear()
    assert make_field(3, 3).mul(3, 9) == poly_mul(make_field(3, 3), 3, 9)
    with pytest.raises(ValueError, match="arithmetic needs tables"):
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


@pytest.mark.parametrize("spec", [make_field(2, 4), make_field(3, 8)], ids=str)
def test_generator_powers_is_the_antilog_table(spec):
    q = spec.order - 1
    g = multiplicative_generator(spec)
    powers = generator_powers(spec, g)
    assert powers is generator_powers(spec, g)  # the table itself, not a copy
    x = 1
    for i in range(q):
        assert powers[i] == x
        x = poly_mul(spec, x, g)
    h = spec.pow(g, 7)  # another generator (gcd(7, q) = 1): walked and checked
    other = generator_powers(spec, h)
    assert other is not powers and other == [powers[7 * i % q] for i in range(q)]
