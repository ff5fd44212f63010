"""Field arithmetic: construction, operations, and elementary order facts."""

import functools
import itertools
import math
import random

import pytest

from field_oracle import (
    divisors,
    field_from_record,
    in_subfield,
    subfield_trace,
)
from thetamap import gf2_arith
from thetamap.gf2_arith import (
    CONWAY_POLY,
    FieldError,
    factorize,
    field_to_record,
    is_irreducible,
    make_field,
)
from thetamap.theta_graph import unit_walk

# ---------------------------------------------------------------------------
# Independent schoolbook oracle on coefficient lists


def poly_from_bits(bits):
    return [(bits >> i) & 1 for i in range(bits.bit_length())]


def poly_to_bits(coeffs):
    out = 0
    for i, c in enumerate(coeffs):
        if c:
            out |= 1 << i
    return out


def schoolbook_mulmod(a_bits, b_bits, mod_bits):
    """Convolution mod 2, then long division by the modulus."""
    a, b, m = poly_from_bits(a_bits), poly_from_bits(b_bits), poly_from_bits(mod_bits)
    prod = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] ^= bj
    dm = len(m) - 1
    for k in range(len(prod) - 1, dm - 1, -1):
        if prod[k]:
            for j, mj in enumerate(m):
                prod[k - dm + j] ^= mj
    return poly_to_bits(prod[:dm])


# ---------------------------------------------------------------------------
# Conway table oracle: re-derive small entries from the defining property


def conway_from_definition(t, table):
    div_exps = [d for d in range(1, t) if t % d == 0]
    f = (1 << t) | 1
    while True:
        if (is_irreducible(f) and _primitive_x(f, t)
                and all(_norm_compatible(table[d], d, f, t) for d in div_exps)):
            return f
        f += 2


def _primitive_x(f, t):
    n = (1 << t) - 1
    if _ppow(2, n, f) != 1:
        return False
    for p, _ in factorize(n).primes:
        if _ppow(2, n // p, f) == 1:
            return False
    return True


def _pmod(a, m):
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _ppow(a, e, f):
    r = _pmod(1, f)
    a = _pmod(a, f)
    while e:
        if e & 1:
            r = _pmod_mul(r, a, f)
        a = _pmod_mul(a, a, f)
        e >>= 1
    return r


def _pmod_mul(a, b, f):
    return _pmod(schoolbook_mulmod_raw(a, b), f)


def schoolbook_mulmod_raw(a, b):
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    return r


def _norm_compatible(cd, d, f, t):
    e = ((1 << t) - 1) // ((1 << d) - 1)
    pt = _ppow(2, e, f)
    acc = 0
    for i in range(cd.bit_length() - 1, -1, -1):
        acc = _pmod_mul(acc, pt, f)
        if (cd >> i) & 1:
            acc ^= 1
    return acc == 0


def test_conway_table_matches_definition_small():
    derived = {}
    for t in range(1, 11):
        derived[t] = conway_from_definition(t, derived)
        assert derived[t] == CONWAY_POLY[t], f"t={t}"


def test_conway_six_is_the_expected_polynomial():
    # x^6 + x^4 + x^3 + x + 1
    assert make_field(6).modulus == 0b1011011


# ---------------------------------------------------------------------------
# make_field


def test_make_field_one():
    f = make_field(1)
    assert f.q == 2 and f.gen == 1
    assert f.fact_minus.primes == ()


def test_make_field_four_fact_plus():
    assert make_field(4).fact_plus.primes == ((17, 1),)


def test_make_field_rejects_reducible_modulus():
    with pytest.raises(FieldError):
        make_field(4, modulus=0b10001)       # x^4 + 1 = (x+1)^4


def test_make_field_range_cap():
    # only t < 1 is refused: the degree cap is the command line's
    for t in (0, -1):
        with pytest.raises(FieldError):
            make_field(t)
    assert make_field(25).t == 25


def test_make_field_with_supplied_modulus():
    # x^4 + x^3 + x^2 + x + 1 is irreducible but x has order 5, so the
    # generator search must land elsewhere
    f = make_field(4, modulus=0b11111)
    assert f.gen != 2
    assert f.order(f.gen) == 15
    with pytest.raises(FieldError):
        make_field(4, modulus=0b1011011)     # degree 6 polynomial


def test_make_field_beyond_conway_uses_least_irreducible():
    f = make_field(17)
    assert f.modulus.bit_length() - 1 == 17
    assert is_irreducible(f.modulus)
    for cand in range((1 << 17) | 1, f.modulus, 2):
        assert not is_irreducible(cand)
    assert f.order(f.gen) == 2 ** 17 - 1


def test_rs_decomposition():
    f = make_field(12)
    assert (f.r, f.s) == (2, 3)
    f = make_field(7)
    assert (f.r, f.s) == (0, 7)


# ---------------------------------------------------------------------------
# element operations


def test_add_identities():
    f = make_field(6)
    a = 0b101011
    assert a ^ a == 0
    assert a ^ 0 == a


def test_add_against_schoolbook():
    f = make_field(6)
    a = f.gen
    b = f.exp_of(45)
    assert a ^ b == poly_to_bits(
        [x ^ y for x, y in zip(poly_from_bits(a) + [0] * 6,
                               poly_from_bits(b) + [0] * 6)])


def test_mul_identities():
    f = make_field(8)
    a = 0xA7
    assert f.mul(a, 1) == a
    assert f.mul(a, 0) == 0


def test_mul_exponent_arithmetic():
    f = make_field(6)
    # dlog oracle built by repeated schoolbook multiplication
    logt = {}
    v = 1
    for i in range(63):
        logt[v] = i
        v = schoolbook_mulmod(v, f.gen, f.modulus)
    for i, j in [(3, 9), (45, 27), (62, 1), (31, 55)]:
        p = f.mul(f.exp_of(i), f.exp_of(j))
        assert logt[p] == (i + j) % 63


@pytest.mark.parametrize("t", [1, 2, 3, 6, 8, 12])
def test_mul_against_schoolbook_oracle(t):
    f = make_field(t)
    rng = random.Random(1000 + t)
    for _ in range(10_000):
        a = rng.randrange(f.q)
        b = rng.randrange(f.q)
        assert f.mul(a, b) == schoolbook_mulmod(a, b, f.modulus)


def test_mul_table_and_shiftxor_paths_agree():
    f = make_field(9)
    rng = random.Random(7)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(500)]
    plain = [f.mul(a, b) for a, b in pairs]       # before tables exist
    f.ensure_tables()
    assert plain == [f.mul(a, b) for a, b in pairs]


# ---------------------------------------------------------------------------
# Kernel oracles: the split-table build and the log-based degree against the
# one-step walk and the Frobenius search they replace

# x^8 + x^4 + x^3 + x + 1 is irreducible but not primitive, so the generator
# is not the class of x.
NON_CONWAY_RECORD = "t=8 modulus=11b generator=3"


def walked_tables(f):
    """exp (doubled) and log by multiplying by the generator one step at a time."""
    n = f.q - 1
    exp, log = [], [0] * f.q
    v = 1
    for i in range(n):
        exp.append(v)
        log[v] = i
        v = gf2_arith._pmulmod(v, f.gen, f.modulus)
    return exp + exp, log


def frobenius_degree(f, a):
    return next(d for d in divisors(factorize(f.t)) if in_subfield(f, a, d))


@pytest.mark.parametrize("t", range(1, 19))
def test_split_tables_match_the_generator_walk(t):
    f = make_field(t)
    exp, log = f.tables()
    assert (list(exp), list(log)) == walked_tables(f)
    assert (exp.typecode, log.typecode) == ("i", "i")


def test_split_tables_match_the_walk_for_a_non_conway_modulus():
    f = field_from_record(NON_CONWAY_RECORD)
    assert f.gen != 2
    exp, log = f.tables()
    assert (list(exp), list(log)) == walked_tables(f)


def test_walks_refuse_split_tables_that_start_off_their_multiplier(
        monkeypatch):
    # every multiplier's split tables are those of its 7th power, a unit of
    # the same order in GF(2^8): each walk still closes, but its first step
    # goes to c^7, not c
    f = make_field(8)
    true_tables = gf2_arith.FieldSpec.mul_tables
    monkeypatch.setattr(gf2_arith.FieldSpec, "mul_tables",
                        lambda self, c: true_tables(self, self.pow(c, 7)))
    h = f.pow(f.gen, 17)
    for walk, c in ((lambda: f.powers(f.gen, 3), f.gen),
                    (f.ensure_tables, f.gen),
                    (lambda: f.subgroup(15), h),
                    (lambda: unit_walk(f), f.gen)):
        with pytest.raises(FieldError) as exc:
            walk()
        assert str(exc.value) == (
            f"split tables of {c:#x} send 1 to {f.pow(c, 7):#x}")
    assert f._log is None


def test_unit_walk_matches_the_generator_walk_and_the_tables():
    # the walk's map sends gen^i to gen^i + gen^-i, with 1/gen^i = gen^(n-i)
    fields = [make_field(t) for t in range(1, 13)]
    fields.append(field_from_record(NON_CONWAY_RECORD))
    for f in fields:
        n = f.q - 1
        succ = list(unit_walk(f).succ)           # before tables exist
        exp, _ = walked_tables(f)
        pairs = [(exp[i], exp[n - i]) for i in range(n)]
        assert all(succ[x] == x ^ xi for x, xi in pairs), f
        assert all(f.mul(x, xi) == 1 for x, xi in pairs), f
        tabled, _ = f.tables()
        assert pairs == [(tabled[i], tabled[n - i]) for i in range(n)], f
        assert list(unit_walk(f).succ) == succ, f


DEGREE_FIELDS = {f"t={t}": (lambda t=t: make_field(t)) for t in (1, 4, 6, 8, 12)}
DEGREE_FIELDS["non-conway"] = lambda: field_from_record(NON_CONWAY_RECORD)


@pytest.mark.parametrize("name", DEGREE_FIELDS)
def test_log_degree_matches_frobenius_search(name):
    f = DEGREE_FIELDS[name]()
    want = [frobenius_degree(f, a) for a in range(f.q)]
    assert [f.degree(a) for a in range(f.q)] == want


def test_inv():
    f = make_field(6)
    assert f.inv(1) == 1
    assert f.inv(f.gen) == f.exp_of(62)
    for e in range(1, f.q):
        assert f.inv(f.inv(e)) == e
        assert f.mul(e, f.inv(e)) == 1
    with pytest.raises(FieldError):
        f.inv(0)


@pytest.mark.parametrize("t", range(1, 13))
def test_euclidean_inverse_matches_fermat_power(t):
    f = make_field(t)
    for a in range(1, f.q):
        assert (gf2_arith._pinvmod(a, f.modulus)
                == gf2_arith._ppowmod(a, f.q - 2, f.modulus))


@pytest.mark.parametrize("t", range(16, 33))
def test_euclidean_inverse_sampled_non_conway(t):
    # the second irreducible of degree t that is neither the Conway nor
    # the least polynomial, so no default field's modulus
    candidates = (f for f in range((1 << t) | 1, 2 << t, 2)
                  if f != CONWAY_POLY.get(t) and is_irreducible(f))
    modulus = next(itertools.islice(candidates, 1, None))
    rng = random.Random(t)
    for a in [1, 2, (1 << t) - 1] + [rng.randrange(3, 1 << t)
                                     for _ in range(20)]:
        inv = gf2_arith._pinvmod(a, modulus)
        assert inv == gf2_arith._ppowmod(a, (1 << t) - 2, modulus)
        assert schoolbook_mulmod(a, inv, modulus) == 1


def test_euclidean_inverse_refuses_non_units():
    for a, m in [(0, 0x13), (0x13, 0x13), (0x2, 0x6), (0x3, 0x6)]:
        with pytest.raises(FieldError):
            gf2_arith._pinvmod(a, m)


def test_trace():
    f2 = make_field(2)
    omega = f2.gen
    # omega + omega^2 = 1 because omega's minimal polynomial is x^2 + x + 1
    assert f2.trace(omega) == 1
    for t in (1, 2, 3, 4, 5, 6):
        f = make_field(t)
        assert f.trace(0) == 0
        assert f.trace(1) == t % 2
        for e in range(f.q):
            frob = sum_of_conjugates(f, e, t)
            assert f.trace(e) == frob


@pytest.mark.parametrize("t, modulus", [(t, None) for t in range(1, 11)]
                         + [(8, 0x11B), (10, 0x409)])
def test_trace_tables_match_conjugate_sums(t, modulus):
    f = make_field(t, modulus)
    walk = unit_walk(f)
    tr, tr_inv = walk.tr, walk.tr_inv
    assert tr == f.trace_bytes()
    assert list(tr) == [sum_of_conjugates(f, a, t) for a in range(f.q)]
    assert tr_inv[0] == 0
    for a in range(1, f.q):
        assert tr_inv[a] == tr[f.inv(a)]
        assert schoolbook_mulmod(a, f.inv(a), f.modulus) == 1


def sum_of_conjugates(f, a, d):
    acc, v = 0, a
    for _ in range(d):
        acc ^= v
        v = schoolbook_mulmod(v, v, f.modulus)
    assert acc in (0, 1)
    return acc


def test_subfield_trace_contract():
    f = make_field(6)
    omega = f.exp_of(21)                  # order 3, lives in GF(4)
    assert subfield_trace(f, omega, 2) == sum_of_conjugates(f, omega, 2)
    with pytest.raises(FieldError):
        subfield_trace(f, f.gen, 2)       # generator is not in GF(4)
    with pytest.raises(FieldError):
        subfield_trace(f, omega, 4)       # 4 does not divide 6


def test_order():
    f = make_field(6)
    assert f.order(1) == 1
    assert f.order(f.gen) == 63
    assert f.order(f.exp_of(21)) == 3               # 63 / gcd(63, 21)
    with pytest.raises(FieldError):
        f.order(0)
    for e in range(1, f.q):                   # order matches brute force
        o = f.order(e)
        assert f.pow(e, o) == 1
        for p, _ in factorize(o).primes:
            assert f.pow(e, o // p) != 1


def test_degree():
    f = make_field(6)
    assert f.degree(0) == 1
    assert f.degree(1) == 1
    assert f.degree(f.gen) == 6
    assert f.degree(f.exp_of(21)) == 2              # order 3 divides 2^2 - 1


# ---------------------------------------------------------------------------
# factorization


def test_factorize_examples():
    assert factorize(1).primes == ()
    assert factorize(65).primes == ((5, 1), (13, 1))
    assert factorize(2 ** 16 + 1).primes == ((65537, 1),)


def test_factorize_reconstructs_and_sorts():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 10 ** 12)
        fac = factorize(n)
        prod = 1
        for p, e in fac.primes:
            prod *= p ** e
        assert prod == n
    big = factorize((2 ** 31 - 1) * (2 ** 31 - 1))   # square of a large prime
    assert big.primes == ((2 ** 31 - 1, 2),)


@pytest.mark.parametrize("primes, value, why", [
    (((3, 1), (2, 1)), 6, "malformed factorization of 6"),
    (((2, 1), (2, 1)), 4, "malformed factorization of 4"),
    (((5, 0),), 1, "malformed factorization of 1"),
    (((2, 1), (3, 1)), 12, "factorization does not reconstruct 12"),
])
def test_factorization_refuses_what_it_cannot_be(primes, value, why):
    with pytest.raises(FieldError, match=f"^{why}$"):
        gf2_arith.Factorization(primes, value)
    fac = gf2_arith.Factorization(((2, 2), (3, 1)), 12)
    assert (fac.primes, fac.value, fac.least_prime()) == (((2, 2), (3, 1)),
                                                           12, 2)


def test_factorize_range():
    with pytest.raises(FieldError):
        factorize(0)
    with pytest.raises(FieldError):
        factorize(1 << 64)


def test_divisors():
    assert divisors(factorize(60)) == [1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60]


# ---------------------------------------------------------------------------
# elementary order and divisor facts


def test_gcd_of_group_orders_coprime():
    for t in range(1, 21):
        assert math.gcd(2 ** t - 1, 2 ** t + 1) == 1
        assert math.gcd(2 ** t + 1, 2 ** (2 * t) + 1) == 1


def test_coprime_orders_multiply():
    f = make_field(12)
    rng = random.Random(99)
    divs = divisors(factorize(f.q - 1))
    for _ in range(300):
        d1 = rng.choice(divs)
        d2 = rng.choice(divs)
        if math.gcd(d1, d2) != 1:
            continue
        g1 = f.pow(f.gen, (f.q - 1) // d1)
        g2 = f.pow(f.gen, (f.q - 1) // d2)
        assert f.order(g1) == d1 and f.order(g2) == d2
        assert f.order(f.mul(g1, g2)) == d1 * d2


@pytest.mark.parametrize("t", range(1, 13))
def test_no_unit_order_divides_q_plus_one(t):
    # beyond 0 and 1, no element's order divides 2^t + 1
    f = make_field(t)
    for bits in range(2, f.q):
        assert (f.q + 1) % f.order(bits) != 0


def test_divisors_of_generalized_fermat_numbers():
    for t in range(1, 21):
        r = 0
        tt = t
        while tt % 2 == 0:
            r += 1
            tt //= 2
        for d in divisors(factorize(2 ** t + 1)):
            assert d % (1 << (r + 1)) == 1, (t, d)


@pytest.mark.parametrize("t", range(1, 13))
def test_degree_after_map_is_t_or_half(t):
    f = make_field(t)
    for bits in range(1, f.q):
        if f.degree(bits) != t:
            continue
        b = bits ^ f.inv(bits)
        db = 1 if b == 0 else f.degree(b)
        if b == 0:
            continue                      # only x = 1, which has degree 1
        assert db in {t, t // 2} if t % 2 == 0 else db == t


# ---------------------------------------------------------------------------
# serialization


# ---------------------------------------------------------------------------
# Subfield embeddings against the linear root search


def linear_search_embedding(sub, ambient):
    """The embedding by the first root of sub.modulus among ghat, ghat^2,
    ..., each evaluated by Horner's rule: no coset or order filter."""
    d = sub.t
    units = (1 << d) - 1
    rho = [1] * d
    if d > 1:
        ghat = ambient.pow(ambient.gen, (ambient.q - 1) // units)
        cand = ghat
        for _ in range(units):
            acc = 0
            for i in range(d, -1, -1):
                acc = ambient.mul(acc, cand)
                if (sub.modulus >> i) & 1:
                    acc ^= 1
            if acc == 0:
                break
            cand = ambient.mul(cand, ghat)
        else:
            raise AssertionError("no root")
        for j in range(1, d):
            rho[j] = ambient.mul(rho[j - 1], cand)
    table = [0] * (1 << d)
    for bits in range(1, 1 << d):
        low = bits & -bits
        table[bits] = table[bits ^ low] ^ rho[low.bit_length() - 1]
    return table


@functools.lru_cache(maxsize=None)
def default_and_other_field(t):
    """make_field(t), and GF(2^t) under the least other irreducible modulus
    (x for t = 1; GF(4) has no other)."""
    f = make_field(t)
    others = (m for m in range(1 << t, 2 << t)
              if m != f.modulus and is_irreducible(m))
    return (f, *(make_field(t, m) for m in itertools.islice(others, 1)))


@pytest.mark.parametrize("d", range(1, 13))
@pytest.mark.parametrize("k", [2, 3])
def test_embedding_matches_linear_root_search(d, k):
    for sub in default_and_other_field(d):
        for ambient in default_and_other_field(k * d):
            basis = gf2_arith.subfield_embedding(sub, ambient)
            assert (gf2_arith.span_table(basis)
                    == linear_search_embedding(sub, ambient)), (sub, ambient)


ORBIT_MODULI = {
    "odd-to-301": range(1, 302, 2),
    "2^d-1": [(1 << d) - 1 for d in range(2, 13)],
    "q^2+1": [(1 << 2 * n) + 1 for n in range(1, 5)],
}


@pytest.mark.parametrize("family", ORBIT_MODULI)
def test_doubling_orbits_partition_the_exponents(family):
    # each orbit is its leader doubled until the value returns; the orbits
    # cover 1..k-1 once each (none at k = 1), leaders ascending; modulo
    # 2^d-1 the leaders are the cyclotomic-coset leaders of the rotation
    # oracle
    for k in ORBIT_MODULI[family]:
        orbits = list(gf2_arith.doubling_orbits(k))
        for o in orbits:
            assert o == [o[0] * pow(2, i, k) % k for i in range(len(o))], k
            assert o[0] * pow(2, len(o), k) % k == o[0], k
        assert sorted(j for o in orbits for j in o) == list(range(1, k)), k
        leaders = [o[0] for o in orbits]
        assert leaders == sorted(leaders), k
        d = k.bit_length()
        if k == (1 << d) - 1:
            assert leaders == [j for j in range(1, k)
                               if gf2_arith._coset_leader(j, d)], k


def test_record_roundtrip():
    f = make_field(6)
    rec = field_to_record(f)
    assert rec == "t=6 modulus=5b generator=2"
    g = field_from_record(rec)
    assert (g.t, g.modulus, g.gen) == (f.t, f.modulus, f.gen)


def test_record_rejects_garbage():
    with pytest.raises(FieldError):
        field_from_record("t=6 modulus=zz generator=2")
    with pytest.raises(FieldError):
        field_from_record("nonsense")
    with pytest.raises(FieldError):
        field_from_record("t=6 modulus=5b generator=3")   # order(3) < 63
