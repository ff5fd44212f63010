"""Exact arithmetic in binary fields GF(2^t).

Field elements are polynomial-basis coordinate vectors packed little-endian
into Python ints: bit i of the packed value is the coefficient of x^i.  With
that encoding addition is XOR and multiplication is a carry-less product
followed by reduction modulo the field's irreducible polynomial.

A ``FieldSpec`` fixes the arithmetic context: extension degree t (written
t = 2^r * s with s odd), the modulus, a generator of the multiplicative
group, and the factored group orders 2^t - 1 and 2^t + 1 that drive exact
multiplicative-order computations.  Moduli default to Conway polynomials for
t <= 16 (so generator labels are reproducible across tools), and to the
numerically least irreducible polynomial beyond that.

``FieldSpec`` methods operate on raw packed ints; they are the kernels used
by the graph and sweep code.  ``FieldSpec`` alone decides whether a field
has log/exp tables, and builds them only for a caller of ``tables`` or
``dlog``; without them products go by shift-xor.  The whole-field walks
need no log table.  Each steps by the split tables of ``mul_tables``, taken
through ``step_tables``, which refuses tables whose image of 1 is not their
multiplier: one element's powers come from ``powers`` (and the log/exp
tables from gen's), those of the order-k subgroup's generator from
``subgroup``, and the Dickson values D_k(x) from ``dickson_values``.  The
walk of every unit, which pairs it with its inverse and gives Tr(1/a), is
``theta_graph.unit_walk``; Tr(a) for every a at once comes from
``trace_bytes`` and needs no walk, and traces at every subfield level come
from ``trace_mask``.  Squaring acts on logs as j -> 2j, and the orbits of
that map modulo an odd k come from one sieve, ``doubling_orbits``.
"""

from __future__ import annotations

import math
from array import array
from collections import deque

__all__ = [
    "FieldError",
    "Factorization",
    "FieldSpec",
    "make_field",
    "subfield_embedding",
    "doubling_orbits",
    "factorize",
    "field_to_record",
    "CONWAY_POLY",
]

# Log/exp tables are built on first use (``tables``, ``dlog``) for fields up
# to this degree; beyond it discrete logs are refused, so labels fall back
# to hex, and multiplication stays on the shift-xor path.
TABLE_MAX_T = 20


class FieldError(ValueError):
    """Domain error in field construction or element arithmetic."""


# ---------------------------------------------------------------------------
# GF(2)[x] on packed ints

def _pmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2) polynomials."""
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    return r


def _pmod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    da = a.bit_length() - 1
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length() - 1
    return a


def _pmulmod(a: int, b: int, m: int) -> int:
    return _pmod(_pmul(a, b), m)


def _ppowmod(a: int, e: int, m: int) -> int:
    r = _pmod(1, m)
    a = _pmod(a, m)
    while e:
        if e & 1:
            r = _pmulmod(r, a, m)
        a = _pmulmod(a, a, m)
        e >>= 1
    return r


def _pinvmod(a: int, m: int) -> int:
    """Inverse of a modulo m in GF(2)[x] by the extended Euclidean
    algorithm: about 2*deg(m) shift-xor steps and no products.

    Keeps g1*a = u and g2*a = v (mod m) while u and v shrink to their gcd;
    u reaches 1 exactly when that gcd is 1, and reaches 0 otherwise.
    """
    u, v = _pmod(a, m), m
    g1, g2 = 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            if u == 0:
                raise FieldError(f"{a:#x} has no inverse modulo {m:#x}")
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


# bytes.translate table swapping the bytes 0 and 1
_FLIP = bytes((1, 0)) + bytes(range(2, 256))


def span_table(basis: list[int]) -> list[int]:
    """Entry j is the XOR of basis[i] over the set bits i of j."""
    tab = [0]
    for b in basis:
        tab += [v ^ b for v in tab]
    return tab


def is_irreducible(f: int) -> bool:
    """Rabin test: x^(2^t) = x mod f, gcd(x^(2^(t/p)) - x, f) = 1 for p | t."""
    t = f.bit_length() - 1
    if t < 1:
        return False
    if not (f & 1):
        return f == 2  # x itself; every other even polynomial has factor x
    x = _pmod(2, f)
    if _ppowmod(2, 1 << t, f) != x:
        return False
    for p, _ in factorize(t).primes:
        if _pgcd(_ppowmod(2, 1 << (t // p), f) ^ x, f) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# Integer factorization (trial division + Brent's rho), 64-bit cap

_TRIAL_LIMIT = 10 ** 6

# Deterministic Miller-Rabin witnesses for n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed on {n}")


class Factorization:
    """Complete prime factorization: strictly increasing (prime, exponent)."""

    __slots__ = ("primes", "value")

    def __init__(self, primes: tuple[tuple[int, int], ...], value: int):
        prod = 1
        last = 1
        for p, e in primes:
            if p <= last or e < 1:
                raise FieldError(f"malformed factorization of {value}")
            last = p
            prod *= p ** e
        if prod != value:
            raise FieldError(f"factorization does not reconstruct {value}")
        self.primes = primes
        self.value = value

    def least_prime(self) -> int | None:
        return self.primes[0][0] if self.primes else None


def factorize(n: int) -> Factorization:
    """Prime factorization of 1 <= n < 2^64."""
    if not 1 <= n < (1 << 64):
        raise FieldError(f"factorize: {n} outside [1, 2^64)")
    value = n
    fac: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d <= _TRIAL_LIMIT and d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if n == 1:
            continue
        if _is_prime(n):
            fac[n] = fac.get(n, 0) + 1
            continue
        g = _brent_rho(n)
        stack.append(g)
        stack.append(n // g)
    return Factorization(tuple(sorted(fac.items())), value)


def _order_from_factors(n: int, fact: Factorization, pow1) -> int:
    """Exact order of an element in a group of order n = fact.value.

    ``pow1(e)`` raises the element to the e-th power; reduces the candidate
    exponent prime by prime.
    """
    o = n
    for p, _ in fact.primes:
        while o % p == 0 and pow1(o // p) == 1:
            o //= p
    return o


# ---------------------------------------------------------------------------
# Conway polynomials over GF(2), t <= 16 (verified against the defining
# property: least primitive polynomial norm-compatible with all subfields).

CONWAY_POLY = {
    1: 0x3,       # x + 1
    2: 0x7,       # x^2 + x + 1
    3: 0xB,       # x^3 + x + 1
    4: 0x13,      # x^4 + x + 1
    5: 0x25,      # x^5 + x^2 + 1
    6: 0x5B,      # x^6 + x^4 + x^3 + x + 1
    7: 0x83,      # x^7 + x + 1
    8: 0x11D,     # x^8 + x^4 + x^3 + x^2 + 1
    9: 0x211,     # x^9 + x^4 + 1
    10: 0x46F,    # x^10 + x^6 + x^5 + x^3 + x^2 + x + 1
    11: 0x805,    # x^11 + x^2 + 1
    12: 0x10EB,   # x^12 + x^7 + x^6 + x^5 + x^3 + x + 1
    13: 0x201B,   # x^13 + x^4 + x^3 + x + 1
    14: 0x40A9,   # x^14 + x^7 + x^5 + x^3 + 1
    15: 0x8035,   # x^15 + x^5 + x^4 + x^2 + 1
    16: 0x1002D,  # x^16 + x^5 + x^3 + x^2 + 1
}


def _least_irreducible(t: int) -> int:
    f = (1 << t) | 1
    while not is_irreducible(f):
        f += 2
    return f


class FieldSpec:
    """Immutable arithmetic context for GF(2^t).

    All methods below take and return packed ints.  Construction validates
    the modulus, finds (or verifies) a generator of order 2^t - 1, and
    factors both 2^t - 1 and 2^t + 1.
    """

    __slots__ = (
        "t", "r", "s", "q", "modulus", "gen", "fact_minus", "fact_plus",
        "_trace_masks", "_exp", "_log",
    )

    def __init__(self, t: int, modulus: int, generator: int | None = None):
        if t < 1:
            raise FieldError(f"t={t} must be positive")
        if modulus.bit_length() - 1 != t:
            raise FieldError(f"modulus degree {modulus.bit_length() - 1} != t={t}")
        if not is_irreducible(modulus):
            raise FieldError(f"modulus {modulus:#x} is reducible")
        self.t = t
        r, s = 0, t
        while s % 2 == 0:
            r += 1
            s //= 2
        self.r = r
        self.s = s
        self.q = 1 << t
        self.modulus = modulus
        self.fact_minus = factorize(self.q - 1)
        self.fact_plus = factorize(self.q + 1)
        self._trace_masks = {}
        self._exp = None
        self._log = None
        if generator is None:
            generator = self._find_generator()
        elif self.order(generator) != self.q - 1:
            raise FieldError(f"{generator:#x} does not generate GF(2^{t})*")
        self.gen = generator

    # -- construction helpers ------------------------------------------------

    def _find_generator(self) -> int:
        n = self.q - 1
        if n == 1:
            return 1
        for g in range(2, self.q):
            if self.order(g) == n:
                return g
        raise FieldError("no primitive element found")  # unreachable

    # -- raw arithmetic on packed ints ---------------------------------------

    def mul(self, a: int, b: int) -> int:
        log = self._log
        if log is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[log[a] + log[b]]
        return _pmulmod(a, b, self.modulus)

    def sqr(self, a: int) -> int:
        log = self._log
        if log is not None:
            if a == 0:
                return 0
            return self._exp[2 * log[a]]
        return _pmulmod(a, a, self.modulus)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise FieldError("negative power of zero")
            return 0
        log = self._log
        if log is not None:
            return self._exp[log[a] * e % (self.q - 1)]
        if e < 0:
            a = self.inv(a)
            e = -e
        return _ppowmod(a, e, self.modulus)

    def eval_poly(self, poly: int, a: int) -> int:
        """The GF(2)[x] polynomial with coefficient bits `poly` at a (Horner)."""
        acc = 0
        for i in range(poly.bit_length() - 1, -1, -1):
            acc = self.mul(acc, a)
            if (poly >> i) & 1:
                acc ^= 1
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("zero has no inverse")
        log = self._log
        if log is not None:
            return self._exp[(self.q - 1 - log[a]) % (self.q - 1)]
        return _pinvmod(a, self.modulus)

    def trace(self, a: int) -> int:
        """Absolute trace Tr_t(a), always 0 or 1."""
        return (a & self.trace_mask(self.t)).bit_count() & 1

    def trace_mask(self, d: int) -> int:
        """Tr_d(a) = parity(a & mask) for a in GF(2^d), d | t; built once per d.

        Bit j is bit 0 of sum_{i<d} (x^j)^(2^i): inside GF(2^d) that sum is 0
        or 1; nothing here checks that a lies in GF(2^d).
        """
        mask = self._trace_masks.get(d)
        if mask is None:
            if self.t % d != 0:
                raise FieldError(
                    f"degree {d} is not a subfield of GF(2^{self.t})")
            mask = 0
            for j in range(self.t):
                acc = 0
                v = 1 << j
                for _ in range(d):
                    acc ^= v
                    v = self.sqr(v)
                mask |= (acc & 1) << j
            self._trace_masks[d] = mask
        return mask

    def trace_bytes(self) -> bytes:
        """Tr(a) for every packed a, one byte each.

        Tr is GF(2)-linear, so its table over the low k+1 bits is its table
        over the low k bits followed by the same bytes, flipped where bit k
        of ``trace_mask(t)`` is set: t doublings in all.
        """
        mask = self.trace_mask(self.t)
        tr = b"\0"
        for k in range(self.t):
            tr += tr.translate(_FLIP) if mask >> k & 1 else tr
        return tr

    def order(self, a: int) -> int:
        """Exact multiplicative order of a nonzero element."""
        if a == 0:
            raise FieldError("zero has no multiplicative order")
        return _order_from_factors(
            self.q - 1, self.fact_minus, lambda e: self.pow(a, e))

    def degree(self, a: int) -> int | None:
        """Least d | t with a^(2^d) = a (degree of the minimal polynomial):
        a is squared until it returns, d squarings in all.  None when it
        does not return within t squarings, which only a faulty kernel
        makes."""
        v = a
        for d in range(1, self.t + 1):
            v = self.sqr(v)
            if v == a:
                return d
        return None

    # -- log/exp tables -------------------------------------------------------

    def ensure_tables(self) -> None:
        """Build log/exp tables (doubled exp to skip the mod) if t allows.

        Both are ``array('i')``, 4 bytes an entry, walked into place with
        no list of the powers on the way."""
        if self._log is not None:
            return
        if self.t > TABLE_MAX_T:
            raise FieldError(f"log tables refused for t={self.t} > {TABLE_MAX_T}")
        n = self.q - 1
        exp = self._walk(self.gen, array("i", [1]) * (n + 1))
        if exp.pop() != 1:
            raise FieldError("generator order mismatch")
        log = array("i", [0]) * self.q
        deque(map(log.__setitem__, exp, range(n)), maxlen=0)
        exp *= 2
        self._exp = exp
        self._log = log

    def mul_tables(self, c: int) -> tuple[list[int], list[int], int]:
        """Split tables (lo, hi, h) of v -> v*c: v*c == lo[v & mask] ^ hi[v >> h].

        v -> v*c is GF(2)-linear, so it is the XOR of the images of v's low h
        bits and of its high t-h bits; mask = len(lo) - 1, and each table
        has at most 2^ceil(t/2) entries.  Works without log/exp tables.
        """
        h = (self.t + 1) // 2
        cols = []                         # x^i * c, i = 0..t-1
        v = _pmod(c, self.modulus)
        for _ in range(self.t):
            cols.append(v)
            v <<= 1
            if v >> self.t:
                v ^= self.modulus
        return span_table(cols[:h]), span_table(cols[h:]), h

    def step_tables(self, c: int) -> tuple[list[int], list[int], int]:
        """``mul_tables(c)``, refused with FieldError unless their image of 1
        is c: a walk by them starts at c^1 or not at all."""
        lo, hi, h = self.mul_tables(c)
        one = lo[1] ^ hi[0]
        if one != c:
            raise FieldError(f"split tables of {c:#x} send 1 to {one:#x}")
        return lo, hi, h

    def powers(self, c: int, k: int) -> list[int]:
        """[c^0, ..., c^k], each from the one before by the split tables of
        v -> v*c (``step_tables``); a caller expecting c^k = 1 checks it."""
        return self._walk(c, [1] * (k + 1))

    def _walk(self, c: int, out):
        """``out`` (a list or an array that holds 1 at 0) with c^i written
        at each index i >= 1, as ``powers`` describes."""
        lo, hi, h = self.step_tables(c)
        mask = len(lo) - 1
        v = 1
        for i in range(1, len(out)):
            v = lo[v & mask] ^ hi[v >> h]
            out[i] = v
        return out

    def dickson_values(self, x: int, m: int) -> array:
        """[D_0(x), ..., D_m(x)] by the Dickson recurrence D_0 = 0, D_1 = x,
        D_(k+1) = x*D_k + D_(k-1), stepping by ``step_tables(x)``; an
        ``array('i')``, 4 bytes a value, or ``array('Q')`` for t > 31."""
        lo, hi, h = self.step_tables(x)
        mask = len(lo) - 1
        out = array("i" if self.t < 32 else "Q", [0]) * (m + 1)
        d0, d1 = 0, x
        for k in range(1, m + 1):
            out[k] = d1
            d0, d1 = d1, lo[d1 & mask] ^ hi[d1 >> h] ^ d0
        return out

    def subgroup(self, k: int) -> list[int]:
        """[h^0, ..., h^k], h = gen^((q-1)/k): the elements of order dividing
        k, then h^k, which is 1 unless the kernel is at fault (the caller
        checks it).  A k that does not divide q-1 raises FieldError."""
        if k < 1 or (self.q - 1) % k:
            raise FieldError(f"{k} does not divide 2^{self.t}-1")
        return self.powers(self.pow(self.gen, (self.q - 1) // k), k)

    def tables(self) -> tuple[array, array]:
        """The (exp, log) tables, ``array('i')`` each, built on first use.

        exp is doubled (exp[i + q-1] = exp[i]), so exp[log[a] + log[b]] needs
        no reduction.  Refused with FieldError beyond TABLE_MAX_T.
        """
        self.ensure_tables()
        return self._exp, self._log

    def exp_of(self, i: int) -> int:
        """gen^i as a packed int."""
        if self._log is not None:
            return self._exp[i % (self.q - 1)]
        return self.pow(self.gen, i % (self.q - 1))

    def dlog(self, a: int) -> int:
        """Discrete log of nonzero a w.r.t. the generator (table-backed)."""
        if a == 0:
            raise FieldError("zero has no discrete log")
        self.ensure_tables()
        return self._log[a]

    def __repr__(self) -> str:
        return f"FieldSpec(t={self.t}, modulus={self.modulus:#x})"


def make_field(t: int, modulus: int | None = None) -> FieldSpec:
    """Construct GF(2^t) for any t >= 1; the degree has no cap here.

    Without an explicit modulus: the Conway polynomial for t <= 16 (its
    residue class of x is primitive by construction and becomes the
    generator), else the numerically least irreducible polynomial of degree
    t with a generator found by search.
    """
    if t < 1:
        raise FieldError(f"t={t} must be positive")
    if modulus is not None:
        return FieldSpec(t, modulus)
    conway = CONWAY_POLY.get(t)
    if conway is not None:
        return FieldSpec(t, conway, generator=_pmod(2, conway))
    return FieldSpec(t, _least_irreducible(t))


# ---------------------------------------------------------------------------
# Explicit subfield embeddings (never implicit coercions)

def subfield_embedding(sub: FieldSpec, ambient: FieldSpec) -> list[int]:
    """`sub`'s polynomial basis in `ambient`: [rho^0, ..., rho^(d-1)].

    Finds the least power ghat^k of the canonical order-(2^d-1) generator
    ghat of the ambient subfield that is a root of `sub`'s modulus (with
    compatible Conway moduli that is ghat itself) and evaluates coordinates
    there.  The roots are the conjugates ghat^(k*2^i mod 2^d-1) of the least
    one and share the order o of x modulo the modulus, so the walk of ghat^k
    by ghat's split tables evaluates the modulus only where k is the least
    element of its cyclotomic coset and gcd(k, 2^d-1) = (2^d-1)/o.  GF(2)
    needs no root: its one basis power is 1, whatever the modulus (the root
    of x is 0, which no unit power reaches).

    A modulus without a root among the walked powers, or a basis that sends
    `sub`'s generator to an element of another order, is a faulty kernel;
    both raise FieldError naming the witness.
    """
    d = sub.t
    if ambient.t % d != 0:
        raise FieldError(f"GF(2^{d}) does not embed in GF(2^{ambient.t})")
    sub_units = (1 << d) - 1
    rho_pow, image = [1] * d, sub.gen
    if d > 1:
        ghat = ambient.pow(ambient.gen, (ambient.q - 1) // sub_units)
        cofactor = sub_units // sub.order(2)
        lo, hi, h = ambient.mul_tables(ghat)
        mask = len(lo) - 1
        cand = ghat
        for k in range(1, sub_units + 1):
            if (math.gcd(k, sub_units) == cofactor and _coset_leader(k, d)
                    and ambient.eval_poly(sub.modulus, cand) == 0):
                break
            cand = lo[cand & mask] ^ hi[cand >> h]
        else:
            raise FieldError(
                f"modulus {sub.modulus:#x} of GF(2^{d}) has no root among "
                f"the powers of {ghat:#x} in GF(2^{ambient.t})")
        for j in range(1, d):
            rho_pow[j] = ambient.mul(rho_pow[j - 1], cand)
        image = ambient.eval_poly(sub.gen, cand)    # cand is the root
    order = ambient.order(image) if image else 0
    if order != sub_units:
        raise FieldError(
            f"embedded generator {image:#x} of GF(2^{d}) has order {order} "
            f"in GF(2^{ambient.t}), not {sub_units}")
    return rho_pow


def preimage(sub: FieldSpec, ambient: FieldSpec, basis: list[int],
             a: int) -> int:
    """The x of `sub` that ``basis`` maps to a, by elimination over GF(2) on
    rows image << d | preimage bits, keyed by their leading bits; a is
    reduced as one more row.  FieldError for an a outside their span."""
    d, rows = sub.t, {}
    for v in [*(b << d | 1 << i for i, b in enumerate(basis)), a << d]:
        while v >> d and v.bit_length() in rows:
            v ^= rows[v.bit_length()]
        if v >> d:
            rows[v.bit_length()] = v
    if v >> d:
        raise FieldError(f"witness {a:#x} of GF(2^{ambient.t}) "
                         f"outside GF(2^{d})")
    return v


def doubling_orbits(k: int):
    """The orbits of j -> 2j mod an odd k on 1..k-1, each as [j, 2j, 4j, ...]
    from its least member, the leader, in leader order: one sieve over the
    exponents, where the next leader is the least one not yet seen."""
    seen = bytearray(k)
    j = seen.find(0, 1)                   # -1 at k = 1, which has no orbit
    while j != -1:
        orbit = []
        while not seen[j]:
            seen[j] = 1
            orbit.append(j)
            j = 2 * j % k
        yield orbit
        j = seen.find(0, orbit[0] + 1)


def _coset_leader(k: int, d: int) -> bool:
    """True iff k is the least of k*2^i mod 2^d-1, i.e. of its d-bit rotations."""
    full = (1 << d) - 1
    r = k
    for _ in range(d - 1):
        r = ((r << 1) | (r >> (d - 1))) & full
        if r < k:
            return False
    return True


# ---------------------------------------------------------------------------
# Text record serialization: `t=<int> modulus=<hex> generator=<hex>`

def field_to_record(spec: FieldSpec) -> str:
    return f"t={spec.t} modulus={spec.modulus:x} generator={spec.gen:x}"
