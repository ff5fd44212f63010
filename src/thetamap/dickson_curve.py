"""Dickson polynomials with parameter 1 over GF(2^n), their root sets, and
the Kloosterman / Koblitz-curve counts they are tied to.

D_m is defined by D_0 = 0, D_1 = x, D_k = x*D_(k-1) + D_(k-2) (the signs of
the classical recurrence vanish in characteristic 2) and satisfies
D_m(y + 1/y) = y^m + y^(-m).  For m = q+1 the roots of D_m in GF(q)* are
exactly the in-degree-0 vertices of the map graph over GF(q); splitting
them by whether the inverse is also a root gives the sets

    S_m = { a in GF(q)* : D_m(a) = D_m(1/a) = 0 }
    T_m = { a in GF(q)* : D_m(a) = 0, D_m(1/a) != 0 }

whose sizes the Kloosterman sum K = sum_x (-1)^Tr(x + 1/x) predicts via
|S_(q+1)| = (q + 1 + K) / 4.  The same trace condition Tr(x) = Tr(1/x)
characterizes the x-coordinates of the rational points of the curve
y^2 + xy = x^3 + 1, so its point count cross-validates everything.
By the identity the roots are also the values y + 1/y, y != 1, on the
order-(q+1) subgroup of GF(q^2)*: the root-image check
(``_theta_image_of_small_subgroup``) reads them as D_k(h + 1/h), h of order
q+1, by ``theta_graph.norm_one_dickson``, and walks no subgroup.

Every evaluation takes and returns packed ints.  ``_dickson_ladder`` is the
one doubling ladder, on the field's own products; ``_root_bits`` runs it at
one x per orbit of squaring, and ``FieldSpec.dickson_values`` gives
D_0..D_m by the recurrence.  The tests hold all three against the plain
recurrence (``tests/field_oracle.py``), and ``dickson_coeff_bits`` is the
binomial closed form for ``FieldSpec.eval_poly``.

The additive character here is the canonical one, x -> (-1)^Tr(x); the
count cross-check validates that normalization at every field size.
"""

from __future__ import annotations

import random
from math import comb
from typing import NamedTuple

from thetamap.gf2_arith import (
    FieldError,
    FieldSpec,
    doubling_orbits,
    field_to_record,
    make_field,
)
from thetamap.report import CheckReport
from thetamap.theta_graph import (
    ThetaGraph,
    UnitWalk,
    _bits,
    norm_one_dickson,
    unit_walk,
)

__all__ = [
    "RootSetReport",
    "dickson_coeff_bits",
    "kloosterman",
    "curve_point_count",
    "curve_point_count_naive",
    "leaf_set_equalities",
    "root_set_report",
]


def _dickson_ladder(spec: FieldSpec, m: int, x: int) -> int:
    """D_m(x) by the doubling ladder, on packed ints.

    Carries (D_k, D_(k+1)) over the bits of m below the leading one, with
    D_(2k) = D_k^2 and D_(2k+1) = D_k*D_(k+1) + x: about 2*log2(m) products
    by ``spec.mul`` and ``spec.sqr`` instead of the m of the plain recurrence.
    """
    if m < 1:
        raise FieldError(f"Dickson degree m={m} must be positive")
    a, b = x, spec.sqr(x)                 # (D_1, D_2)
    for bit in bin(m)[3:]:
        odd = spec.mul(a, b) ^ x
        if bit == "1":
            a, b = odd, spec.sqr(b)
        else:
            a, b = spec.sqr(a), odd
    return a


def dickson_coeff_bits(m: int) -> int:
    """Coefficient parity vector of D_m from the closed form.

    Bit j is the mod-2 coefficient of x^j in
    sum_i m/(m-i) * C(m-i, i) * (-1)^i * x^(m-2i).  A coefficient that is
    not an integer raises FieldError naming m.
    """
    bits = 0
    for i in range(m // 2 + 1):
        num = m * comb(m - i, i)
        if num % (m - i):
            raise FieldError(f"m={m}: the binomial coefficient of "
                             f"x^{m - 2 * i} is not an integer")
        if (num // (m - i)) & 1:
            bits |= 1 << (m - 2 * i)
    return bits


def _root_bits(spec: FieldSpec, m: int) -> set[int]:
    """All units where D_m vanishes, by `_dickson_ladder` at 1 and at one
    x per orbit of squaring.  D_m has coefficients in GF(2), so
    D_m(x^2) = D_m(x)^2 and a root brings its orbit: the gen^j for j in one
    orbit of j -> 2j mod q-1 (``doubling_orbits``).  The orbits are read in
    logs, so fields beyond TABLE_MAX_T are refused with FieldError.
    """
    exp, _ = spec.tables()
    roots = {1} if _dickson_ladder(spec, m, 1) == 0 else set()
    for orbit in doubling_orbits(spec.q - 1):
        if _dickson_ladder(spec, m, exp[orbit[0]]) == 0:
            roots.update(exp[j] for j in orbit)
    return roots


def _split_roots(spec: FieldSpec, roots: set[int]) -> tuple[set[int], set[int]]:
    s = {x for x in roots if spec.inv(x) in roots}
    return s, roots - s


def _theta_image_of_small_subgroup(spec: FieldSpec, ambient: FieldSpec,
                                   m: int) -> tuple[set[int], str | None]:
    """{ y + 1/y : y in GF(q^2)*, |y| divides m, y != 1 } = {D_k(b) :
    k = 1..m-1}, read in GF(q) by ``theta_graph.norm_one_dickson`` from
    ``ambient`` = GF(2^(2n)), with its first fault's witness, or None.
    ``perfbench/tracer.py`` times this step by name."""
    values, _, fault = norm_one_dickson(spec, ambient, m)
    return set(values[1:m]), None if fault is None else fault[1]


def _trace_flips(spec: FieldSpec, walk: UnitWalk | None) -> int:
    """#{x : Tr(x + 1/x) = Tr(x) ^ Tr(1/x) = 1}, from the trace tables of
    ``walk``, a ``unit_walk`` of spec (walked here when None)."""
    if walk is None:
        walk = unit_walk(spec)
    return (_bits(walk.tr) ^ _bits(walk.tr_inv)).bit_count()


def kloosterman(spec: FieldSpec, walk: UnitWalk | None = None) -> int:
    """K = sum over units of (-1)^Tr(x + 1/x), an exact signed integer."""
    return (spec.q - 1) - 2 * _trace_flips(spec, walk)


def curve_point_count(spec: FieldSpec, walk: UnitWalk | None = None) -> int:
    """|E(GF(q))| for y^2 + xy = x^3 + 1 via the x-coordinate criterion.

    Two points per unit x with Tr(x) = Tr(1/x), one point (0, 1), one point
    at infinity.
    """
    return 2 * (spec.q - 1 - _trace_flips(spec, walk)) + 2


def curve_point_count_naive(spec: FieldSpec) -> int:
    """Brute-force oracle: try every (x, y) pair, plus the point at infinity."""
    squares = [spec.mul(y, y) for y in range(spec.q)]
    count = 1
    for x in range(spec.q):
        x3_1 = spec.mul(spec.mul(x, x), x) ^ 1
        for y, y2 in enumerate(squares):
            if y2 ^ spec.mul(x, y) == x3_1:
                count += 1
    return count


def leaf_set_equalities(g: ThetaGraph) -> CheckReport:
    """S_(q+1) versus the A-class leaves and T_(q+1) versus the B-class ones,
    over the field of ``g``."""
    spec = g.field
    n = spec.t
    rep = CheckReport(f"leaf sets versus Dickson root sets (n={n})")
    roots = _root_bits(spec, spec.q + 1)
    s, t = _split_roots(spec, roots)
    a_leaves: set[int] = set()
    b_leaves: set[int] = set()
    for v in g.leaf_indices():
        cls = g.components[g.comp_id[v]].trace_class
        (a_leaves if cls == "A" else b_leaves).add(v)
    rep.add("s-equals-a-leaves", s == a_leaves,
            f"|S|={len(s)} |A-leaves|={len(a_leaves)}")
    rep.add("t-equals-b-leaves", t == b_leaves,
            f"|T|={len(t)} |B-leaves|={len(b_leaves)}")
    if n > 2:
        rep.add("t-nonempty", bool(t), f"|T|={len(t)}")
    else:
        rep.add("t-empty-small-field", not t, f"|T|={len(t)}")
    return rep


# ---------------------------------------------------------------------------
# The whole verification battery over one field

IDENTITY_EXHAUSTIVE_MAX_Q = 16
IDENTITY_RANDOM_TRIALS = 40


class RootSetReport(NamedTuple):
    """Everything about D_(q+1) over one field, with the checks that tie it."""

    q: int
    m: int
    S: frozenset[int]
    T: frozenset[int]
    K: int
    N_pred: int
    E_count: int
    checks: CheckReport

    def to_dict(self) -> dict:
        return {
            "n": self.q.bit_length() - 1, "q": self.q, "m": self.m,
            "K": self.K, "N_pred": self.N_pred,
            "S_size": len(self.S), "T_size": len(self.T),
            "E_count": self.E_count,
        }


def root_set_report(spec: FieldSpec, seed: int = 0) -> RootSetReport:
    """The D_(q+1) battery over one field; a violated identity is a failed check.

    Randomized spot checks (the functional identity in large fields, the
    closed-form comparison) draw from a generator seeded with `seed`, so
    identical inputs reproduce byte-identical reports.
    """
    q = spec.q
    n = spec.t
    m = q + 1
    rng = random.Random(seed)
    rep = CheckReport(f"Dickson root sets and counts over GF(2^{n})")

    roots = _root_bits(spec, m)
    s, t = _split_roots(spec, roots)
    walk = unit_walk(spec)              # its trace tables serve K and |E|
    k = kloosterman(spec, walk)
    rep.add("weil-bound", k * k <= 4 * q, f"K={k}")      # |K| <= 2 sqrt(q)
    rep.add("count-divisibility", (q + 1 + k) % 4 == 0, f"q+1+K={q + 1 + k}")
    n_pred = (q + 1 + k) // 4
    rep.add("kloosterman-count", n_pred == len(s),
            f"(q+1+K)/4={n_pred} |S|={len(s)}")
    rep.add("s-inverse-closed", all(spec.inv(x) in s for x in s))
    rep.add("s-t-disjoint", not (s & t))
    rep.add("t-inverse-outside", all(spec.inv(x) not in t for x in t))
    bad_t = [x for x in t
             if (spec.trace(x), spec.trace(spec.inv(x))) != (0, 1)]
    rep.add("t-trace-pattern", not bad_t,
            "" if not bad_t else f"witness bits {bad_t[0]:#x}")
    rep.add("t-emptiness", (len(t) == 0) == (q <= 4),
            f"q={q} |T|={len(t)}")

    double = make_field(2 * n)          # GF(q^2), shared by the next two stages
    image, witness = _theta_image_of_small_subgroup(spec, double, m)
    detail = f"|roots|={len(roots)} |image|={len(image)}"
    if witness is not None:
        detail += f" {witness}"
    elif image != roots:
        detail += f" witness bits {min(image ^ roots):#x}"
    rep.add("root-image-equality", witness is None and image == roots, detail)

    e_count = curve_point_count(spec, walk)
    # | |E| - (q+1) | <= 2 sqrt(q), exactly in integers
    rep.add("hasse-bound", (e_count - (q + 1)) ** 2 <= 4 * q,
            f"|E|={e_count}")
    if q <= 256:
        naive = curve_point_count_naive(spec)
        rep.add("curve-count-oracle", e_count == naive,
                f"criterion {e_count} vs enumeration {naive}")

    rep.add("identity-on-double-field", _identity_check(spec, double, rng),
            "D_m(y+1/y) = y^m + y^(-m) over GF(q^2)*")
    rep.add("closed-form-equivalence", *_closed_form_check(spec, rng))
    return RootSetReport(q, m, frozenset(s), frozenset(t), k, n_pred,
                         e_count, rep)


def dickson_report(spec: FieldSpec, seed: int = 0) -> dict:
    """`root_set_report` as a JSON-ready dict with the field and its checks."""
    rep = root_set_report(spec, seed)
    doc = rep.to_dict()
    doc["field"] = field_to_record(spec)
    doc["checks"] = rep.checks.records()
    doc["passed"] = rep.checks.passed
    return doc


def _identity_check(spec: FieldSpec, double: FieldSpec, rng) -> bool:
    """D_m(y + 1/y) = y^m + y^(-m) over GF(q^2)* = ``double``.

    Exhaustive in y and in m = 1..q+1 for q <= 16, seeded random pairs
    beyond.  In the exhaustive case one linear recurrence per y
    (``FieldSpec.dickson_values``) gives the left side for every m, and
    y^m, y^(-m) come from the log tables of GF(q^2), at most GF(2^8).  A
    random pair evaluates the left side by the doubling ladder
    (`_dickson_ladder`) and the right side as z + 1/z with z = y^m:
    O(log m) products each.
    """
    q = spec.q
    if q <= IDENTITY_EXHAUSTIVE_MAX_Q:
        exp, log = double.tables()
        units = double.q - 1
        for y in range(1, double.q):
            yi = double.inv(y)
            ly, lyi = log[y], log[yi]
            for k, lhs in enumerate(double.dickson_values(y ^ yi, q + 1)):
                if lhs != exp[k * ly % units] ^ exp[k * lyi % units]:
                    return False
        return True
    pairs = [(rng.randrange(1, q + 2), rng.randrange(1, double.q))
             for _ in range(IDENTITY_RANDOM_TRIALS)]
    for m, y in pairs:
        ym = double.pow(y, m)
        if _dickson_ladder(double, m, y ^ double.inv(y)) != ym ^ double.inv(ym):
            return False
    return True


def _closed_form_check(spec: FieldSpec, rng) -> tuple[bool, str]:
    """The recurrence against the binomial form of D_1..D_10, as a verdict
    and its detail; each coefficient vector is computed once."""
    xs = (range(spec.q) if spec.q <= 256
          else [rng.randrange(spec.q) for _ in range(64)])
    try:
        coeffs = [dickson_coeff_bits(m) for m in range(1, 11)]
    except FieldError as exc:
        return False, str(exc)
    for x in xs:
        for m, lhs in enumerate(spec.dickson_values(x, 10)[1:], 1):
            if lhs != spec.eval_poly(coeffs[m - 1], x):
                return False, f"m={m}: the forms differ at {x:#x}"
    return True, "recurrence matches the binomial form for m <= 10"
