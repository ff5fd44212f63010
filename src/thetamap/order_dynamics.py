"""Order and trace dynamics of the subgroup of order q^2+1 inside GF(q^4)*.

Fix n = 2^l * m with m odd and q = 2^n.  `TowerSpec` owns the three fields
GF(2^n), GF(2^(2n)) and GF(2^(4n)), built once; every stage reads them from
it.

For a seed g in the order-(q^2+1) subgroup (g != 1) the l+5 iterates
g, f(g), f^2(g), ..., f^(l+4)(g) of the map f: x -> x + 1/x are profiled:
multiplicative order, its gcd-split against q+1 and q-1, and the absolute
trace of the iterate and its inverse taken in the smallest of the three
subfield levels containing it.  The seed is then classified:

  class 1:  |f(g)| divides q+1  (iterates from index 2 on fall into GF(q)*)
  class 2:  not class 1 and |f^(l+2)(g)| divides q+1
  class 3:  otherwise          (every iterate order has nontrivial parts
                                dividing both q+1 and q-1)

The three classes partition the subgroup minus 1, and each forces a rigid
level/order/trace table that `case_table` checks row by row.

The reduction to GF(q^2).  Since 1/g = g^(q^2), f(g) = g + g^(q^2) is the
relative trace of g into GF(q^2).  For the seeds h^j, h = gen^(q^2-1),
f(h^j) = D_j(b), b = f(h), with the Dickson recurrence D_(j+1) =
b*D_j + D_(j-1) (Lidl, Mullen and Turnwald, *Dickson Polynomials*, 1993):
``seed_walk`` pulls b back from the ambient GF(2^(4n)) once, by the helper
of the Dickson battery too (``theta_graph.norm_one_dickson``), and gives
every first iterate in GF(q^2), where every later iterate is profiled from
the log tables.  The seed's own row has a closed form: point j, order
(q^2+1)/gcd(j, q^2+1), trivial gcd-split, subfield 4n (a seed inside
GF(q^2) would have order dividing q^2-1 and q^2+1, so it would be 1), and
Tr_4n(g) = Tr_4n(1/g) = Tr_2n(f(g)).

Frobenius orbits.  Squaring is an automorphism and f(x^2) = f(x)^2, so it
keeps the order, the subfield and the traces of every iterate: the seeds
h^j and h^(2j) have the same numeric rows and the same class, and each
iterate of h^(2j) is the square of that of h^j, its log in GF(q^2)
doubled.  So one seed per orbit of j -> 2j mod q^2+1 is profiled, the
orbit's least member, its leader (``seed_orbits``, ``leader_profiles``).
As 2^(2n) = -1 mod q^2+1, each orbit also holds the mate q^2+1-j of each
member, and its size divides 4n.  Every member takes its leader's rows,
class and per-seed verdicts; its points and labels are the leader's with
their logs doubled.  So the json records are kept per orbit too
(``profile_records``): the leader's rows and label logs, and each seed's
orbit and shift; ``report.json_pieces`` renders one record per orbit and
fills in each member's exponent and labels.  The set checks read images
of sets through one graph over GF(q^2) instead (``set_checks``): a second
derivation of the iterates.  One wrong step of the recurrence, even at a
seed that is not a leader, carries on to D_(q^2+1)(b), which
``seed_walk`` checks.

Labels are those of the ambient field: a seed is labelled j*(q^2-1), an
iterate x of GF(q^2) by (q^2+1)*(k0 * log x mod q^2-1), where k0 inverts
log(emb^-1(gen^(q^2+1))) modulo q^2-1; both read no ambient log table.
Beyond TABLE_MAX_T the label is the hex of the ambient coordinates, as in
the graph exports, and the seeds are walked in the ambient for it.
`orders_report` builds the records only for json output.

Projective conventions (1/0 = 0, |0| = |inf| = 1, Tr = 0 on 0 and inf)
make the degenerate tails of class-1 profiles (... -> 1 -> 0 -> inf, which
occur whenever 3 | q+1 or 3 | q-1 lets an iterate reach 1) satisfy the same
tables uniformly; at indices 1..l+2 a special point fails its case table.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from enum import Enum
from functools import lru_cache
from itertools import compress, islice
from typing import NamedTuple

from thetamap.gf2_arith import (
    TABLE_MAX_T,
    FieldError,
    FieldSpec,
    doubling_orbits,
    field_to_record,
    make_field,
    subfield_embedding,
)
from thetamap.orbit_records import ProfileRecords
from thetamap.report import HOLE, CheckReport
from thetamap.theta_graph import (
    ThetaGraph,
    _preimage,
    build_graph,
    norm_one_dickson,
)

__all__ = [
    "TowerSpec",
    "SeedWalk",
    "HClass",
    "ProfileStep",
    "OrderProfile",
    "make_tower",
    "subgroup",
    "seed_walk",
    "seed_orbits",
    "profile_tail",
    "classify_H",
    "leader_profiles",
    "profile_records",
    "h_longform_flags",
    "trace_profile_check",
    "case_table",
    "case1_subcase",
    "verify_cq1_inclusion",
    "check_order_bound",
    "trace_quadrants",
    "verify_theta_permutation",
    "set_checks",
    "orders_report",
]


class HClass(Enum):
    H1 = 1
    H2 = 2
    H3 = 3


class TowerSpec(NamedTuple):
    """GF(2^n) inside GF(2^(2n)) inside the ambient GF(2^(4n))."""

    n: int
    l: int
    m: int
    q: int
    base: FieldSpec
    double: FieldSpec
    ambient: FieldSpec


def make_tower(n: int) -> TowerSpec:
    """The tower GF(2^n) < GF(2^(2n)) < GF(2^(4n)) for any n >= 1; which n
    a command admits is decided by the command line."""
    if n < 1:
        raise FieldError(f"tower degree n={n} must be positive")
    l, m = 0, n
    while m % 2 == 0:
        l += 1
        m //= 2
    q = 1 << n
    return TowerSpec(n, l, m, q, make_field(n), make_field(2 * n),
                     make_field(4 * n))


def subgroup(tower: TowerSpec, k: int) -> list[int]:
    """``FieldSpec.subgroup`` of the ambient: [h^0, ..., h^k], h = gen^(N/k),
    N = 2^(4n) - 1.  The walk of the hex labels, called by this name so
    that ``perfbench/tracer.py`` counts its calls and elements."""
    return tower.ambient.subgroup(k)


class SeedWalk(NamedTuple):
    """``values[j]`` = f(h^j) in GF(q^2) for the seeds h^j, h = gen^(q^2-1),
    j = 0..q^2+1; ``emb`` embeds GF(q^2) in the ambient; ``fault`` is None
    or the (check name, witness) that leaves no profile to trust."""

    tower: TowerSpec
    values: array
    emb: list[int]
    fault: tuple[str, str] | None


def seed_walk(tower: TowerSpec) -> SeedWalk:
    """Every seed's first iterate D_j(b), b = f(h), with the order test of
    h: ``theta_graph.norm_one_dickson`` of GF(q^2) in the ambient."""
    double = tower.double
    return SeedWalk(tower, *norm_one_dickson(double, tower.ambient,
                                             double.q + 1))


def seed_orbits(tower: TowerSpec) -> list[list[int]]:
    """The orbits of j -> 2j mod q^2+1 on the seed exponents 1..q^2, each
    from its least member, the leader (``gf2_arith.doubling_orbits``).  The
    leaders are the cyclotomic-coset leaders of 2 modulo q^2+1: j is one iff
    j*(q^2-1) is one modulo 2^(4n)-1 (``gf2_arith._coset_leader``).
    """
    return list(doubling_orbits(tower.q ** 2 + 1))


# ---------------------------------------------------------------------------
# Seed profiles

class ProfileStep(NamedTuple):
    index: int
    point: int           # the seed's exponent j at index 0; after it an
                         # index of GF(q^2), where q^2 is inf
    order: int
    d_part: int          # gcd(order, q+1)
    e_part: int          # gcd(order, q-1)
    subfield: int        # minimal containing degree among n, 2n, 4n
    tr: int
    tr_inv: int


class OrderProfile(NamedTuple):
    tower: TowerSpec
    exponent: int        # the seed is h^exponent
    steps: list[ProfileStep]
    h_class: HClass


def profile_tail(walk: SeedWalk, j: int) -> list[ProfileStep]:
    """The iterates at indices 1..l+4 of seed h^j, profiled in GF(q^2).

    f(h^j) is read from the seed walk's values; from there each step
    reads GF(q^2)'s log table.  Iterates at indices 1..l+2 are provably
    units; a 0 or infinity there is recorded like a later one, and
    `case_table` flags it.
    """
    tower = walk.tower
    double = tower.double
    q, l, n = tower.q, tower.l, tower.n
    _, log = double.tables()
    n2 = double.q - 1
    x = walk.values[j]
    steps: list[ProfileStep] = []
    for i in range(1, l + 5):
        if x == 0 or x == double.q:        # projective special points
            steps.append(ProfileStep(i, x, 1, 1, 1, n, 0, 0))
            x = double.q                   # 0 and inf both map to inf
        else:
            inv = double.inv(x)
            lx = log[x]
            o = n2 // math.gcd(lx, n2)
            sub = n if lx % (q + 1) == 0 else 2 * n   # GF(q)* = <gen^(q+1)>
            mask = double.trace_mask(sub)             # 1/x lies in x's subfield
            steps.append(ProfileStep(
                i, x, o, math.gcd(o, q + 1), math.gcd(o, q - 1), sub,
                (x & mask).bit_count() & 1, (inv & mask).bit_count() & 1))
            x ^= inv                       # x + 1/x, from the same inverse
    return steps


def classify_H(walk: SeedWalk, j: int, tail: list[ProfileStep]) -> OrderProfile:
    """The profile of seed h^j from its tail (`profile_tail`), and its class.

    The seed's own row is the closed form of the module docstring.
    """
    tower = walk.tower
    q, l, n = tower.q, tower.l, tower.n
    big = q * q + 1
    if not 0 < j < big:
        raise FieldError(f"seed exponent {j} outside [1, {big - 1}]")
    tr = tower.double.trace(tail[0].point)     # Tr_2n(f(g))
    steps = [ProfileStep(0, j, big // math.gcd(j, big), 1, 1, 4 * n, tr, tr),
             *tail]

    if (q + 1) % steps[1].order == 0:
        h = HClass.H1
    elif (q + 1) % steps[l + 2].order == 0:
        h = HClass.H2
    else:
        h = HClass.H3
    return OrderProfile(tower, j, steps, h)


def leader_profiles(walk: SeedWalk,
                    orbits: list[list[int]]) -> list[OrderProfile]:
    """The profile of each orbit's leader, in the order of ``orbits``."""
    return [classify_H(walk, orbit[0], profile_tail(walk, orbit[0]))
            for orbit in orbits]


def profile_records(walk: SeedWalk, orbits: list[list[int]],
                    profiles: list[OrderProfile]
                    ) -> tuple[ProfileRecords | list, tuple[str, str] | None]:
    """The json record of every seed, in exponent order, and the fault of
    its labels' reads (the hex labels' ambient walk, or k0's preimage); on
    a fault, no records.

    The member j = leader * 2^k of an orbit takes its leader's class, case
    and numeric rows.  Its seed is h^j, and each later point is the
    leader's raised to 2^k: a unit's log in GF(q^2), and so its label,
    is the leader's times 2^k modulo q^2-1.  So the records hold one
    leader's data per orbit (``ProfileRecords``).
    """
    tower, emb = walk.tower, walk.emb
    double = tower.double
    exp, log = double.tables()
    n2 = double.q - 1
    big = n2 + 2
    hexed = None
    if tower.ambient.t > TABLE_MAX_T:
        powers = subgroup(tower, big)
        if powers[big] != 1:
            return [], ("subgroup-closure", f"h^{big} = {powers[big]:#x}, not 1")
        hexed, k0 = (powers, emb, exp), 1     # hex labels read logs as they are
    else:
        # gen^(q^2+1) generates the ambient's copy of GF(q^2)*
        a = tower.ambient.pow(tower.ambient.gen, big)
        try:
            k0 = pow(log[_preimage(double, tower.ambient, emb, a)], -1, n2)
        except ValueError as exc:       # FieldError, or no unit mod q^2-1
            return [], ("first-iterate-pullback", f"gen^{big}: {exc}")
    special = {0: "'0'", double.q: "inf"}
    rows, logs = [], []
    orbit_of, shift = array("I", [0]) * (big - 1), bytearray(big - 1)
    for o, (orbit, prof) in enumerate(zip(orbits, profiles)):
        rows.append([(s.index, special.get(s.point, HOLE) if s.index else HOLE,
                      s.order, s.d_part, s.e_part, s.subfield, s.tr, s.tr_inv)
                     for s in prof.steps])
        # the logs the labels of the tail's units are made from
        logs.append([k0 * log[s.point] % n2 for s in prof.steps[1:]
                     if s.point not in special])
        for k, j in enumerate(orbit):
            orbit_of[j - 1], shift[j - 1] = o, k
    heads = [(prof.h_class.name, prof.h_class.value) for prof in profiles]
    return ProfileRecords(n2, heads, rows, logs, orbit_of, shift, hexed), None


def h_longform_flags(profile: OrderProfile) -> tuple[bool, bool, bool]:
    """Evaluate the three full class characterizations independently.

    Exactly one flag should hold for every seed; the partition check
    asserts that and cross-checks it against the assigned class.
    """
    t = profile.tower
    q, l = t.q, t.l
    steps = profile.steps
    last = l + 4

    def div_qp(i):
        return (q + 1) % steps[i].order == 0

    def div_qm(i):
        return (q - 1) % steps[i].order == 0

    def mixed(i):
        s = steps[i]
        return (s.order == s.d_part * s.e_part
                and s.d_part > 1 and s.e_part > 1)

    f1 = div_qp(1) and all(div_qm(i) for i in range(2, last + 1))
    f2 = (all(mixed(i) for i in range(1, l + 2))
          and div_qp(l + 2)
          and all(div_qm(i) for i in range(l + 3, last + 1)))
    f3 = all(mixed(i) for i in range(1, last + 1))
    return f1, f2, f3


# ---------------------------------------------------------------------------
# Forced trace rows and the three case tables

def trace_profile_check(profile: OrderProfile) -> bool:
    """Whether the profile has its class's forced trace rows.

    Class 1: the peak, index 2, lies in GF(q) with Tr_n pair (1, 1), and
    the tail, indices 3..l+4, has every trace pair (0, 0).  Class 2: index
    l+3 lies in GF(q) with pair (0, 1), and index l+4 with pair (1, 0).
    Class 3 forces no rows beyond its case table.
    """
    n, l = profile.tower.n, profile.tower.l
    steps = profile.steps
    if profile.h_class is HClass.H1:
        return ((steps[2].subfield, steps[2].tr, steps[2].tr_inv) == (n, 1, 1)
                and all(s.tr == 0 and s.tr_inv == 0 for s in steps[3:]))
    if profile.h_class is HClass.H2:
        s3, s4 = steps[l + 3], steps[l + 4]
        return ((s3.subfield, s3.tr, s3.tr_inv) == (n, 0, 1)
                and (s4.subfield, s4.tr, s4.tr_inv) == (n, 1, 0))
    return True


@lru_cache
def _expected_rows(case_id: int, flavor: str, n: int,
                   l: int) -> tuple[tuple[int, str, int, tuple[int, int]], ...]:
    """(level, order tag, trace subfield, trace pair) for indices 0..l+4,
    built once per (case, flavor, n, l) and shared by every profile.

    Cases 1 and 2 descend a depth-(l+4) tree, one level per iterate.  So
    does Case 3 when the first iterate lands in the A class of the graph
    over GF(q^2).  When it lands in the B class instead, the first iterate
    is a leaf of a depth-1 tree: the seed sits at level 2, and from index 2
    on the iterates are periodic B vertices whose trace pair is (1, 0)
    (they have in-field preimages, so Tr(1/x) = 0, and the class forces
    Tr(x) = 1); the seed itself then has an in-field preimage on both
    coordinates, giving the (0, 0) top pair.
    """
    top = l + 4
    rows: list[tuple[int, str, int, tuple[int, int]]]
    if case_id == 1:
        rows = [(top, "q2+1", 4 * n, (1, 1)),
                (top - 1, "q+1", 2 * n, (1, 1)),
                (top - 2, "q-1", n, (1, 1))]
        rows += [(top - 3 - j, "q-1", n, (0, 0)) for j in range(l + 2)]
    elif case_id == 2:
        rows = [(top, "q2+1", 4 * n, (1, 1)),
                (top - 1, "mixed", 2 * n, (1, 1))]
        rows += [(top - 2 - j, "mixed", 2 * n, (0, 0)) for j in range(l)]
        rows += [(2, "q+1", 2 * n, (0, 0)),
                 (1, "q-1", n, (0, 1)),
                 (0, "q-1", n, (1, 0))]
    elif flavor == "A":
        rows = [(top, "q2+1", 4 * n, (1, 1)),
                (top - 1, "mixed", 2 * n, (1, 1))]
        rows += [(top - 2 - j, "mixed", 2 * n, (0, 0)) for j in range(l + 3)]
    else:
        rows = [(2, "q2+1", 4 * n, (0, 0)),
                (1, "mixed", 2 * n, (0, 1))]
        rows += [(0, "mixed", 2 * n, (1, 0)) for _ in range(l + 3)]
    return tuple(rows)


def _order_tag_holds(tag: str, order: int, q: int) -> bool:
    if tag == "q2+1":
        return (q * q + 1) % order == 0
    if tag == "q+1":
        return (q + 1) % order == 0
    if tag == "q-1":
        return (q - 1) % order == 0
    return ((q * q - 1) % order == 0
            and (q + 1) % order != 0 and (q - 1) % order != 0)


def case_table(profile: OrderProfile) -> bool:
    """Whether the profile matches its level/order/trace table row by row
    (``_expected_rows``).

    The case is the class `classify_H` assigned from the divisibility
    pattern (d_1 | q+1, d_{l+2} | q+1); Case 3 is further split by the
    middle-graph class of the first iterate: "B" when its traces differ.
    Levels refer to the graph over GF(q^4).
    """
    t = profile.tower
    n, l, q = t.n, t.l, t.q
    steps = profile.steps
    flavor = "B" if steps[1].tr != steps[1].tr_inv else "A"
    expected = _expected_rows(profile.h_class.value, flavor, n, l)
    # Special points carry order 1, subfield n and zero traces, which is
    # exactly what the degenerate class-1 tails must satisfy; at indices
    # 1..l+2 they are a mismatch even where a class-1 row fits them.  The
    # seed's point at index 0 is its exponent, never one of them.
    return all((not 0 < i <= l + 2 or 0 < s.point < t.double.q)
               and _order_tag_holds(tag, s.order, q)
               and s.subfield == sub_exp
               and (s.tr, s.tr_inv) == pair_exp
               for i, (s, (_, tag, sub_exp, pair_exp))
               in enumerate(zip(steps, expected)))


# ---------------------------------------------------------------------------
# Sub-cases of Case 1 (needs l >= 1, i.e. even n)

def case1_subcase(profile: OrderProfile) -> tuple[int, bool]:
    """The sub-case of a Case-1 profile, split by whether d_2 divides
    sqrt(q)+1, and whether it holds.

    Sub-case 1 (d_2 does not divide sqrt(q)+1): no order at indices
    2..l+1 divides sqrt(q)+1 or sqrt(q)-1.  Sub-case 2: every order at
    indices 3..l+4 divides sqrt(q)-1, and the shifted parameters
    q := sqrt(q), seed := g_1, l := l-1 satisfy Case 1: d_1 divides
    sqrt(q)^2+1 (d_2 divides sqrt(q)+1 by the split).
    """
    tower = profile.tower
    if profile.h_class is not HClass.H1:
        raise FieldError("sub-case split applies to Case-1 profiles only")
    if tower.l < 1:
        raise FieldError("sub-case split needs l >= 1")
    qt = 1 << (tower.n // 2)          # sqrt(q)
    orders = [s.order for s in profile.steps]
    if (qt + 1) % orders[2] != 0:
        return 1, not any((qt + 1) % o == 0 or (qt - 1) % o == 0
                          for o in orders[2:tower.l + 2])
    return 2, ((qt * qt + 1) % orders[1] == 0
               and all((qt - 1) % o == 0 for o in orders[3:]))


# ---------------------------------------------------------------------------
# Whole-subgroup set checks

def verify_cq1_inclusion(tower: TowerSpec, cq1: list[int], s1: set[int],
                         s_l2: set[int], g: ThetaGraph) -> CheckReport:
    """C_{q+1} inside theta(C_{q^2+1}) union theta^(l+2)(C_{q^2+1}).

    ``cq1`` walks C_{q+1} in GF(q^2) from h^0 = 1; ``s1`` and ``s_l2`` are
    the images S_1 and S_(l+2) (``set_checks``).  Also places every
    nontrivial element of C_{q+1} on level l+3 or 2 of ``g``, the graph over
    GF(q^2), and checks that every vertex sharing that level of the same
    component lies in C_{q+1}: for a unit, that its order divides q+1; 0
    and inf never do.  Each such (component, level) class is judged once,
    by its size: it lies in C_{q+1} iff it has as many vertices as members
    of C_{q+1}.
    """
    l = tower.l
    rep = CheckReport()

    missing = [b for b in cq1 if b not in s1 and b not in s_l2]
    rep.add("cq1-image-inclusion", not missing,
            "" if not missing
            else f"{len(missing)} elements uncovered, first bits {missing[0]:#x}")

    comp_id, level = g.comp_id, g.level
    levels = (l + 3, 2)
    bad_level = []
    placed = []
    for v in cq1[1:]:                  # the q nontrivial elements of C_{q+1}
        (placed if level[v] in levels else bad_level).append(v)
    members = Counter((comp_id[u], level[u]) for u in set(cq1)
                      if level[u] in levels)
    bad_classes = set()
    for k in levels:
        # the vertices of level k are picked by a mask of the level bytes,
        # or of the levels one at a time where a faulty kernel widened them
        on = (level.tobytes().translate(bytes(i == k for i in range(256)))
              if level.typecode == "B" else bytes(map(k.__eq__, level)))
        sizes = Counter(compress(comp_id, on))
        bad_classes.update(key for key, count in members.items()
                           if key[1] == k and sizes[key[0]] != count)
    bad_order = [v for v in placed if (comp_id[v], level[v]) in bad_classes]
    rep.add("cq1-levels", not bad_level,
            "" if not bad_level else f"bad level for bits {bad_level[0]:#x}")
    rep.add("cq1-level-orders", not bad_order,
            "" if not bad_order else f"level mate of {bad_order[0]:#x} "
                                     f"has order not dividing q+1")
    return rep


def check_order_bound(profile: OrderProfile) -> bool:
    """Whether the iterate orders of a class-2/3 seed stay >= p1*p2, where
    p1 and p2 are the least primes of q+1 and q-1: at indices 1..l+1, and
    in class 3 also at l+2..l+4.  Also that p1 >= 1+2^(l+1).  Vacuously
    true at q = 2, where q-1 = 1 has no least prime.
    """
    tower = profile.tower
    q, l = tower.q, tower.l
    if q == 2:
        return True
    if profile.h_class is HClass.H1:
        raise FieldError("bound applies when |f(seed)| does not divide q+-1")
    p1 = tower.base.fact_plus.least_prime()
    bound = p1 * tower.base.fact_minus.least_prime()
    last = l + 4 if profile.h_class is HClass.H3 else l + 1
    return (p1 >= 1 + (1 << (l + 1))
            and all(s.order >= bound for s in profile.steps[1:last + 1]))


def _seed_verdicts(prof: OrderProfile) -> dict[str, bool]:
    """Whether one profile passes each per-seed check, by check name."""
    flags = h_longform_flags(prof)
    case1 = prof.h_class is HClass.H1
    return {
        "h-partition": sum(flags) == 1 and flags[prof.h_class.value - 1],
        "case-tables": case_table(prof),
        "forced-traces": trace_profile_check(prof),
        "case1-subcases": (not case1 or prof.tower.l < 1
                           or case1_subcase(prof)[1]),
        "order-bound": case1 or check_order_bound(prof),
    }


def trace_quadrants(tower: TowerSpec, a_images: list[set[int]],
                    b_images: list[set[int]]) -> CheckReport:
    """Quadrants by trace pairs versus their image-set characterizations.

    The quadrants split the tower's GF(q)* by trace pair.  The image sets
    are points of GF(q^2) (``set_checks``): ``a_images`` = [f(A), f^2(A),
    ..., f^(l+3)(A)] for A = C_{q+1} & S_1, and ``b_images`` = [f(B),
    f^2(B)] for B = C_{q+1} & S_(l+2).  Their unit points must be A11, the
    union of the later images of A, B01 and B10: the trace-defined
    quadrants carried into GF(q^2) through the explicit subfield embedding.
    The records: ``quadrant-partition``, that the four quadrants A11, A00,
    B01 and B10 cover GF(q)*, then one ``<quadrant>-image`` per quadrant,
    whose detail gives |by-trace| and |by-image|.  A failing embedding
    fails each image check with its message.
    """
    spec_n = tower.base
    double = tower.double

    a11, a00, b01, b10 = set(), set(), set(), set()
    for x in range(1, spec_n.q):
        pair = (spec_n.trace(x), spec_n.trace(spec_n.inv(x)))
        {(1, 1): a11, (0, 0): a00, (0, 1): b01, (1, 0): b10}[pair].add(x)

    try:
        emb, fault = subfield_embedding(spec_n, double), None
    except FieldError as exc:
        fault = str(exc)

    def units(*images):
        return {x for img in images for x in img if 0 < x < double.q}

    rep = CheckReport()
    rep.add("quadrant-partition",
            len(a11) + len(a00) + len(b01) + len(b10) == spec_n.q - 1)
    for name, trace_set, img in (
            ("a11-image", a11, units(a_images[0])),
            ("a00-image", a00, units(*a_images[1:])),
            ("b01-image", b01, units(b_images[0])),
            ("b10-image", b10, units(b_images[1]))):
        if fault is not None:
            rep.add(name, False, fault)
        else:
            rep.add(name, {emb[x] for x in trace_set} == img,
                    f"|by-trace|={len(trace_set)} |by-image|={len(img)}")
    return rep


def verify_theta_permutation(tower: TowerSpec, landing: set[int],
                             image: set[int]) -> CheckReport:
    """The map permutes the (l+4)-th image of the order-(q^2+1) subgroup.

    ``landing`` is S_(l+4) and ``image`` is f(S_(l+4)) (``set_checks``).
    """
    rep = CheckReport()
    rep.add("landing-set-closed", image == landing,
            f"|set|={len(landing)} |image|={len(image)}")
    rep.add("injective-on-landing-set", len(image) == len(landing))
    return rep


def set_checks(walk: SeedWalk) -> CheckReport:
    """The three set checks on images of sets, as points of GF(q^2) (index
    q^2 is inf): S_1 = {f(h^j) : j = 1..q^2}, the seed walk's values, and
    S_(k+1) = f(S_k), A = C_{q+1} & S_1, B = C_{q+1} & S_(l+2) and their
    images read through ``succ`` of one graph over GF(q^2).  Each S_k is
    dropped once the next is built, S_1 and the graph's other arrays after
    the levels.  A walk of C_{q+1} that does not close is the one failure.
    """
    tower = walk.tower
    double = tower.double
    q, l = tower.q, tower.l
    rep = CheckReport()
    cq1 = double.subgroup(q + 1)           # C_{q+1} in GF(q^2), then h^(q+1)
    end = cq1.pop()
    if end != 1:
        rep.add("subgroup-closure", False,
                f"C_(q+1) walk: h^{q + 1} = {end:#x}, not 1")
        return rep
    g = build_graph(double)
    succ = g.succ

    def image(points):
        return set(map(succ.__getitem__, points))

    s1 = set(islice(walk.values, 1, q * q + 1))
    a = [image(s1.intersection(cq1))]
    while len(a) < l + 3:
        a.append(image(a[-1]))
    s = s1
    for _ in range(l + 1):
        s = image(s)                       # S_(l+2)
    rep.checks += verify_cq1_inclusion(tower, cq1, s1, s, g).checks
    del s1, g                              # succ stays, in image()
    b = image(s.intersection(cq1))
    rep.checks += trace_quadrants(tower, a, [b, image(b)]).checks
    for _ in range(2):
        s = image(s)                       # S_(l+4)
    rep.checks += verify_theta_permutation(tower, s, image(s)).checks
    return rep


# ---------------------------------------------------------------------------
# Aggregate JSON report

def orders_report(tower: TowerSpec, records: bool = True) -> dict:
    """Classification counts, every seed's profile record (only with
    ``records``: json output reads them, text output does not), and every
    check.

    The per-seed checks run once per orbit, on its leader, and a verdict
    counts for every member.  The set checks read no profile
    (``set_checks``); they run first, so that their sets are gone before
    the profiles are built.  If the seed walk or the labels carry a fault
    (the embedding of GF(q^2) fails, f(h) or gen^(q^2+1) misses the
    embedded GF(q^2), h does not have order q^2+1, the ambient walk of the
    hex labels does not close), no record can be trusted: the report
    carries that one failed check with its witness.
    """
    q, l, n = tower.q, tower.l, tower.n
    counts = {"H1": 0, "H2": 0, "H3": 0}
    checks = CheckReport()
    doc = {
        "n": n, "l": l, "m": tower.m, "q": q,
        "field": field_to_record(tower.ambient),
        "counts": counts,
    }
    walk = seed_walk(tower)
    if not records:
        walk = walk._replace(emb=[])       # only the records read it, for k0
    fault = walk.fault
    if fault is None:
        image_checks = set_checks(walk)
        orbits = seed_orbits(tower)
        profiles = leader_profiles(walk, orbits)
        if records:
            doc["profiles"], fault = profile_records(walk, orbits, profiles)
    if fault is not None:
        if records:
            doc["profiles"] = []
        checks.add(fault[0], False, fault[1])
        doc["checks"] = checks.records()
        return doc
    failing: dict[str, list[int]] = {}
    for orbit, prof in zip(orbits, profiles):
        counts[prof.h_class.name] += len(orbit)
        for name, ok in _seed_verdicts(prof).items():
            bad = failing.setdefault(name, [])
            if not ok:
                bad += orbit

    for name, bad in failing.items():
        bad.sort()
        checks.add(name, not bad,
                   "" if not bad else f"failing seed exponents {bad[:5]}")
    checks.checks += image_checks.checks
    doc["checks"] = checks.records()
    return doc
