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
level/order/trace table that `case_table` renders and checks row by row.

The reduction to GF(q^2).  Since 1/g = g^(q^2), f(g) = g + g^(q^2) is the
relative trace of g into GF(q^2).  So the first iterates come from
``theta_pullback`` over GF(q^2) < GF(q^4), the pull-back the Dickson
battery reads over GF(q) < GF(q^2): the seeds are walked once in the
ambient GF(2^(4n)) as the powers h^j of h = gen^(q^2-1) (``subgroup``),
each f(h^j) is read in GF(q^2), and every later iterate is profiled from
GF(q^2)'s log tables.  The seed's own row has a closed form:
order (q^2+1)/gcd(j, q^2+1), trivial gcd-split, subfield 4n (a seed inside
GF(q^2) would have order dividing q^2-1 and q^2+1, so it would be 1), and
Tr_4n(g) = Tr_4n(1/g) = Tr_2n(f(g)).  The seeds j and q^2+1-j have the
same f(g), so each such pair shares one profiled tail.

Labels are those of the ambient field: a seed is labelled j*(q^2-1), an
iterate x of GF(q^2) by (q^2+1)*(k0 * log x mod q^2-1), where k0 inverts
log(emb^-1(gen^(q^2+1))) modulo q^2-1; both read no ambient log table.
Beyond TABLE_MAX_T the label is the hex of the ambient coordinates, as in
the graph exports.  `orders_report` walks the seeds once: the
whole-subgroup set checks read their iterates, as GF(q^2) points, and their
orders from the profiles of that walk.

Projective conventions (1/0 = 0, |0| = |inf| = 1, Tr = 0 on 0 and inf)
make the degenerate tails of class-1 profiles (... -> 1 -> 0 -> inf, which
occur whenever 3 | q+1 or 3 | q-1 lets an iterate reach 1) satisfy the same
tables uniformly; at indices 1..l+2 a special point fails its case table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from enum import Enum

from thetamap.gf2_arith import (
    TABLE_MAX_T,
    FieldElement,
    FieldError,
    FieldSpec,
    field_to_record,
    make_field,
    subfield_embedding,
)
from thetamap.report import CheckReport
from thetamap.theta_graph import (
    ProjPoint,
    Pullback,
    build_graph,
    theta_index,
    theta_pullback,
)

__all__ = [
    "TowerSpec",
    "SeedWalk",
    "HClass",
    "ProfileStep",
    "OrderProfile",
    "CaseTable",
    "SubcaseReport",
    "QuadrantReport",
    "make_tower",
    "subgroup",
    "seed_walk",
    "profile_tail",
    "classify_H",
    "seed_profiles",
    "h_longform_flags",
    "trace_profile_check",
    "case_table",
    "case1_subcase",
    "verify_cq1_inclusion",
    "check_order_bound",
    "trace_quadrants",
    "verify_theta_permutation",
    "orders_report",
]


class HClass(Enum):
    H1 = 1
    H2 = 2
    H3 = 3


@dataclass(frozen=True)
class TowerSpec:
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
    N = 2^(4n) - 1.  The battery's one ambient walk, called by this name so
    that ``perfbench/tracer.py`` counts its calls and elements."""
    return tower.ambient.subgroup(k)


@dataclass(frozen=True)
class SeedWalk:
    """The seeds h^j = ``pull.powers[j]``, h = gen^(q^2-1), their first
    iterates ``pull.values[j]`` in GF(q^2), and ``k0``, which turns a log of
    GF(q^2) into an ambient one (``label``; 0 if ``pull`` has a fault)."""

    tower: TowerSpec
    pull: Pullback
    k0: int

    def label(self, x: int) -> str:
        """The ambient export label of a point of GF(q^2) (index q^2 is inf).

        emb(gen_2n) = gen^((q^2+1) * k0), so a unit x has the ambient log
        (q^2+1) * (k0 * log x mod q^2-1).
        """
        double = self.tower.double
        if x == 0:
            return "'0'"
        if x == double.q:
            return "inf"
        if self.tower.ambient.t > TABLE_MAX_T:
            return f"x{self.pull.emb[x]:x}"
        n2 = double.q - 1
        return str((n2 + 2) * (self.k0 * double.dlog(x) % n2))


def seed_walk(tower: TowerSpec) -> SeedWalk:
    """Enumerate the seeds once and pull their first iterates into GF(q^2)."""
    ambient, double = tower.ambient, tower.double
    pull = theta_pullback(double, ambient, subgroup(tower, double.q + 1))
    if pull.fault is not None:
        return SeedWalk(tower, pull, 0)
    # gen^(q^2+1) generates the ambient's copy of GF(q^2)*
    a = double.dlog(pull.emb.index(ambient.pow(ambient.gen, double.q + 1)))
    return SeedWalk(tower, pull, pow(a, -1, double.q - 1))


# ---------------------------------------------------------------------------
# Seed profiles

@dataclass
class ProfileStep:
    index: int
    point: ProjPoint     # in the ambient at index 0, in GF(q^2) after it
    label: str           # the ambient export label of the point
    order: int
    d_part: int          # gcd(order, q+1)
    e_part: int          # gcd(order, q-1)
    subfield: int        # minimal containing degree among n, 2n, 4n
    tr: int
    tr_inv: int


@dataclass
class OrderProfile:
    tower: TowerSpec
    gamma: FieldElement
    steps: list[ProfileStep]
    h_class: HClass
    case_id: int


def profile_tail(walk: SeedWalk, j: int) -> list[ProfileStep]:
    """The iterates at indices 1..l+4 of seed h^j, profiled in GF(q^2).

    f(h^j) is read from the seed walk's pull-back; from there each step
    reads GF(q^2)'s log table.  Iterates at indices 1..l+2 are provably
    units; a 0 or infinity there is recorded like a later one, and
    `case_table` flags it.
    """
    tower = walk.tower
    double = tower.double
    q, l, n = tower.q, tower.l, tower.n
    _, log = double.tables()
    n2 = double.q - 1
    x = walk.pull.values[j]
    steps: list[ProfileStep] = []
    for i in range(1, l + 5):
        point = ProjPoint(double, x)
        if x == 0 or x == double.q:        # projective special points
            steps.append(ProfileStep(i, point, walk.label(x), 1, 1, 1, n, 0, 0))
            x = double.q                   # 0 and inf both map to inf
        else:
            inv = double.inv(x)
            lx = log[x]
            o = n2 // math.gcd(lx, n2)
            sub = n if lx % (q + 1) == 0 else 2 * n   # GF(q)* = <gen^(q+1)>
            mask = double.trace_mask(sub)             # 1/x lies in x's subfield
            steps.append(ProfileStep(
                i, point, walk.label(x), o, math.gcd(o, q + 1),
                math.gcd(o, q - 1), sub,
                (x & mask).bit_count() & 1, (inv & mask).bit_count() & 1))
            x ^= inv                       # x + 1/x, from the same inverse
    return steps


def classify_H(walk: SeedWalk, j: int, tail: list[ProfileStep]) -> OrderProfile:
    """The profile of seed h^j from its tail (`profile_tail`), and its class.

    The seed's own row is the closed form of the module docstring.
    """
    tower = walk.tower
    ambient = tower.ambient
    q, l, n = tower.q, tower.l, tower.n
    big = q * q + 1
    if not 0 < j < big:
        raise FieldError(f"seed exponent {j} outside [1, {big - 1}]")
    seed = walk.pull.powers[j]
    label = (str(j * (q * q - 1)) if ambient.t <= TABLE_MAX_T
             else f"x{seed:x}")
    tr = tower.double.trace(tail[0].point.index)   # Tr_2n(f(g))
    steps = [ProfileStep(0, ProjPoint(ambient, seed), label,
                         big // math.gcd(j, big), 1, 1, 4 * n, tr, tr), *tail]

    if (q + 1) % steps[1].order == 0:
        h = HClass.H1
    elif (q + 1) % steps[l + 2].order == 0:
        h = HClass.H2
    else:
        h = HClass.H3
    return OrderProfile(tower, FieldElement(ambient, seed), steps, h, h.value)


def seed_profiles(walk: SeedWalk) -> list[OrderProfile]:
    """Every seed's profile, in exponent order j = 1..q^2.

    The seeds j and q^2+1-j share their iterates from index 1 on, so each
    pair's tail is profiled once.
    """
    big = walk.tower.q ** 2 + 1
    profiles: list[OrderProfile] = [None] * (big - 1)
    for j in range(1, big // 2 + 1):      # j < q^2+1-j: big is odd
        tail = profile_tail(walk, j)
        profiles[j - 1] = classify_H(walk, j, tail)
        profiles[big - j - 1] = classify_H(walk, big - j, tail)
    return profiles


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

def trace_profile_check(profile: OrderProfile) -> CheckReport:
    """Forced trace rows: peak and tail for class 1, the swap for class 2."""
    t = profile.tower
    n, l = t.n, t.l
    steps = profile.steps
    rep = CheckReport(f"forced trace rows (class {profile.case_id}, n={n})")

    if profile.h_class is HClass.H1:
        s2 = steps[2]
        rep.add("class1-peak-trace",
                s2.subfield == n and s2.tr == 1 and s2.tr_inv == 1,
                f"index 2: Tr_{s2.subfield} pair ({s2.tr},{s2.tr_inv})")
        bad = [i for i in range(3, l + 5)
               if not (steps[i].tr == 0 and steps[i].tr_inv == 0)]
        rep.add("class1-tail-traces", not bad,
                "" if not bad else f"nonzero trace at indices {bad}")
    elif profile.h_class is HClass.H2:
        s3 = steps[l + 3]
        rep.add("class2-level1-traces",
                s3.subfield == n and (s3.tr, s3.tr_inv) == (0, 1),
                f"index {l + 3}: Tr_{s3.subfield} pair ({s3.tr},{s3.tr_inv})")
        s4 = steps[l + 4]
        rep.add("class2-level0-traces",
                s4.subfield == n and (s4.tr, s4.tr_inv) == (1, 0),
                f"index {l + 4}: Tr_{s4.subfield} pair ({s4.tr},{s4.tr_inv})")
    else:
        rep.add("class3-no-forced-rows", True,
                "only classes 1 and 2 carry forced rows beyond the table")
    return rep


@dataclass
class CaseRow:
    level: int
    index: int
    order: int
    order_tag: str       # one of "q2+1", "q+1", "q-1", "mixed"
    subfield: int
    tr: int
    tr_inv: int
    ok: bool


@dataclass
class CaseTable:
    case_id: int
    flavor: str          # middle-graph class of the first iterate: "A" or "B"
    n: int
    l: int
    q: int
    rows: list[CaseRow]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def render(self) -> str:
        heads = {
            1: "Case 1: d_1 | (q+1)",
            2: "Case 2: d_1 - (q+1), d_{l+2} | (q+1)",
            3: "Case 3: d_1 - (q+1), d_{l+2} - (q+1)",
        }
        tags = {"q2+1": "| (q^2+1)", "q+1": "| (q+1)", "q-1": "| (q-1)",
                "mixed": "| (q^2-1), - (q+-1)"}
        head = heads[self.case_id]
        if self.case_id == 3:
            head += f", first iterate in class {self.flavor}"
        lines = [f"{head}   [n={self.n}, q={self.q}, l={self.l}]",
                 f"{'level':>5}  {'order':<26}  trace"]
        for r in self.rows:
            dname = "d" if r.index == 0 else f"d_{r.index}"
            order_cell = f"{dname}={r.order} {tags[r.order_tag]}"
            g = "g" if r.index == 0 else f"g_{r.index}"
            trace_cell = (f"Tr_{r.subfield}({g})={r.tr}, "
                          f"Tr_{r.subfield}(1/{g})={r.tr_inv}")
            mark = "" if r.ok else "   <- MISMATCH"
            lines.append(f"{r.level:>5}  {order_cell:<26}  {trace_cell}{mark}")
        return "\n".join(lines)


def _expected_rows(case_id: int, flavor: str, n: int,
                   l: int) -> list[tuple[int, str, int, tuple[int, int]]]:
    """(level, order tag, trace subfield, trace pair) for indices 0..l+4.

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
    return rows


def _order_tag_holds(tag: str, order: int, q: int) -> bool:
    if tag == "q2+1":
        return (q * q + 1) % order == 0
    if tag == "q+1":
        return (q + 1) % order == 0
    if tag == "q-1":
        return (q - 1) % order == 0
    return ((q * q - 1) % order == 0
            and (q + 1) % order != 0 and (q - 1) % order != 0)


def case_table(profile: OrderProfile) -> CaseTable:
    """The level/order/trace table of the profile, checked row by row.

    The case is the class `classify_H` assigned from the divisibility
    pattern (d_1 | q+1, d_{l+2} | q+1); Case 3 is further split by the
    middle-graph class of the first iterate.  Levels refer to the graph over
    GF(q^4).
    """
    t = profile.tower
    n, l, q = t.n, t.l, t.q
    steps = profile.steps
    case_id = profile.case_id
    flavor = "B" if steps[1].tr != steps[1].tr_inv else "A"
    expected = _expected_rows(case_id, flavor, n, l)
    rows = []
    for i, (level, tag, sub_exp, pair_exp) in enumerate(expected):
        s = steps[i]
        # Special points carry order 1, subfield n and zero traces, which is
        # exactly what the degenerate class-1 tails must satisfy; before
        # index l+3 they are a mismatch even where a class-1 row fits them.
        ok = ((s.point.is_unit or i > l + 2)
              and _order_tag_holds(tag, s.order, q)
              and s.subfield == sub_exp
              and (s.tr, s.tr_inv) == pair_exp)
        rows.append(CaseRow(level, i, s.order, tag, s.subfield,
                            s.tr, s.tr_inv, ok))
    return CaseTable(case_id, flavor, n, l, q, rows)


# ---------------------------------------------------------------------------
# Sub-cases of Case 1 (needs l >= 1, i.e. even n)

@dataclass
class SubcaseReport(CheckReport):
    subcase: int = 0


def case1_subcase(tower: TowerSpec, profile: OrderProfile) -> SubcaseReport:
    """Split a Case-1 profile by whether d_2 divides sqrt(q)+1."""
    if profile.case_id != 1:
        raise FieldError("sub-case split applies to Case-1 profiles only")
    if tower.l < 1:
        raise FieldError("sub-case split needs l >= 1")
    qt = 1 << (tower.n // 2)          # sqrt(q)
    steps = profile.steps
    l = tower.l
    d2 = steps[2].order
    if (qt + 1) % d2 != 0:
        rep = SubcaseReport("case-1 sub-case 1", subcase=1)
        bad = [i for i in range(2, l + 2)
               if (qt + 1) % steps[i].order == 0 or (qt - 1) % steps[i].order == 0]
        rep.add("subcase1-orders", not bad,
                "" if not bad else f"order divides sqrt(q)+-1 at indices {bad}")
    else:
        rep = SubcaseReport("case-1 sub-case 2", subcase=2)
        bad = [i for i in range(3, l + 5)
               if (qt - 1) % steps[i].order != 0]
        rep.add("subcase2-orders", not bad,
                "" if not bad else f"order does not divide sqrt(q)-1 at {bad}")
        reseed_ok = ((qt * qt + 1) % steps[1].order == 0
                     and (qt + 1) % steps[2].order == 0)
        rep.add("subcase2-reseed-case1", reseed_ok,
                "shifted parameters q:=sqrt(q), seed:=g_1, l:=l-1 satisfy Case 1")
    return rep


# ---------------------------------------------------------------------------
# Whole-subgroup set checks

def verify_cq1_inclusion(tower: TowerSpec,
                         profiles: list[OrderProfile]) -> CheckReport:
    """C_{q+1} inside theta(C_{q^2+1}) union theta^(l+2)(C_{q^2+1}).

    The two images are read, as points of GF(q^2), from the seed profiles at
    indices 1 and l+2 (seed 1 is left out: it maps to 0 and then inf,
    neither in C_{q+1}).
    Also places every nontrivial element of C_{q+1} on level l+3 or 2 of the
    graph over GF(q^2) and checks that every vertex sharing that level of
    the same component has order dividing q+1.  Each such (component,
    level) class is judged once, in one pass over the graph.
    """
    q, l, n = tower.q, tower.l, tower.n
    double = tower.double
    rep = CheckReport(f"order-(q+1) subgroup coverage (n={n})")

    cq1 = double.subgroup(q + 1)[:-1]           # C_{q+1} in GF(q^2)
    img1 = {p.steps[1].point.index for p in profiles}
    img2 = {p.steps[l + 2].point.index for p in profiles}
    missing = [b for b in cq1 if b not in img1 and b not in img2]
    rep.add("cq1-image-inclusion", not missing,
            "" if not missing
            else f"{len(missing)} elements uncovered, first bits {missing[0]:#x}")

    # Levels in the graph over the tower's GF(q^2).
    g2n = build_graph(double)
    comp_id, level = g2n.comp_id, g2n.level
    bad_level = []
    placed = []
    for v in cq1[1:]:                  # the q nontrivial elements of C_{q+1}
        (placed if level[v] in (l + 3, 2) else bad_level).append(v)
    classes = {(comp_id[v], level[v]) for v in placed}
    bad_classes = {key for u, key in enumerate(zip(comp_id, level))
                   if key in classes and (q + 1) % double.order(u)}
    bad_order = [v for v in placed if (comp_id[v], level[v]) in bad_classes]
    rep.add("cq1-levels", not bad_level,
            "" if not bad_level else f"bad level for bits {bad_level[0]:#x}")
    rep.add("cq1-level-orders", not bad_order,
            "" if not bad_order else f"level mate of {bad_order[0]:#x} "
                                     f"has order not dividing q+1")
    return rep


def check_order_bound(tower: TowerSpec, profile: OrderProfile) -> CheckReport:
    """Iterate orders of class-2/3 seeds stay >= p1*p2 >= (1+2^(l+1))*p2."""
    q, l = tower.q, tower.l
    rep = CheckReport(f"order lower bound (n={tower.n})")
    if q == 2:
        rep.add("order-lower-bound", True,
                "vacuous: q-1 = 1 has no least prime")
        return rep
    if profile.case_id == 1:
        raise FieldError("bound applies when |f(seed)| does not divide q+-1")
    p1 = tower.base.fact_plus.least_prime()
    p2 = tower.base.fact_minus.least_prime()
    rep.add("least-prime-congruence", p1 >= 1 + (1 << (l + 1)),
            f"p1={p1} vs 1+2^(l+1)={1 + (1 << (l + 1))}")
    bound = p1 * p2
    indices = list(range(1, l + 2))
    if profile.case_id == 3:
        indices += list(range(l + 2, l + 5))
    bad = [i for i in indices if profile.steps[i].order < bound]
    rep.add("order-lower-bound", not bad,
            f"bound {bound}" if not bad
            else f"order below {bound} at indices {bad}")
    return rep


def _seed_verdicts(tower: TowerSpec, prof: OrderProfile) -> dict[str, bool]:
    """Whether one profile passes each per-seed check, by check name."""
    flags = h_longform_flags(prof)
    return {
        "h-partition": sum(flags) == 1 and flags[prof.case_id - 1],
        "case-tables": case_table(prof).passed,
        "forced-traces": trace_profile_check(prof).passed,
        "case1-subcases": (prof.case_id != 1 or tower.l < 1
                           or case1_subcase(tower, prof).passed),
        "order-bound": (prof.case_id == 1
                        or check_order_bound(tower, prof).passed),
    }


@dataclass
class QuadrantReport:
    """The four trace quadrants of GF(q)* and their image characterizations."""

    a11: set[int]        # Tr(x) = Tr(1/x) = 1      (packed in GF(2^n))
    a00: set[int]        # Tr(x) = Tr(1/x) = 0
    b01: set[int]        # Tr(x) = 0, Tr(1/x) = 1
    b10: set[int]        # Tr(x) = 1, Tr(1/x) = 0
    checks: CheckReport = dfield(default_factory=lambda: CheckReport("quadrants"))

    @property
    def passed(self) -> bool:
        return self.checks.passed


def trace_quadrants(tower: TowerSpec,
                    profiles: list[OrderProfile]) -> QuadrantReport:
    """Quadrants by trace pairs versus their image-set characterizations.

    The quadrants split the tower's GF(q)* by trace pair.  The image sets
    are read over GF(q^2) from the seed profiles of the order-(q^2+1)
    subgroup, keeping unit points; the trace-defined quadrants are carried
    into GF(q^2) through the explicit subfield embedding before comparison.
    A failing embedding fails each image check with its message.
    """
    spec_n = tower.base
    double = tower.double
    q, l = tower.q, tower.l

    a11, a00, b01, b10 = set(), set(), set(), set()
    for x in range(1, spec_n.q):
        pair = (spec_n.trace(x), spec_n.trace(spec_n.inv(x)))
        {(1, 1): a11, (0, 0): a00, (0, 1): b01, (1, 0): b10}[pair].add(x)

    try:
        emb, fault = subfield_embedding(spec_n, double), None
    except FieldError as exc:
        fault = str(exc)
    unit_cap = double.q           # indexes below this and nonzero are units

    img_a11: set[int] = set()
    img_a00: set[int] = set()
    img_b01: set[int] = set()
    img_b10: set[int] = set()
    for prof in profiles:
        steps = prof.steps
        orbit = [s.point.index for s in steps]
        if (q + 1) % steps[1].order == 0:
            if 0 < orbit[2] < unit_cap:
                img_a11.add(orbit[2])
            for i in range(3, l + 5):
                if 0 < orbit[i] < unit_cap:
                    img_a00.add(orbit[i])
        if (q + 1) % steps[l + 2].order == 0:
            if 0 < orbit[l + 3] < unit_cap:
                img_b01.add(orbit[l + 3])
            if 0 < orbit[l + 4] < unit_cap:
                img_b10.add(orbit[l + 4])

    rep = CheckReport(f"trace quadrants (n={tower.n})")
    rep.add("quadrant-partition",
            len(a11) + len(a00) + len(b01) + len(b10) == spec_n.q - 1)
    for name, trace_set, img in (
            ("a11-image", a11, img_a11), ("a00-image", a00, img_a00),
            ("b01-image", b01, img_b01), ("b10-image", b10, img_b10)):
        if fault is not None:
            rep.add(name, False, fault)
        else:
            rep.add(name, {emb[x] for x in trace_set} == img,
                    f"|by-trace|={len(trace_set)} |by-image|={len(img)}")
    return QuadrantReport(a11, a00, b01, b10, rep)


def verify_theta_permutation(tower: TowerSpec,
                             profiles: list[OrderProfile]) -> CheckReport:
    """The map permutes the (l+4)-th image of the order-(q^2+1) subgroup.

    The landing set is read, as points of GF(q^2), from the seed profiles
    at index l+4.
    """
    landing = {p.steps[tower.l + 4].point.index for p in profiles}
    image = {theta_index(tower.double, idx) for idx in landing}
    rep = CheckReport(f"permutation on the landing set (n={tower.n})")
    rep.add("landing-set-closed", image == landing,
            f"|set|={len(landing)} |image|={len(image)}")
    rep.add("injective-on-landing-set", len(image) == len(landing))
    return rep


# ---------------------------------------------------------------------------
# Aggregate JSON report

def orders_report(tower: TowerSpec) -> dict:
    """Classification counts, all profiles, and every set-level check.

    If the seed walk's pull-back carries a fault (the embedding of GF(q^2)
    fails, the walk does not close, or a first iterate misses the embedded
    GF(q^2)), no profile can be trusted: the report carries that one failed
    check with its witness.
    """
    q, l, n = tower.q, tower.l, tower.n
    counts = {"H1": 0, "H2": 0, "H3": 0}
    profiles = []
    checks = CheckReport(f"order dynamics over GF(2^{4 * n})")
    doc = {
        "n": n, "l": l, "m": tower.m, "q": q,
        "field": field_to_record(tower.ambient),
        "counts": counts,
        "profiles": profiles,
    }
    walk = seed_walk(tower)
    if walk.pull.fault is not None:
        closed = walk.pull.powers[-1] == 1
        checks.add("first-iterate-pullback" if closed else "subgroup-closure",
                   False, walk.pull.fault)
        doc["checks"] = checks.records()
        return doc
    big = q * q + 1
    seed_profs = seed_profiles(walk)
    for exp, prof in enumerate(seed_profs, 1):
        counts[prof.h_class.name] += 1
        profiles.append({
            "exponent": exp,
            "class": prof.h_class.name,
            "case": prof.case_id,
            "steps": [{
                "index": s.index,
                "point": s.label,
                "order": s.order,
                "d_part": s.d_part,
                "e_part": s.e_part,
                "subfield": s.subfield,
                "tr": s.tr,
                "tr_inv": s.tr_inv,
            } for s in prof.steps],
        })

    # The mates j and q^2+1-j share every step from index 1 on, and their
    # seed rows differ only in point and label, which no per-seed check
    # reads beyond the point being a unit: one verdict serves both.
    failing: dict[str, list[int]] = {}
    for j in range(1, big // 2 + 1):
        for name, ok in _seed_verdicts(tower, seed_profs[j - 1]).items():
            bad = failing.setdefault(name, [])
            if not ok:
                bad += (j, big - j)
    for name, bad in failing.items():
        bad.sort()
        checks.add(name, not bad,
                   "" if not bad else f"failing seed exponents {bad[:5]}")
    for sub in (verify_cq1_inclusion(tower, seed_profs),
                trace_quadrants(tower, seed_profs).checks,
                verify_theta_permutation(tower, seed_profs)):
        checks.checks.extend(sub.checks)

    doc["checks"] = checks.records()
    return doc
