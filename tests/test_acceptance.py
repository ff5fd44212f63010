"""Acceptance criteria: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance here is exact (integer / set equality); the only numeric
bounds are the stated runtime ceilings, asserted against wall-clock time.
"""

import random
import time

from field_oracle import dickson_bits, divisors
from graph_oracle import predecessor_slots, tree_levels
from orders_oracle import profile_set_inputs, seed_profiles
from thetamap.dickson_curve import (
    _root_bits,
    _split_roots,
    curve_point_count,
    curve_point_count_naive,
    dickson_coeff_bits,
    kloosterman,
    leaf_set_equalities,
)
from thetamap.gf2_arith import factorize, make_field
from thetamap.order_dynamics import (
    case_table,
    h_longform_flags,
    make_tower,
    seed_walk,
    trace_profile_check,
    verify_cq1_inclusion,
    verify_theta_permutation,
)
from thetamap.theta_graph import build_graph, verify_structure

TOWERS = {n: make_tower(n) for n in (1, 2, 3, 4)}
PROFILES = {n: seed_profiles(seed_walk(tw)) for n, tw in TOWERS.items()}

_ROOT_CACHE: dict[int, tuple[set, set, set, int]] = {}


def rootsets(n):
    if n not in _ROOT_CACHE:
        f = make_field(n)
        roots = _root_bits(f, f.q + 1)
        s, t = _split_roots(f, roots)
        _ROOT_CACHE[n] = (roots, s, t, kloosterman(f))
    return _ROOT_CACHE[n]


def verdict(num, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion-{num:02d}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_golden_graph():
    t0 = time.time()
    f = make_field(6)
    assert f.modulus == 0b1011011
    g = build_graph(f)
    a = f.exp_of

    ok = len(g.components) == 4
    slots = predecessor_slots(g.succ)
    by_cycle = {frozenset(c.cycle): c for c in g.components}

    comp = by_cycle.get(frozenset({a(45), a(27), a(54)}))
    ok = ok and comp is not None and comp.trace_class == "A" and comp.depth == 3
    want_trees = {
        45: {1: {9}, 2: {7, 56}, 3: {41, 22, 50, 13}},
        27: {1: {18}, 2: {14, 49}, 3: {19, 44, 26, 37}},
        54: {1: {36}, 2: {28, 35}, 3: {38, 25, 52, 11}},
    }
    if ok:
        for root, levels in want_trees.items():
            got = dict(enumerate(tree_levels(slots, g.level, a(root)), 1))
            ok = ok and {k: {f.dlog(v) for v in vs} for k, vs in got.items()} \
                == levels

    inf_comp = by_cycle.get(frozenset({f.q}))
    ok = ok and inf_comp is not None and inf_comp.depth == 3
    if ok:
        tree = dict(enumerate(
            tree_levels(slots, g.level, f.q), 1))
        ok = (tree[1] == [0] and tree[2] == [1]
              and set(tree[3]) == {a(21), a(42)})
        ok = ok and sum(len(v) for v in tree.values()) + 1 == 5

    b_cycles = [
        {48, 53, 47, 12, 29, 59, 3, 23, 62},
        {33, 43, 31, 24, 58, 55, 6, 46, 61},
    ]
    for exps in b_cycles:
        comp = by_cycle.get(frozenset(a(e) for e in exps))
        ok = ok and comp is not None and comp.trace_class == "B"
        ok = ok and comp.depth == 1
        ok = ok and len(comp.cycle) + sum(
            len(vs) for root in comp.cycle
            for vs in tree_levels(slots, g.level, root)) == 18
    elapsed = time.time() - t0
    ok = ok and elapsed < 1.0
    verdict(1, ok, f"graph over GF(2^6) matches the worked example "
                   f"({elapsed:.2f}s)")


def test_criterion_02_structure_sweep():
    t0 = time.time()
    ok = True
    for t in range(1, 15):
        rep = verify_structure(build_graph(make_field(t)))
        ok = ok and rep.passed
    elapsed = time.time() - t0
    ok = ok and elapsed < 10.0
    verdict(2, ok, f"all six structural checks pass for t=1..14 "
                   f"({elapsed:.1f}s)")


def test_criterion_03_h_partition():
    t0 = time.time()
    ok = True
    for n, profs in PROFILES.items():
        assert len(profs) == TOWERS[n].q ** 2
        for p in profs:
            flags = h_longform_flags(p)
            ok = ok and sum(flags) == 1 and flags[p.h_class.value - 1]
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    verdict(3, ok, f"every seed for n=1..4 falls in exactly one class and "
                   f"matches its full characterization ({elapsed:.1f}s)")


def test_criterion_04_trace_tables():
    ok = True
    for profs in PROFILES.values():
        for p in profs:
            ok = ok and case_table(p) and trace_profile_check(p)
    verdict(4, ok, "every profile's trace rows match its case table, n=1..4")


def test_criterion_05_kloosterman_count():
    ok = True
    elapsed12 = None
    for n in range(1, 13):
        t0 = time.time()
        roots, s, t, k = rootsets(n)
        if n == 12:
            elapsed12 = time.time() - t0
        q = 1 << n
        ok = ok and k * k <= 4 * q
        ok = ok and (q + 1 + k) % 4 == 0 and (q + 1 + k) // 4 == len(s)
    ok = ok and (elapsed12 is None or elapsed12 < 60.0)
    note = f", n=12 block {elapsed12:.1f}s" if elapsed12 is not None else ""
    verdict(5, ok, f"(q+1+K)/4 = |S| exactly for n=1..12, |K| <= 2 sqrt(q)"
                   f"{note}")


def test_criterion_06_exception_cases():
    ok = True
    for n in (1, 2):
        ok = ok and not rootsets(n)[2]
    for n in (3, 4, 5, 6):
        ok = ok and bool(rootsets(n)[2])
    verdict(6, ok, "T empty exactly for q in {2,4} among q in "
                   "{2,4,8,16,32,64}")


def test_criterion_07_leaf_set_equalities():
    ok = True
    for n in range(1, 13):
        f = make_field(n)
        g = build_graph(f)
        rep = leaf_set_equalities(g)
        ok = ok and rep.passed
    verdict(7, ok, "S equals the A-leaves for n=1..12 and T the B-leaves "
                   "for n=3..12, setwise")


def test_criterion_08_inclusion_and_permutation():
    ok = True
    for n in (1, 2, 3, 4):
        cq1, _, permutation = profile_set_inputs(TOWERS[n], PROFILES[n])
        ok = ok and verify_cq1_inclusion(*cq1).passed
        ok = ok and verify_theta_permutation(*permutation).passed
    verdict(8, ok, "subgroup image inclusion and the landing-set "
                   "permutation hold elementwise for n=1..4")


def test_criterion_09_divisor_congruence():
    ok = True
    for t in range(1, 21):
        r = 0
        tt = t
        while tt % 2 == 0:
            r += 1
            tt //= 2
        for d in divisors(factorize(2 ** t + 1)):
            ok = ok and d % (1 << (r + 1)) == 1
    verdict(9, ok, "every divisor of 2^t+1 is 1 mod 2^(r+1) for t=1..20")


def test_criterion_10_oracle_equivalence():
    ok = True
    rng = random.Random(20260808)

    def schoolbook(a_bits, b_bits, mod_bits):
        a = [(a_bits >> i) & 1 for i in range(a_bits.bit_length())]
        b = [(b_bits >> i) & 1 for i in range(b_bits.bit_length())]
        m = [(mod_bits >> i) & 1 for i in range(mod_bits.bit_length())]
        prod = [0] * (len(a) + len(b))
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] ^= bj
        dm = len(m) - 1
        for kk in range(len(prod) - 1, dm - 1, -1):
            if prod[kk]:
                for j, mj in enumerate(m):
                    prod[kk - dm + j] ^= mj
        return sum(c << i for i, c in enumerate(prod[:dm]))

    for t in (2, 3, 6, 12):
        f = make_field(t)
        for _ in range(10_000):
            a, b = rng.randrange(f.q), rng.randrange(f.q)
            if f.mul(a, b) != schoolbook(a, b, f.modulus):
                ok = False
                break

    for t in (4, 6):
        f = make_field(t)
        for m in range(1, 11):
            coeffs = dickson_coeff_bits(m)
            for x in range(f.q):
                if dickson_bits(f, m, x) != f.eval_poly(coeffs, x):
                    ok = False

    for n in range(1, 9):
        f = make_field(n)
        if curve_point_count(f) != curve_point_count_naive(f):
            ok = False

    verdict(10, ok, "multiplication, Dickson evaluation, and curve counts "
                    "match their independent oracles exactly")
