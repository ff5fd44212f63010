"""Classification of the order-(q^2+1) subgroup and the set-level facts."""

import dataclasses
import math

import pytest

from orders_oracle import (
    label,
    mate_pair_report,
    member_profiles,
    pair_verdict_records,
    seed_label,
    seed_profiles,
)
from thetamap import order_dynamics
from thetamap.gf2_arith import (
    FieldError,
    FieldSpec,
    _coset_leader,
    factorize,
    field_from_record,
    field_to_record,
    make_field,
    subfield_embedding,
)
from thetamap.order_dynamics import (
    HClass,
    _conjugates,
    _expected_rows,
    case1_subcase,
    case_table,
    check_order_bound,
    classify_H,
    h_longform_flags,
    leader_profiles,
    make_tower,
    orders_report,
    profile_tail,
    seed_orbits,
    seed_walk,
    trace_profile_check,
    trace_quadrants,
    verify_cq1_inclusion,
    verify_theta_permutation,
)
from thetamap.report import json_text
from thetamap.theta_graph import build_graph, point_label, theta_index

TOWERS = {n: make_tower(n) for n in (1, 2, 3, 4)}
WALKS = {n: seed_walk(tw) for n, tw in TOWERS.items()}
PROFILES = {n: seed_profiles(walk) for n, walk in WALKS.items()}

# Towers whose ambient is not the default field: the double is still the
# default GF(2^(2n)), so the embedding between them is no Conway shortcut.
NON_DEFAULT = [
    (2, field_from_record("t=8 modulus=11b generator=3"),
     {"H1": 8, "H2": 0, "H3": 8}),
    (3, make_field(12, 0x1009), {"H1": 4, "H2": 24, "H3": 36}),
]


def _ambient_indices(walk, profile):
    """The profile's points as ambient indices (infinity is ambient.q)."""
    double, ambient = walk.tower.double, walk.tower.ambient
    idx = [profile.steps[0].point]
    for s in profile.steps[1:]:
        x = s.point
        idx.append(ambient.q if x == double.q else walk.pull.emb[x])
    return idx


def _ambient_profile(tower, bits):
    """Every field of one seed's profile, computed iterate by iterate in the
    ambient GF(2^(4n)): the independent oracle for the GF(q^2) reduction."""
    ambient = tower.ambient
    q, n = tower.q, tower.n
    rows = []
    idx = bits
    for _ in range(tower.l + 5):
        lab = point_label(ambient, idx)
        if idx == 0 or idx == ambient.q:
            rows.append((idx, lab, 1, 1, 1, n, 0, 0))
            idx = ambient.q
        else:
            inv = ambient.inv(idx)
            o = ambient.order(idx)
            d = ambient.degree(idx)
            sub = next(k for k in (n, 2 * n, 4 * n) if k % d == 0)
            mask = ambient.trace_mask(sub)
            rows.append((idx, lab, o, math.gcd(o, q + 1), math.gcd(o, q - 1),
                         sub, (idx & mask).bit_count() & 1,
                         (inv & mask).bit_count() & 1))
            idx ^= inv
    return rows


# ---------------------------------------------------------------------------
# tower construction and subgroups


def test_make_tower_parameters():
    assert (TOWERS[1].l, TOWERS[1].m, TOWERS[1].ambient.t) == (0, 1, 4)
    assert (TOWERS[2].l, TOWERS[2].m, TOWERS[2].ambient.t) == (1, 1, 8)
    tw6 = make_tower(6)
    assert (tw6.l, tw6.m, tw6.ambient.t) == (1, 3, 24)
    tw8 = make_tower(8)
    assert (tw8.l, tw8.m, tw8.ambient.t) == (3, 1, 32)
    assert make_tower(9).ambient.t == 36      # no cap beyond n >= 1
    with pytest.raises(FieldError):
        make_tower(0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_subfield_degree_matches_frobenius_search(n):
    # the least of n, 2n, 4n whose Frobenius power fixes the point: in the
    # ambient for the seed, in GF(q^2) after it
    tw = TOWERS[n]
    for p in PROFILES[n]:
        for s in p.steps:
            f, a = (tw.double, s.point) if s.index else (tw.ambient, s.point)
            if 0 < a < f.q:
                want = next(d for d in (n, 2 * n, 4 * n)
                            if f.t % d == 0 and f.in_subfield(a, d))
                assert s.subfield == want, (p.exponent, s.index)


def test_subgroup_trivial_and_sizes():
    tw = TOWERS[2]
    assert tw.ambient.subgroup(1) == [1, 1]
    for k in (3, 5, 15, 17, 255):
        powers = tw.ambient.subgroup(k)
        assert len(powers) == k + 1 and powers[k] == 1   # the walk closes
        assert len(set(powers[:k])) == k
        for e in powers:
            assert tw.ambient.pow(e, k) == 1


def test_subgroup_of_order_five_in_small_tower():
    tw = TOWERS[1]
    step = (tw.ambient.q - 1) // 5            # powers of g^3 in GF(2^4)
    assert tw.ambient.subgroup(5) == [
        tw.ambient.pow(tw.ambient.gen, step * j) for j in range(6)]


def test_subgroup_rejects_non_divisor():
    with pytest.raises(FieldError):
        TOWERS[2].ambient.subgroup(7)


# ---------------------------------------------------------------------------
# classification


def test_n1_every_seed_is_class_one():
    tw = TOWERS[1]
    profs = PROFILES[1]
    assert len(profs) == 4
    for p in profs:
        assert p.h_class is HClass.H1
        assert len(p.steps) == tw.l + 5
        assert p.steps[1].order == 3              # q + 1 exactly
        assert p.steps[2].order == 1              # the unit 1
        assert p.steps[2].point == 1
        assert p.steps[3].point == 0
        assert p.steps[4].point == tw.double.q       # infinity


def test_class_counts_frozen():
    counts = {n: {"H1": 0, "H2": 0, "H3": 0} for n in PROFILES}
    for n, profs in PROFILES.items():
        for p in profs:
            counts[n][p.h_class.name] += 1
    assert counts[1] == {"H1": 4, "H2": 0, "H3": 0}
    assert counts[2] == {"H1": 8, "H2": 0, "H3": 8}
    assert counts[3] == {"H1": 4, "H2": 24, "H3": 36}
    assert counts[4] == {"H1": 16, "H2": 128, "H3": 112}


def test_partition_longform_exactly_one():
    for n, profs in PROFILES.items():
        for p in profs:
            flags = h_longform_flags(p)
            assert sum(flags) == 1, (n, p.exponent, flags)
            assert flags[p.case_id - 1]


def test_class_one_second_iterate_in_base_field():
    for n, profs in PROFILES.items():
        for p in profs:
            if p.h_class is HClass.H1:
                s2 = p.steps[2]
                assert s2.subfield == n
                assert s2.point != TOWERS[n].double.q


def test_order_splits_as_coprime_parts():
    for n, profs in PROFILES.items():
        q = TOWERS[n].q
        for p in profs:
            for s in p.steps:
                assert s.d_part == math.gcd(s.order, q + 1)
                assert s.e_part == math.gcd(s.order, q - 1)
                if (q * q - 1) % s.order == 0:
                    assert s.d_part * s.e_part == s.order


def test_classify_rejects_bad_seeds():
    # seeds are named by exponent: 0 and q^2+1 both name the seed 1
    walk = WALKS[2]
    tail = profile_tail(walk, 1)
    for j in (0, 17, -1, 18):
        with pytest.raises(FieldError):
            classify_H(walk, j, tail)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_seed_row_closed_form(n):
    # order (q^2+1)/gcd(j, q^2+1), trivial split, subfield 4n and
    # Tr_4n(g) = Tr_4n(1/g) = Tr_2n(f(g)), against the ambient kernel
    tw = TOWERS[n]
    ambient, q = tw.ambient, tw.q
    for j, p in enumerate(PROFILES[n], 1):
        s = p.steps[0]
        g = s.point
        assert p.exponent == j and g == WALKS[n].pull.powers[j]
        assert s.order == ambient.order(g)
        assert (s.d_part, s.e_part) == (
            math.gcd(s.order, q + 1), math.gcd(s.order, q - 1)) == (1, 1)
        d = ambient.degree(g)
        assert s.subfield == next(k for k in (n, 2 * n, 4 * n) if k % d == 0)
        assert s.subfield == 4 * n
        assert (s.tr, s.tr_inv) == (ambient.trace(g),
                                    ambient.trace(ambient.inv(g)))


@pytest.mark.parametrize("tower", [
    *(make_tower(n) for n in range(1, 6)),
    *(dataclasses.replace(make_tower(n), ambient=amb)
      for n, amb, _ in NON_DEFAULT),
], ids=[f"n{n}" for n in range(1, 6)] + [
    f"n{n}-{field_to_record(amb).split()[1]}" for n, amb, _ in NON_DEFAULT])
def test_profiles_match_the_ambient_oracle(tower):
    # the reduction first, so that the ambient builds no table before it;
    # both the mate-pair profiles and the orbit records, labels included
    records = orders_report(tower)["profiles"]
    walk = seed_walk(tower)
    profiles = seed_profiles(walk)
    assert len(profiles) == len(records) == tower.q ** 2
    for p, rec in zip(profiles, records):
        want = _ambient_profile(tower, p.steps[0].point)
        labels = [seed_label(walk, p.exponent),
                  *(label(walk, s.point) for s in p.steps[1:])]
        got = [(i, lab, s.order, s.d_part, s.e_part, s.subfield, s.tr,
                s.tr_inv)
               for i, lab, s in zip(_ambient_indices(walk, p), labels,
                                    p.steps)]
        assert got == want, p.exponent
        assert [tuple(step.values()) for step in rec["steps"]] == [
            (s.index, *row[1:]) for s, row in zip(p.steps, want)], p.exponent


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_seed_orbits_are_the_coset_leaders(n):
    # the orbits of j -> 2j mod q^2+1 partition the seeds; each starts at
    # its least member, a cyclotomic-coset leader modulo 2^(4n)-1 once
    # multiplied by q^2-1, holds the mate of each member, and has a size
    # dividing 4n
    tower = TOWERS[n] if n in TOWERS else make_tower(n)
    big = tower.q ** 2 + 1
    orbits = seed_orbits(tower)
    assert [o[0] for o in orbits] == [
        j for j in range(1, big) if _coset_leader(j * (big - 2), 4 * n)]
    assert sorted(j for o in orbits for j in o) == list(range(1, big))
    for o in orbits:
        assert o == [o[0] * pow(2, k, big) % big for k in range(len(o))]
        assert o[0] == min(o) and (4 * n) % len(o) == 0
        assert all(big - j in o for j in o)


REPORT_TOWERS = [
    *((f"n{n}", lambda n=n: make_tower(n)) for n in range(1, 7)),
    *((f"n{n}-{field_to_record(amb).split()[1]}",
       lambda n=n, amb=amb: dataclasses.replace(make_tower(n), ambient=amb))
      for n, amb, _ in NON_DEFAULT),
]


@pytest.mark.parametrize("make", [m for _, m in REPORT_TOWERS],
                         ids=[i for i, _ in REPORT_TOWERS])
def test_orbit_report_matches_the_mate_pair_oracle(make):
    # every verdict, every set-check record and the json bytes; the text
    # report is the same without the records
    doc = orders_report(make())
    want = mate_pair_report(make())
    assert doc == want
    assert json_text(doc) == json_text(want)
    del want["profiles"]
    assert orders_report(make(), records=False) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_conjugates_stand_for_the_other_seeds(n):
    # the points of every seed at each index are closed under conjugation,
    # and are the leaders' points with their conjugates
    tower = TOWERS[n]
    orbits = seed_orbits(tower)
    leaders = leader_profiles(WALKS[n], orbits)
    for i in range(1, tower.l + 5):
        points = {p.steps[i].point for p in PROFILES[n]}
        assert _conjugates(tower.double, points) == points
        assert _conjugates(tower.double,
                           (p.steps[i].point for p in leaders)) == points
    # and each seed's rows and class are its leader's
    for p, lead in zip(PROFILES[n], member_profiles(orbits, leaders)):
        assert [dataclasses.astuple(s)[2:] for s in p.steps] == [
            dataclasses.astuple(s)[2:] for s in lead.steps]
        assert (p.h_class, p.case_id) == (lead.h_class, lead.case_id)


@pytest.mark.parametrize("n", [2, 3])
def test_seed_pairs_share_one_tail(monkeypatch, n):
    # one tail per Frobenius orbit, at its leader; each orbit holds the
    # mates j and q^2+1-j, and every member's record carries its leader's
    # rows with a seed of its own
    tails = []
    true_tail = order_dynamics.profile_tail
    monkeypatch.setattr(order_dynamics, "profile_tail",
                        lambda walk, j: tails.append(j) or true_tail(walk, j))
    records = orders_report(TOWERS[n])["profiles"]
    big = TOWERS[n].q ** 2 + 1
    orbits = seed_orbits(TOWERS[n])
    assert tails == [o[0] for o in orbits] == sorted(set(tails))
    for orbit in orbits:
        lead = records[orbit[0] - 1]["steps"]
        for j in orbit:
            assert big - j in orbit
            mine = records[j - 1]["steps"]
            assert (mine[0]["point"] != lead[0]["point"]) == (j != orbit[0])
            assert all(dict(a, point=0) == dict(b, point=0)
                       for a, b in zip(mine, lead))


SEED_CHECKS = ("h-partition", "case-tables", "forced-traces",
               "case1-subcases", "order-bound")


def _per_seed_records(tower, profiles):
    """The per-seed check records with every seed checked on its own: the
    oracle for the once-per-pair evaluation in ``orders_report``."""
    out = {name: [] for name in SEED_CHECKS}
    for exp, prof in enumerate(profiles, 1):
        flags = h_longform_flags(prof)
        if sum(flags) != 1 or not flags[prof.case_id - 1]:
            out["h-partition"].append(exp)
        if not case_table(prof).passed:
            out["case-tables"].append(exp)
        if not trace_profile_check(prof).passed:
            out["forced-traces"].append(exp)
        if (prof.case_id == 1 and tower.l >= 1
                and not case1_subcase(tower, prof).passed):
            out["case1-subcases"].append(exp)
        if prof.case_id != 1 and not check_order_bound(tower, prof).passed:
            out["order-bound"].append(exp)
    return [{"name": name, "pass": not bad,
             "detail": "" if not bad else f"failing seed exponents {bad[:5]}"}
            for name, bad in out.items()]


def _seed_records(tower):
    return [c for c in orders_report(tower)["checks"]
            if c["name"] in SEED_CHECKS]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pair_verdicts_match_per_seed_evaluation(n):
    tower = TOWERS[n] if n in TOWERS else make_tower(n)
    profiles = PROFILES[n] if n in PROFILES else seed_profiles(seed_walk(tower))
    want = _per_seed_records(tower, profiles)
    assert all(r["pass"] for r in want)
    assert _seed_records(tower) == want


def test_pair_verdicts_under_broken_pairs(monkeypatch):
    # a wrong trace at index 2 of the leaders 3 and 5 (n = 3, q^2+1 = 65):
    # all 24 members of their orbits, the mates 62 and 60 among them, fail
    # under their own exponents, ascending, as seed-by-seed evaluation and
    # the mate pairs find
    tower = make_tower(3)
    true_leaders = order_dynamics.leader_profiles

    def broken(walk, orbits):
        profiles = true_leaders(walk, orbits)
        for prof in profiles:
            if prof.exponent in (3, 5):
                prof.steps[2].tr ^= 1
        return profiles

    monkeypatch.setattr(order_dynamics, "leader_profiles", broken)
    orbits = seed_orbits(tower)
    profiles = member_profiles(orbits, broken(seed_walk(tower), orbits))
    for j in (3, 5, 60, 62):
        assert profiles[j - 1].steps[2].tr != PROFILES[3][j - 1].steps[2].tr
    failing = sorted(j for o in orbits if o[0] in (3, 5) for j in o)
    assert len(failing) == 24 and failing[:5] == [3, 5, 6, 10, 12]
    got = _seed_records(tower)
    assert got == _per_seed_records(tower, profiles)
    assert got == pair_verdict_records(tower, profiles)
    assert {"name": "case-tables", "pass": False,
            "detail": "failing seed exponents [3, 5, 6, 10, 12]"} in got
    per_seed = {j for j, p in enumerate(profiles, 1) if not case_table(p).passed}
    assert per_seed == set(failing)


def test_orders_report_builds_no_ambient_table(monkeypatch):
    tabled = set()
    true_ensure = FieldSpec.ensure_tables

    def recording(self):
        tabled.add(self.t)
        true_ensure(self)

    monkeypatch.setattr(FieldSpec, "ensure_tables", recording)
    tw = make_tower(5)
    assert orders_report(tw)["counts"] == {"H1": 44, "H2": 40, "H3": 940}
    assert 10 in tabled and 20 not in tabled


# ---------------------------------------------------------------------------
# forced trace rows and case tables


def test_forced_trace_rows_all_profiles():
    for profs in PROFILES.values():
        for p in profs:
            rep = trace_profile_check(p)
            assert rep.passed, str(rep)


def test_case_tables_all_profiles():
    for profs in PROFILES.values():
        for p in profs:
            tab = case_table(p)
            assert tab.case_id == p.case_id
            assert tab.passed, tab.render()


def test_case_three_flavors():
    flavors = {case_table(p).flavor for p in PROFILES[2] if p.case_id == 3}
    assert flavors == {"B"}                   # no deep class-3 seeds at n=2
    assert all(case_table(p).flavor == "A"
               for p in PROFILES[2] if p.case_id in (1, 2))


@pytest.mark.parametrize("case_id, flavor",
                         [(c, f) for c in (1, 2, 3) for f in ("A", "B")])
def test_expected_rows_cover_indices_0_to_l_plus_4(case_id, flavor):
    for l in range(4):
        assert len(_expected_rows(case_id, flavor, 3, l)) == l + 5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_case_table_levels_match_graph(n):
    g = build_graph(TOWERS[n].ambient)
    for p in PROFILES[n]:
        for row, idx in zip(case_table(p).rows, _ambient_indices(WALKS[n], p)):
            assert g.level[idx] == row.level, (n, p.exponent, row.index)


def test_special_point_before_l_plus_3_is_a_mismatch():
    # a special point at index 3 = l+2 of a class-1 profile (n=2) carries
    # order 1, subfield n and traces (0, 0), all of which its row accepts
    tw = TOWERS[2]
    p = next(p for p in PROFILES[2] if p.case_id == 1)
    steps = list(p.steps)
    steps[3] = dataclasses.replace(
        steps[3], point=0, order=1, d_part=1,
        e_part=1, subfield=tw.n, tr=0, tr_inv=0)
    tab = case_table(dataclasses.replace(p, steps=steps))
    assert [r.index for r in tab.rows if not r.ok] == [3]


def test_case_table_render_shape():
    tab = case_table(PROFILES[2][0])
    text = tab.render()
    assert "level" in text and "trace" in text
    assert len(text.splitlines()) == len(tab.rows) + 2
    assert "MISMATCH" not in text


# ---------------------------------------------------------------------------
# sub-cases of Case 1


def test_case1_subcase_partition():
    tw = TOWERS[2]
    qt = 1 << (tw.n // 2)
    seen = set()
    for p in PROFILES[2]:
        if p.case_id != 1:
            continue
        rep = case1_subcase(tw, p)
        assert rep.passed, str(rep)
        seen.add(rep.subcase)
        if rep.subcase == 2:
            for i in range(3, tw.l + 5):
                assert (qt - 1) % p.steps[i].order == 0
    assert seen <= {1, 2} and seen


def test_case1_subcase_preconditions():
    with pytest.raises(FieldError):
        case1_subcase(TOWERS[1], PROFILES[1][0])         # l = 0
    h3 = next(p for p in PROFILES[2] if p.case_id == 3)
    with pytest.raises(FieldError):
        case1_subcase(TOWERS[2], h3)


def test_case1_subcase_forced_at_small_sizes():
    # at n=2, d_2 divides q-1 = 3 = sqrt(q)+1, so sub-case 2 is forced;
    # empirically the class-1 second iterates at n=4 all have order
    # dividing 5 = sqrt(q)+1 as well (sub-case 1 first fires at n=6)
    for n in (2, 4):
        tw = TOWERS[n]
        subcases = {case1_subcase(tw, p).subcase
                    for p in PROFILES[n] if p.case_id == 1}
        assert subcases == {2}


# ---------------------------------------------------------------------------
# set-level facts


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cq1_inclusion(n):
    rep = verify_cq1_inclusion(TOWERS[n], PROFILES[n])
    assert rep.passed, str(rep)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadrants(n):
    rep = trace_quadrants(TOWERS[n], PROFILES[n])
    assert rep.passed, str(rep.checks)
    total = len(rep.a11) + len(rep.a00) + len(rep.b01) + len(rep.b10)
    assert total == (1 << n) - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_theta_permutation(n):
    rep = verify_theta_permutation(TOWERS[n], PROFILES[n])
    assert rep.passed, str(rep)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_profile_walk_is_the_map(n):
    # the iterates, carried into the ambient, follow the map there
    ambient = TOWERS[n].ambient
    for p in PROFILES[n]:
        idx = _ambient_indices(WALKS[n], p)
        assert idx[0] == WALKS[n].pull.powers[p.exponent]
        for a, b in zip(idx, idx[1:]):
            assert b == theta_index(ambient, a)


@pytest.mark.parametrize("n", [2, 3])
def test_orders_report_enumerates_subgroup_once(monkeypatch, n):
    true_subgroup = FieldSpec.subgroup
    ks = []

    def recording(self, k):
        ks.append(k)
        return true_subgroup(self, k)

    monkeypatch.setattr(FieldSpec, "subgroup", recording)
    tw = make_tower(n)
    rep = orders_report(tw)
    assert ks.count(tw.q ** 2 + 1) == 1
    assert all(c["pass"] for c in rep["checks"])


def _with_step(profile, i, point):
    """A copy of the profile whose step i is moved to another point."""
    steps = list(profile.steps)
    steps[i] = dataclasses.replace(steps[i], point=point)
    return dataclasses.replace(profile, steps=steps)


def _failures(rep):
    return [c.name for c in rep.failures()]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cq1_fault_is_a_record(n):
    # every iterate that lands on one element of C_(q+1), or on one of its
    # conjugates, moved to 0: the set check reads each point with its
    # conjugates
    tw = TOWERS[n]
    l = tw.l
    target = tw.double.pow(tw.double.gen, tw.q - 1)
    conjugates = _conjugates(tw.double, [target])
    assert len(conjugates) > 1
    profs = PROFILES[n]
    for i in (1, l + 2):
        profs = [_with_step(p, i, 0)
                 if p.steps[i].point in conjugates else p for p in profs]
    assert _failures(verify_cq1_inclusion(tw, profs)) == [
        "cq1-image-inclusion"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cq1_level_orders_judge_each_vertex_once(monkeypatch, n):
    # the greatest level mate of the last element of C_(q+1) reports order
    # q-1, which does not divide q+1: the witness is the first element of
    # C_(q+1) in that (component, level) class, and no vertex is asked twice
    tw = TOWERS[n]
    double, q = tw.double, tw.q
    g = build_graph(double)
    cq1 = double.powers(double.pow(double.gen, q - 1), q)[1:]

    def key(v):
        return g.comp_id[v], g.level[v]

    bad = max(u for u in range(double.q) if key(u) == key(cq1[-1]))
    witness = next(v for v in cq1 if key(v) == key(bad))
    asked = []
    true_order = FieldSpec.order

    def order(self, a):
        if self.t == double.t:
            asked.append(a)
            if a == bad:
                return q - 1
        return true_order(self, a)

    monkeypatch.setattr(FieldSpec, "order", order)
    rep = verify_cq1_inclusion(tw, PROFILES[n])
    assert [(c.name, c.detail) for c in rep.failures()] == [
        ("cq1-level-orders",
         f"level mate of {witness:#x} has order not dividing q+1")]
    assert bad in asked and len(asked) == len(set(asked))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadrant_fault_is_a_record(n):
    # the first class-1 seed's index-2 iterate moved back to index 1,
    # which lies in C_(q+1) and not in GF(q)
    tw = TOWERS[n]
    k = next(k for k, p in enumerate(PROFILES[n]) if p.case_id == 1)
    profs = list(PROFILES[n])
    profs[k] = _with_step(profs[k], 2, profs[k].steps[1].point)
    rep = trace_quadrants(tw, profs)
    assert _failures(rep.checks) == ["a11-image"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permutation_fault_is_a_record(n):
    # one seed's landing point replaced by an iterate x of a deep tree at
    # an index up to l+2, on level 2 or more, so neither x nor its image is
    # periodic; the set check reads x with its conjugates, so x is one with
    # as many conjugates as its image, and the map stays one-to-one
    tw = TOWERS[n]
    profs = list(PROFILES[n])

    def conjugates(p, i):
        return len(_conjugates(tw.double, [p.steps[i].point]))

    k, i = next((k, i) for k, p in enumerate(profs)
                if case_table(p).flavor == "A"
                for i in range(1, tw.l + 3)
                if conjugates(p, i) == conjugates(p, i + 1))
    profs[k] = _with_step(profs[k], tw.l + 4, profs[k].steps[i].point)
    rep = verify_theta_permutation(tw, profs)
    assert _failures(rep) == ["landing-set-closed"]


def test_permutation_landing_set_n1_is_infinity():
    tw = TOWERS[1]
    landing = {p.steps[tw.l + 4].point for p in PROFILES[1]}
    assert landing == {tw.double.q}


# ---------------------------------------------------------------------------
# order lower bound


def test_order_bound_parameters():
    assert TOWERS[2].base.fact_plus.least_prime() == 5
    assert TOWERS[2].base.fact_minus.least_prime() == 3
    assert TOWERS[3].base.fact_plus.least_prime() == 3
    assert TOWERS[3].base.fact_minus.least_prime() == 7


@pytest.mark.parametrize("n", [2, 3, 4])
def test_order_bound_holds(n):
    tw = TOWERS[n]
    bound = tw.base.fact_plus.least_prime() * tw.base.fact_minus.least_prime()
    count = 0
    for p in PROFILES[n]:
        if p.case_id == 1:
            continue
        rep = check_order_bound(tw, p)
        assert rep.passed, str(rep)
        for i in range(1, tw.l + 2):
            assert p.steps[i].order >= bound
        count += 1
    assert count > 0


def test_order_bound_vacuous_at_n1():
    rep = check_order_bound(TOWERS[1], PROFILES[1][0])
    assert rep.passed
    assert "vacuous" in rep.checks[0].detail


def test_order_bound_rejects_class_one_seed():
    p1 = next(p for p in PROFILES[2] if p.case_id == 1)
    with pytest.raises(FieldError):
        check_order_bound(TOWERS[2], p1)


def test_least_prime_congruence():
    for n in range(1, 7):
        l = (n & -n).bit_length() - 1
        p1 = factorize(2 ** n + 1).least_prime()
        assert p1 >= 1 + (1 << (l + 1))


# ---------------------------------------------------------------------------
# embeddings


def test_embedding_preserves_structure():
    amb = TOWERS[3].ambient                       # GF(2^12)
    # GF(2) also modulo x, whose root 0 is no power of a unit
    for sub in (make_field(1, 0b10), *(make_field(d) for d in (1, 2, 3, 6))):
        d = sub.t
        emb = subfield_embedding(sub, amb)
        assert emb[0] == 0 and emb[1] == 1
        for a in range(sub.q):
            for b in range(sub.q):
                assert emb[a ^ b] == emb[a] ^ emb[b]
                assert emb[sub.mul(a, b)] == amb.mul(emb[a], emb[b])
        for a in range(1, sub.q):
            assert amb.subfield_trace(emb[a], d) == sub.trace(a)


def test_embedding_conway_fast_path():
    amb = make_field(8)
    sub = make_field(2)
    ghat = amb.pow(amb.gen, (amb.q - 1) // 3)
    assert subfield_embedding(sub, amb)[sub.gen] == ghat


def test_embedding_rejects_non_subfield():
    with pytest.raises(FieldError):
        subfield_embedding(make_field(3), make_field(8))


# ---------------------------------------------------------------------------
# the aggregate report


def test_orders_report_schema_and_determinism():
    rep = orders_report(TOWERS[2])
    assert set(rep) == {"n", "l", "m", "q", "field", "counts", "profiles",
                        "checks"}
    assert rep["field"].startswith("t=8 modulus=11d")
    assert rep["counts"] == {"H1": 8, "H2": 0, "H3": 8}
    assert [p["exponent"] for p in rep["profiles"]] == list(range(1, 17))
    assert all(c["pass"] for c in rep["checks"])
    steps = rep["profiles"][0]["steps"]
    assert len(steps) == TOWERS[2].l + 5
    assert set(steps[0]) == {"index", "point", "order", "d_part", "e_part",
                             "subfield", "tr", "tr_inv"}
    assert rep == orders_report(make_tower(2))


@pytest.mark.parametrize("n, ambient, counts", NON_DEFAULT)
def test_orders_report_non_default_ambient(n, ambient, counts):
    # the theorems do not depend on the modulus: every check passes, and the
    # class counts are those of the default tower
    tw = dataclasses.replace(make_tower(n), ambient=ambient)
    rep = orders_report(tw)
    assert rep["field"] == field_to_record(ambient)
    assert rep["counts"] == counts
    assert [c["name"] for c in rep["checks"] if not c["pass"]] == []
