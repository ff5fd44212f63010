"""Classification of the order-(q^2+1) subgroup and the set-level facts."""

import functools
import itertools
import math
import pickle
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import graph_oracle
from field_oracle import field_from_record, in_subfield, subfield_trace
from orders_oracle import (
    ambient_point,
    ambient_walk,
    label,
    mate_pair_report,
    member_profiles,
    pair_verdict_records,
    profile_set_inputs,
    seed_label,
    seed_profiles,
)
from thetamap import order_dynamics
from thetamap.gf2_arith import (
    FieldError,
    FieldSpec,
    _coset_leader,
    doubling_orbits,
    factorize,
    field_to_record,
    is_irreducible,
    make_field,
    preimage,
    span_table,
    subfield_embedding,
)
from thetamap.order_dynamics import (
    HClass,
    _expected_rows,
    case1_subcase,
    case_table,
    check_order_bound,
    classify_H,
    h_longform_flags,
    make_tower,
    orders_report,
    profile_tail,
    seed_walk,
    set_checks,
    trace_profile_check,
    trace_quadrants,
    verify_cq1_inclusion,
    verify_theta_permutation,
)
from thetamap.orbit_records import ProfileRecords
from thetamap.report import CheckReport, json_pieces
from thetamap.theta_graph import build_graph, point_label, theta_index

TOWERS = {n: make_tower(n) for n in (1, 2, 3, 4)}
WALKS = {n: seed_walk(tw) for n, tw in TOWERS.items()}
AMBIENT = {n: ambient_walk(walk) for n, walk in WALKS.items()}
PROFILES = {n: seed_profiles(walk) for n, walk in WALKS.items()}

# Towers whose ambient is not the default field: the double is still the
# default GF(2^(2n)), so the embedding between them is no Conway shortcut.
NON_DEFAULT = [
    (2, field_from_record("t=8 modulus=11b generator=3"),
     {"H1": 8, "H2": 0, "H3": 8}),
    (3, make_field(12, 0x1009), {"H1": 4, "H2": 24, "H3": 36}),
]


def _ambient_indices(amb, profile):
    """The profile's points as ambient indices (infinity is ambient.q): the
    seed h^j from the oracle's ambient walk, the iterates by the embedding."""
    return [amb.seeds[profile.exponent],
            *(ambient_point(amb, s.point) for s in profile.steps[1:])]


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
    # ambient for the seed h^j, in GF(q^2) after it
    tw = TOWERS[n]
    for p in PROFILES[n]:
        for s in p.steps:
            f, a = ((tw.double, s.point) if s.index
                    else (tw.ambient, AMBIENT[n].seeds[p.exponent]))
            if 0 < a < f.q:
                want = next(d for d in (n, 2 * n, 4 * n)
                            if f.t % d == 0 and in_subfield(f, a, d))
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
            assert flags[p.h_class.value - 1]


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
    # point j, order (q^2+1)/gcd(j, q^2+1), trivial split, subfield 4n and
    # Tr_4n(g) = Tr_4n(1/g) = Tr_2n(f(g)), against the ambient kernel at
    # the seed g = h^j of the oracle's ambient walk
    tw = TOWERS[n]
    ambient, q = tw.ambient, tw.q
    for j, p in enumerate(PROFILES[n], 1):
        s = p.steps[0]
        g = AMBIENT[n].seeds[j]
        assert p.exponent == s.point == j
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
    *(make_tower(n)._replace(ambient=amb)
      for n, amb, _ in NON_DEFAULT),
], ids=[f"n{n}" for n in range(1, 6)] + [
    f"n{n}-{field_to_record(amb).split()[1]}" for n, amb, _ in NON_DEFAULT])
def test_profiles_match_the_ambient_oracle(tower):
    # the reduction first, so that the ambient builds no table before it;
    # both the mate-pair profiles and the orbit records, labels included
    records = orders_report(tower)["profiles"]
    walk = seed_walk(tower)
    amb = ambient_walk(walk)
    profiles = seed_profiles(walk)
    assert len(profiles) == len(records) == tower.q ** 2
    for p, rec in zip(profiles, records):
        want = _ambient_profile(tower, amb.seeds[p.exponent])
        labels = [seed_label(amb, p.exponent),
                  *(label(amb, s.point) for s in p.steps[1:])]
        got = [(i, lab, s.order, s.d_part, s.e_part, s.subfield, s.tr,
                s.tr_inv)
               for i, lab, s in zip(_ambient_indices(amb, p), labels,
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
    orbits = list(doubling_orbits(big))
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
       lambda n=n, amb=amb: make_tower(n)._replace(ambient=amb))
      for n, amb, _ in NON_DEFAULT),
]


@functools.cache
def _reports(i: int) -> tuple[dict, dict]:
    """``orders_report`` of ``REPORT_TOWERS[i]`` and the mate-pair oracle's
    report of it, with one dict per seed; neither may be changed."""
    make = REPORT_TOWERS[i][1]
    return orders_report(make()), mate_pair_report(make())


@pytest.mark.parametrize("i", range(len(REPORT_TOWERS)),
                         ids=[i for i, _ in REPORT_TOWERS])
def test_orbit_report_matches_the_mate_pair_oracle(i):
    # every verdict, every set-check record and the json bytes; the text
    # report is the same without the records
    doc, want = _reports(i)
    assert doc == want
    assert "".join(json_pieces(doc)) == "".join(json_pieces(want))
    assert orders_report(REPORT_TOWERS[i][1](), records=False) == {
        key: value for key, value in want.items() if key != "profiles"}


@pytest.mark.parametrize("i", range(len(REPORT_TOWERS)),
                         ids=[i for i, _ in REPORT_TOWERS])
def test_orbit_records_are_the_oracles_dicts(i):
    # one record rendered per orbit, each member's exponent and labels
    # filled in: the oracle's bytes at depth 1 (depth 2 is the document's,
    # above; n = 6 is the first with hex labels), its dict at every index,
    # and the same records after a pickle round trip
    records, dicts = (doc["profiles"] for doc in _reports(i))
    assert isinstance(records, ProfileRecords)
    assert len(records) == len(dicts)
    for j, rec in enumerate(dicts, 1):
        assert records[j - 1] == rec
    assert records[-1] == dicts[-1]
    with pytest.raises(IndexError):
        records[len(dicts)]
    assert records == dicts and dicts == records
    assert "".join(json_pieces(records)) == "".join(json_pieces(dicts))
    back = pickle.loads(pickle.dumps(records))
    assert back == dicts
    assert "".join(json_pieces(back)) == "".join(json_pieces(dicts))


@pytest.mark.parametrize("n", [5, 6])
def test_orbit_records_pickle_small(n):
    # what a pool worker sends back: per-orbit data, not a dict per seed
    records = _reports(n - 1)[0]["profiles"]
    assert REPORT_TOWERS[n - 1][0] == f"n{n}"
    assert len(pickle.dumps(records)) * 5 < len(pickle.dumps(list(records)))


def test_a_range_document_renders_its_records_at_depth_three():
    # verify-orders --range writes a list of documents: the records sit at
    # depth 3, with decimal labels at n = 5 and hex labels at n = 6
    docs, want = zip(*(_reports(n - 1) for n in (5, 6)))
    assert ("".join(json_pieces(list(docs)))
            == "".join(json_pieces(list(want))))


def test_a_label_fault_leaves_no_records(monkeypatch):
    # k0's preimage fails (the embedded generator of GF(q^2) skewed off
    # the subfield in GF(2^8), in the basis the seed walk got from
    # theta_graph's norm-one Dickson helper, while f(h) still pulls back),
    # which only the labels read: the json document carries the fault and
    # an empty list of records
    tower = make_tower(2)
    gen = tower.double.gen
    mask = graph_oracle.parity_mask(
        4, ones=[gen], zeros=[seed_walk(tower).values[1]])
    graph_oracle.skewed_embedding(4, 8, mask, tower.ambient.gen)(
        monkeypatch.setattr)
    assert all(c["pass"] for c in orders_report(tower, False)["checks"])
    doc = orders_report(tower)
    assert doc["profiles"] == []
    assert [(c["name"], c["detail"][:8]) for c in doc["checks"]] == [
        ("first-iterate-pullback", "gen^17: ")]
    assert '\n  "profiles": [],\n' in "".join(json_pieces(doc))


def _set_check_inputs(monkeypatch, walk) -> dict[str, tuple]:
    """The arguments ``set_checks`` gives each of the three set checks."""
    got = {}
    for name in ("verify_cq1_inclusion", "trace_quadrants",
                 "verify_theta_permutation"):
        def recording(*args, name=name, check=getattr(order_dynamics, name)):
            got[name] = args
            return check(*args)

        monkeypatch.setattr(order_dynamics, name, recording)
    assert set_checks(walk).passed
    return got


@pytest.mark.parametrize("tower", [
    *(make_tower(n) for n in range(1, 7)),
    *(make_tower(n)._replace(ambient=amb)
      for n, amb, _ in NON_DEFAULT),
], ids=[f"{n}" for n in range(1, 7)] + [
    f"{n}-{field_to_record(amb).split()[1]}" for n, amb, _ in NON_DEFAULT])
def test_image_sets_are_every_seeds_points(monkeypatch, tower):
    # S_1, S_(l+2) and S_(l+4), read through the graph, are the points of
    # every seed's profile at indices 1, l+2 and l+4, and f(S_(l+4)) is
    # the kernel's map on each landing point
    l = tower.l
    walk = seed_walk(tower)
    profiles = seed_profiles(walk)
    got = _set_check_inputs(monkeypatch, walk)
    _, cq1, s1, s_l2, _ = got["verify_cq1_inclusion"]
    _, landing, image = got["verify_theta_permutation"]
    assert cq1 == tower.double.subgroup(tower.q + 1)[:-1]
    assert s1 == {p.steps[1].point for p in profiles}
    assert s_l2 == {p.steps[l + 2].point for p in profiles}
    assert landing == {p.steps[l + 4].point for p in profiles}
    assert image == {theta_index(tower.double, x) for x in landing}
    # and each seed's rows and class are its leader's
    orbits = list(doubling_orbits(tower.q ** 2 + 1))
    leaders = [classify_H(walk, o[0], profile_tail(walk, o[0]))
               for o in orbits]
    for p, lead in zip(profiles, member_profiles(orbits, leaders)):
        assert [tuple(s)[2:] for s in p.steps] == [
            tuple(s)[2:] for s in lead.steps]
        assert p.h_class == lead.h_class


@pytest.mark.parametrize("records", [False, True])
def test_orders_report_builds_one_graph(monkeypatch, records):
    built = []
    _patch_graph(monkeypatch, built.append)
    assert all(c["pass"] for c in orders_report(TOWERS[3], records)["checks"])
    assert [g.field.t for g in built] == [6]


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
    orbits = list(doubling_orbits(big))
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
        if sum(flags) != 1 or not flags[prof.h_class.value - 1]:
            out["h-partition"].append(exp)
        if not case_table(prof):
            out["case-tables"].append(exp)
        if not trace_profile_check(prof):
            out["forced-traces"].append(exp)
        case1 = prof.h_class is HClass.H1
        if case1 and tower.l >= 1 and not case1_subcase(prof)[1]:
            out["case1-subcases"].append(exp)
        if not case1 and not check_order_bound(prof):
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
    true_classify = order_dynamics.classify_H

    def broken(walk, j, tail):
        prof = true_classify(walk, j, tail)
        if j in (3, 5):
            prof.steps[2] = prof.steps[2]._replace(tr=prof.steps[2].tr ^ 1)
        return prof

    monkeypatch.setattr(order_dynamics, "classify_H", broken)
    walk = seed_walk(tower)
    orbits = list(doubling_orbits(tower.q ** 2 + 1))
    profiles = member_profiles(orbits, [
        broken(walk, o[0], profile_tail(walk, o[0])) for o in orbits])
    for j in (3, 5, 60, 62):
        assert profiles[j - 1].steps[2].tr != PROFILES[3][j - 1].steps[2].tr
    failing = sorted(j for o in orbits if o[0] in (3, 5) for j in o)
    assert len(failing) == 24 and failing[:5] == [3, 5, 6, 10, 12]
    got = _seed_records(tower)
    assert got == _per_seed_records(tower, profiles)
    assert got == pair_verdict_records(tower, profiles)
    assert {"name": "case-tables", "pass": False,
            "detail": "failing seed exponents [3, 5, 6, 10, 12]"} in got
    per_seed = {j for j, p in enumerate(profiles, 1) if not case_table(p)}
    assert per_seed == set(failing)


@pytest.mark.parametrize("n", [4, 6])
def test_every_check_record_is_a_printed_one(monkeypatch, n):
    # the per-seed checks return verdicts, so each record the report adds
    # is one of the records it returns
    added = []
    true_add = CheckReport.add

    def counting(self, name, *args):
        added.append(name)
        return true_add(self, name, *args)

    monkeypatch.setattr(CheckReport, "add", counting)
    doc = orders_report(make_tower(n), False)
    assert sorted(added) == sorted(c["name"] for c in doc["checks"])


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
            assert trace_profile_check(p), p


def test_case_tables_all_profiles():
    for profs in PROFILES.values():
        for p in profs:
            assert case_table(p), p


def _flavor(p):
    """The middle-graph class of the first iterate, as ``case_table``
    reads it: "B" when its traces differ."""
    return "B" if p.steps[1].tr != p.steps[1].tr_inv else "A"


def test_case_three_flavors():
    flavors = {_flavor(p) for p in PROFILES[2] if p.h_class.value == 3}
    assert flavors == {"B"}                   # no deep class-3 seeds at n=2
    assert all(_flavor(p) == "A"
               for p in PROFILES[2] if p.h_class.value in (1, 2))


@pytest.mark.parametrize("case_id, flavor",
                         [(c, f) for c in (1, 2, 3) for f in ("A", "B")])
def test_expected_rows_cover_indices_0_to_l_plus_4(case_id, flavor):
    for l in range(4):
        assert len(_expected_rows(case_id, flavor, 3, l)) == l + 5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_case_table_levels_match_graph(n):
    g = build_graph(TOWERS[n].ambient)
    for p in PROFILES[n]:
        rows = _expected_rows(p.h_class.value, _flavor(p), n, TOWERS[n].l)
        for i, ((level, *_), idx) in enumerate(
                zip(rows, _ambient_indices(AMBIENT[n], p))):
            assert g.level[idx] == level, (n, p.exponent, i)


def _with_special_point(index):
    """A class-1 profile (n=2, l=1) with the special point 0 at ``index``:
    order 1, subfield n and traces (0, 0), all of which the class-1 rows at
    indices 3..l+4 accept."""
    tw = TOWERS[2]
    p = next(p for p in PROFILES[2] if p.h_class.value == 1)
    assert case_table(p)
    steps = list(p.steps)
    steps[index] = steps[index]._replace(
        point=0, order=1, d_part=1,
        e_part=1, subfield=tw.n, tr=0, tr_inv=0)
    return p._replace(steps=steps)


def test_special_point_before_l_plus_3_is_a_mismatch():
    # index 3 = l+2: a special point there fails the table, though its row
    # accepts the point's order, subfield and traces
    _, tag, subfield, pair = _expected_rows(1, "A", 2, TOWERS[2].l)[3]
    assert (tag, subfield, pair) == ("q-1", 2, (0, 0))
    assert not case_table(_with_special_point(3))


def test_special_point_from_l_plus_3_on_fits_its_row():
    # index 4 = l+3: the degenerate class-1 tail the table admits
    assert case_table(_with_special_point(TOWERS[2].l + 3))


# ---------------------------------------------------------------------------
# sub-cases of Case 1


def test_case1_subcase_partition():
    tw = TOWERS[2]
    qt = 1 << (tw.n // 2)
    seen = set()
    for p in PROFILES[2]:
        if p.h_class.value != 1:
            continue
        subcase, ok = case1_subcase(p)
        assert ok, p
        seen.add(subcase)
        if subcase == 2:
            for i in range(3, tw.l + 5):
                assert (qt - 1) % p.steps[i].order == 0
    assert seen <= {1, 2} and seen


def test_case1_subcase_preconditions():
    with pytest.raises(FieldError):
        case1_subcase(PROFILES[1][0])                    # l = 0
    h3 = next(p for p in PROFILES[2] if p.h_class.value == 3)
    with pytest.raises(FieldError):
        case1_subcase(h3)


def test_case1_subcase_forced_at_small_sizes():
    # at n=2, d_2 divides q-1 = 3 = sqrt(q)+1, so sub-case 2 is forced;
    # empirically the class-1 second iterates at n=4 all have order
    # dividing 5 = sqrt(q)+1 as well (sub-case 1 first fires at n=6)
    for n in (2, 4):
        subcases = {case1_subcase(p)[0]
                    for p in PROFILES[n] if p.h_class.value == 1}
        assert subcases == {2}


# ---------------------------------------------------------------------------
# set-level facts


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cq1_inclusion(n):
    rep = verify_cq1_inclusion(*profile_set_inputs(TOWERS[n], PROFILES[n])[0])
    assert rep.passed, rep.records()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_quadrants(n):
    rep = trace_quadrants(*profile_set_inputs(TOWERS[n], PROFILES[n])[1])
    assert rep.passed, rep.records()
    assert rep.checks[0].name == "quadrant-partition"
    # each image record's detail is "|by-trace|=<a> |by-image|=<b>"
    by_trace = [int(c.detail.split()[0].partition("=")[2])
                for c in rep.checks[1:]]
    assert len(by_trace) == 4 and sum(by_trace) == (1 << n) - 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_theta_permutation(n):
    rep = verify_theta_permutation(
        *profile_set_inputs(TOWERS[n], PROFILES[n])[2])
    assert rep.passed, rep.records()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_profile_walk_is_the_map(n):
    # the iterates, carried into the ambient, follow the map there from the
    # seed h^j of the oracle's ambient walk
    ambient = TOWERS[n].ambient
    for p in PROFILES[n]:
        idx = _ambient_indices(AMBIENT[n], p)
        assert p.steps[0].point == p.exponent
        for a, b in zip(idx, idx[1:]):
            assert b == theta_index(ambient, a)


@pytest.mark.parametrize("n", [2, 3, 5, 6])
def test_orders_report_enumerates_subgroup_once(monkeypatch, n):
    # the seeds are walked in the ambient only for the hex labels of json
    # output (n >= 6), once; text output and the other labels walk nothing
    # there, neither by subgroup nor by powers
    walked = []
    for name in ("subgroup", "powers"):
        true_walk = getattr(FieldSpec, name)

        def recording(self, *args, name=name, true_walk=true_walk):
            if self.t == 4 * n:
                walked.append((name, args[-1]))
            return true_walk(self, *args)

        monkeypatch.setattr(FieldSpec, name, recording)
    tw = make_tower(n)
    big = tw.q ** 2 + 1
    for records in (False, True):
        walked.clear()
        rep = orders_report(tw, records)
        assert all(c["pass"] for c in rep["checks"])
        assert walked == ([("subgroup", big), ("powers", big)]
                          if records and n >= 6 else []), records


@pytest.mark.parametrize("n, ambient", [
    *((n, None) for n in range(1, 9)),
    *((n, amb) for n, amb, _ in NON_DEFAULT),
], ids=[f"n{n}" for n in range(1, 9)] + [
    f"n{n}-{field_to_record(amb).split()[1]}" for n, amb, _ in NON_DEFAULT])
def test_recurrence_matches_the_ambient_pullback(n, ambient):
    # the first iterates D_j(f(h)) of the recurrence in GF(q^2), value by
    # value against the seeds walked in the ambient and pulled back through
    # the embedding, under Conway and non-default ambients
    tower = make_tower(n)
    if ambient is not None:
        tower = tower._replace(ambient=ambient)
    walk = seed_walk(tower)
    amb = ambient_walk(walk)
    big = tower.q ** 2 + 1
    assert walk.fault is None and amb.fault is None
    assert len(walk.values) == big + 1 and walk.values[big] == 0
    assert list(walk.values[:big]) == amb.values


def _patch_graph(monkeypatch, fault):
    """``build_graph`` of order_dynamics, calling ``fault`` on each graph
    it builds before returning it."""
    true_build = order_dynamics.build_graph

    def build_graph(spec):
        g = true_build(spec)
        fault(g)
        return g

    monkeypatch.setattr(order_dynamics, "build_graph", build_graph)


def _failures(tower):
    """The failed check records of ``orders_report``, as (name, detail)."""
    return [(c["name"], c["detail"])
            for c in orders_report(tower, records=False)["checks"]
            if not c["pass"]]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cq1_fault_is_a_record(monkeypatch, n):
    # every first iterate equal to one element c of A = C_(q+1) & S_1 moved
    # to 1/c = c^q, which is in A too and has the same image: only c goes
    # uncovered.  The profiles keep their rows, as c and c^q have the same
    # order and traces.
    tw, walk = TOWERS[n], WALKS[n]
    q = tw.q
    s1 = set(walk.values[1:q * q + 1])
    c = next(x for x in tw.double.subgroup(q + 1)[1:] if x in s1)
    inv = tw.double.inv(c)
    assert inv in s1 and inv != c
    values = [inv if x == c else x for x in walk.values]
    monkeypatch.setattr(order_dynamics, "seed_walk",
                        lambda tower: walk._replace(values=values))
    assert _failures(tw) == [
        ("cq1-image-inclusion", f"1 elements uncovered, first bits {c:#x}")]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cq1_level_orders_judge_each_vertex_once(monkeypatch, n):
    # a faulty graph puts 0, or inf, in the (component, level) class of the
    # last element of C_(q+1): the witness is the first element of C_(q+1)
    # in that class.  Membership in the walked C_(q+1) judges each vertex,
    # and no vertex is asked its order.
    tw = TOWERS[n]
    double = tw.double
    cq1 = double.subgroup(tw.q + 1)[:-1]
    g = build_graph(double)

    def key(v):
        return g.comp_id[v], g.level[v]

    witness = next(v for v in cq1[1:] if key(v) == key(cq1[-1]))
    asked = []
    true_check = order_dynamics.verify_cq1_inclusion

    def check(*args):
        with monkeypatch.context() as m:
            m.setattr(FieldSpec, "order", lambda self, a: asked.append(a))
            return true_check(*args)

    monkeypatch.setattr(order_dynamics, "verify_cq1_inclusion", check)
    for special in (0, double.q):
        assert key(special) != key(cq1[-1])

        def fault(g, special=special):
            g.comp_id[special], g.level[special] = key(cq1[-1])

        _patch_graph(monkeypatch, fault)
        assert _failures(tw) == [
            ("cq1-level-orders",
             f"level mate of {witness:#x} has order not dividing q+1")]
    assert asked == []


@pytest.mark.parametrize("special", [None, 0])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cq1_level_orders_read_widened_levels(monkeypatch, n, special):
    # levels widened to array('i'), as a faulty kernel's deep tree leaves
    # them, are read one vertex at a time: no failure on the true graph,
    # and 0 put in the class of the last element of C_(q+1) is named as on
    # byte levels
    tw = TOWERS[n]
    cq1 = tw.double.subgroup(tw.q + 1)[:-1]
    g = build_graph(tw.double)
    key = g.comp_id[cq1[-1]], g.level[cq1[-1]]
    witness = next(v for v in cq1[1:] if (g.comp_id[v], g.level[v]) == key)

    def fault(g):
        g.level = array("i", g.level)
        if special is not None:
            g.comp_id[special], g.level[special] = key

    _patch_graph(monkeypatch, fault)
    assert _failures(tw) == ([] if special is None else [
        ("cq1-level-orders",
         f"level mate of {witness:#x} has order not dividing q+1")])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadrant_fault_is_a_record(monkeypatch, n):
    # a faulty graph sends one x of A = C_(q+1) & S_1 to another y != 1 of
    # C_(q+1) than 1/x, and y to 0.  f(A) gains y, while 1/x = x^q, in A
    # too, keeps f(x).  Each image is closed under Frobenius, so 1/y = y^q
    # keeps f(y) wherever y was, and the later images gain only 0 and inf.
    tw, walk = TOWERS[n], WALKS[n]
    double, q = tw.double, tw.q
    cq1 = double.subgroup(q + 1)[:-1]
    s1 = set(walk.values[1:q * q + 1])
    x = next(x for x in cq1 if x in s1)
    y = next(y for y in cq1[1:] if y not in (x, double.inv(x)))

    def fault(g):
        g.succ[x], g.succ[y] = y, 0

    _patch_graph(monkeypatch, fault)
    assert [name for name, _ in _failures(tw)] == ["a11-image"]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permutation_fault_is_a_record(monkeypatch, n):
    # a faulty graph sends inf to 0.  Every seed reaches inf, if at all,
    # only at index l+4, from a leaf of its tree, so S_(l+4) keeps inf, but
    # f(S_(l+4)) has 0 in its place; 0 is no landing point, so the map
    # stays one-to-one on the landing set
    tw = TOWERS[n]

    def fault(g):
        g.succ[tw.double.q] = 0

    _patch_graph(monkeypatch, fault)
    assert [name for name, _ in _failures(tw)] == ["landing-set-closed"]


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
        if p.h_class.value == 1:
            continue
        assert check_order_bound(p), p
        for i in range(1, tw.l + 2):
            assert p.steps[i].order >= bound
        count += 1
    assert count > 0


def test_order_bound_vacuous_at_n1():
    # q = 2: q-1 = 1 has no least prime, so the bound holds vacuously, even
    # for the class-1 seeds (all seeds at n = 1) it refuses at larger q
    assert all(check_order_bound(p) for p in PROFILES[1])


def test_order_bound_rejects_class_one_seed():
    p1 = next(p for p in PROFILES[2] if p.h_class.value == 1)
    with pytest.raises(FieldError):
        check_order_bound(p1)


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
        emb = span_table(subfield_embedding(sub, amb))
        assert emb[0] == 0 and emb[1] == 1
        for a in range(sub.q):
            for b in range(sub.q):
                assert emb[a ^ b] == emb[a] ^ emb[b]
                assert emb[sub.mul(a, b)] == amb.mul(emb[a], emb[b])
        for a in range(1, sub.q):
            assert subfield_trace(amb, emb[a], d) == sub.trace(a)


def test_embedding_conway_fast_path():
    amb = make_field(8)
    sub = make_field(2)
    ghat = amb.pow(amb.gen, (amb.q - 1) // 3)
    assert span_table(subfield_embedding(sub, amb))[sub.gen] == ghat


def test_embedding_rejects_non_subfield():
    with pytest.raises(FieldError):
        subfield_embedding(make_field(3), make_field(8))


def _image(basis, x):
    """The XOR of the basis images over the set bits of x."""
    image = 0
    for i, v in enumerate(basis):
        if x >> i & 1:
            image ^= v
    return image


def _least_and_greatest(d):
    """GF(2^d) under its least and greatest irreducible moduli; for d = 1
    those are x and x + 1."""
    irreducible = [m for m in range(1 << d, 2 << d) if is_irreducible(m)]
    return [make_field(d, m) for m in (irreducible[0], irreducible[-1])]


@pytest.mark.parametrize("d", range(1, 9))
def test_preimage_inverts_the_embedding(d):
    # every x of GF(2^d), under its Conway, least and greatest moduli, comes
    # back from its image in GF(2^(2d)), under the default and the greatest
    # moduli
    for sub in (make_field(d), *_least_and_greatest(d)):
        for amb in (make_field(2 * d), _least_and_greatest(2 * d)[1]):
            basis = subfield_embedding(sub, amb)
            assert len(basis) == d
            assert ([preimage(sub, amb, basis, a) for a in span_table(basis)]
                    == list(range(sub.q))), (sub, amb)


@pytest.mark.parametrize("n, ambient, counts", NON_DEFAULT, ids=[
    f"n{n}-{field_to_record(amb).split()[1]}" for n, amb, _ in NON_DEFAULT])
def test_preimage_inverts_the_embedding_in_non_default_ambients(
        n, ambient, counts):
    for sub in (make_field(n), make_field(2 * n)):
        basis = subfield_embedding(sub, ambient)
        assert ([preimage(sub, ambient, basis, a) for a in span_table(basis)]
                == list(range(sub.q)))


def _irreducible_from(m):
    """The least irreducible modulus of m's degree at or above m, wrapping
    round to the least one of that degree."""
    t = m.bit_length() - 1
    moduli = itertools.chain(range(m, 2 << t), range(1 << t, m))
    return next(f for f in moduli if is_irreducible(f))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda d: st.tuples(
    st.just(d), st.integers(2, 3), st.integers(1 << d, (2 << d) - 1),
    st.integers(0, (1 << d) - 1), st.integers(0, (1 << 3 * d) - 1))),
    st.integers(0, (1 << 48) - 1))
def test_preimage_under_any_moduli(case, ambient_bits):
    # for random irreducible moduli of GF(2^d) and GF(2^(kd)): any x comes
    # back from its image, and an ambient a pulls back to an element with
    # image a exactly when it lies in the subfield
    d, k, sub_bits, x, a = case
    t = k * d
    sub = make_field(d, _irreducible_from(sub_bits))
    amb = make_field(t, _irreducible_from(1 << t | ambient_bits % (1 << t)))
    basis = subfield_embedding(sub, amb)
    assert preimage(sub, amb, basis, _image(basis, x)) == x
    a %= amb.q
    if in_subfield(amb, a, d):
        assert _image(basis, preimage(sub, amb, basis, a)) == a
    else:
        with pytest.raises(FieldError) as exc:
            preimage(sub, amb, basis, a)
        assert str(exc.value) == (
            f"witness {a:#x} of GF(2^{t}) outside GF(2^{d})")


def test_preimage_names_the_witness_outside_the_subfield():
    sub, amb = make_field(4), make_field(8)
    basis = subfield_embedding(sub, amb)
    with pytest.raises(FieldError) as exc:
        preimage(sub, amb, basis, 2)
    assert str(exc.value) == "witness 0x2 of GF(2^8) outside GF(2^4)"
    inside = set(span_table(basis))
    for a in set(range(amb.q)) - inside:
        with pytest.raises(FieldError) as exc:
            preimage(sub, amb, basis, a)
        assert str(exc.value) == f"witness {a:#x} of GF(2^8) outside GF(2^4)"


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
    tw = make_tower(n)._replace(ambient=ambient)
    rep = orders_report(tw)
    assert rep["field"] == field_to_record(ambient)
    assert rep["counts"] == counts
    assert [c["name"] for c in rep["checks"] if not c["pass"]] == []
