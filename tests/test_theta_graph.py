"""Graph construction, decomposition, classification, and the leaf laws."""

import json
import sys
import tracemalloc
from array import array
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import graph_oracle
import thetamap.gf2_arith as gf2_arith
import thetamap.theta_graph as theta_graph
from field_oracle import field_from_record, in_subfield, subfield_trace
from graph_oracle import (
    classify_AB,
    decompose,
    edited_walk,
    oracle_checks,
    oracle_graph,
    oracle_records,
    predecessor_slots,
    reaimed_walk,
    table_records,
    theta_pullback,
    trace_tables,
    tree_levels,
    unit_pairs,
)
from thetamap.dickson_curve import dickson_report
from thetamap.gf2_arith import FieldError, FieldSpec, make_field
from thetamap.order_dynamics import make_tower, seed_walk
from thetamap.theta_graph import (
    GRAPH_MAX_T,
    _byte_lanes,
    build_graph,
    norm_one_dickson,
    point_label,
    theta_index,
    to_dot,
    to_json,
    unit_walk,
    verify_structure,
)

F6 = make_field(6)
G6 = build_graph(F6)


def trees(g, root):
    """The oracle's in-tree of ``root`` over g's edges and levels, as
    {level: vertices ascending}."""
    return dict(enumerate(
        tree_levels(predecessor_slots(g.succ), g.level, root), 1))


# ---------------------------------------------------------------------------
# the map itself


def test_theta_special_points():
    for t in (1, 2, 6):
        f = make_field(t)
        assert theta_index(f, 0) == f.q             # 0 goes to inf
        assert theta_index(f, f.q) == f.q           # inf stays
        assert theta_index(f, 1) == 0               # 1 + 1 = 0


def test_theta_worked_example_edge():
    assert theta_index(F6, F6.exp_of(45)) == F6.exp_of(27)


def test_out_degree_and_vertex_count():
    for t in (1, 2, 3, 5, 8):
        g = build_graph(make_field(t))
        assert len(g.succ) == 2 ** t + 1
        assert all(0 <= s <= 2 ** t for s in g.succ)


# ---------------------------------------------------------------------------
# hand-built graph over GF(2): 1 -> 0 -> inf -> inf


def test_graph_t1():
    f = make_field(1)
    g = build_graph(f)
    assert len(g.components) == 1
    comp = g.components[0]
    assert list(comp.cycle) == [2]                # the infinity index
    assert comp.depth == 2
    assert trees(g, 2) == {1: [0], 2: [1]}
    assert sorted(g.leaf_indices()) == [1]
    assert verify_structure(g).passed


# ---------------------------------------------------------------------------
# the worked example over GF(2^6): every component, level by level

CYCLE_A = [45, 27, 54]
TREES_A = {                 # root exponent -> {level: sorted exponents}
    45: {1: [9], 2: [7, 56], 3: [41, 22, 50, 13]},
    27: {1: [18], 2: [14, 49], 3: [19, 44, 26, 37]},
    54: {1: [36], 2: [28, 35], 3: [38, 25, 52, 11]},
}
CYCLE_B1 = [48, 53, 47, 12, 29, 59, 3, 23, 62]
LEAVES_B1 = {1: 48, 15: 53, 10: 47, 16: 12, 51: 29, 34: 59, 4: 3, 60: 23, 40: 62}
CYCLE_B2 = [33, 43, 31, 24, 58, 55, 6, 46, 61]
LEAVES_B2 = {2: 33, 30: 43, 20: 31, 32: 24, 39: 58, 5: 55, 8: 6, 57: 46, 17: 61}


def exps(iterable):
    return sorted(F6.dlog(v) for v in iterable)


def find_component(g, cycle_exps):
    want = {F6.exp_of(e) for e in cycle_exps}
    for comp in g.components:
        if set(comp.cycle) == want:
            return comp
    raise AssertionError(f"no component with cycle {sorted(cycle_exps)}")


def test_golden_six_a_component():
    comp = find_component(G6, CYCLE_A)
    assert comp.trace_class == "A"
    assert comp.depth == 3
    # successor order around the cycle
    idx = {v: i for i, v in enumerate(comp.cycle)}
    for e_from, e_to in zip(CYCLE_A, CYCLE_A[1:] + CYCLE_A[:1]):
        assert G6.succ[F6.exp_of(e_from)] == F6.exp_of(e_to)
    for root_exp, levels in TREES_A.items():
        tree = trees(G6, F6.exp_of(root_exp))
        assert {k: exps(vs) for k, vs in tree.items()} == {
            k: sorted(vs) for k, vs in levels.items()}
    assert idx  # silence linters


def test_golden_six_b_components():
    for cyc, leaf_map in ((CYCLE_B1, LEAVES_B1), (CYCLE_B2, LEAVES_B2)):
        comp = find_component(G6, cyc)
        assert comp.trace_class == "B"
        assert comp.depth == 1
        levels = [trees(G6, root) for root in comp.cycle]
        assert sum(len(tree[1]) for tree in levels) == 9
        for leaf_exp, root_exp in leaf_map.items():
            assert G6.succ[F6.exp_of(leaf_exp)] == F6.exp_of(root_exp)
        for e_from, e_to in zip(cyc, cyc[1:] + cyc[:1]):
            assert G6.succ[F6.exp_of(e_from)] == F6.exp_of(e_to)


def test_golden_six_infinity_component():
    inf = F6.q
    comp = G6.components[G6.comp_id[inf]]
    assert list(comp.cycle) == [inf]
    levels = trees(G6, inf)
    assert levels[1] == [0]                        # the zero element
    assert levels[2] == [1]                        # the unit 1
    assert sorted(levels[3]) == sorted([F6.exp_of(21), F6.exp_of(42)])
    assert comp.depth == 3


def test_golden_six_component_count_and_order():
    assert len(G6.components) == 4
    # deterministic order: least cycle encoding first, infinity last
    mins = [min(c.cycle) for c in G6.components]
    assert mins == sorted(mins)
    assert list(G6.components[-1].cycle) == [F6.q]


def test_golden_six_leaves():
    want = sorted(
        [F6.exp_of(e) for e in (41, 22, 50, 13, 19, 44, 26, 37, 38, 25, 52, 11,
                                21, 42)]
        + [F6.exp_of(e) for e in LEAVES_B1] + [F6.exp_of(e) for e in LEAVES_B2])
    assert sorted(G6.leaf_indices()) == want


@pytest.mark.parametrize("record", [str(t) for t in range(1, 15)]
                         + ["t=8 modulus=11b generator=3"])
def test_in_degree_oracle(record):
    """y + 1/y = x means (y/x)^2 + y/x = 1/x^2, which has two roots iff
    Tr(1/x^2) = Tr(1/x) = 0 and none otherwise (Lidl-Niederreiter,
    Thm. 2.25); 0 has the one predecessor 1, and inf the two 0 and inf."""
    f = make_field(int(record)) if record.isdigit() else field_from_record(record)
    g = build_graph(f)
    inf = f.q
    counts = Counter(g.succ)
    assert list(g.indeg) == [counts[v] for v in range(f.q + 1)]
    for x in range(1, f.q):
        assert g.indeg[x] == (2 if f.trace(f.inv(x)) == 0 else 0)
    assert g.indeg[0] == 1 and g.succ[1] == 0
    assert g.indeg[inf] == 2 and g.succ[0] == g.succ[inf] == inf


# ---------------------------------------------------------------------------
# the peel and the table checks against the per-vertex oracle

ORACLE_FIELDS = [(t, None) for t in range(1, 15)] + [(8, 0x11B), (10, 0x409)]
ORACLE_IDS = [f"t{t}" if m is None else f"t{t}-modulus{m:x}"
              for t, m in ORACLE_FIELDS]


def _assert_decomposed_as(g, want):
    """build_graph's graph g against the oracle's decomposition of g.succ,
    trace classes aside."""
    assert list(g.indeg) == list(want.indeg)
    assert list(g.level) == want.level
    assert g.comp_id == want.comp_id
    assert [(list(c.cycle), c.depth) for c in g.components] == [
        (list(c.cycle), c.depth) for c in want.components]


def _assert_matches_oracle(f):
    g, want = build_graph(f), oracle_graph(f)
    assert list(g.succ) == want.succ
    _assert_decomposed_as(g, want)
    assert g.components == want.components
    assert verify_structure(g).passed
    assert table_records(g) == oracle_checks(g)


@pytest.mark.parametrize("t, modulus", ORACLE_FIELDS, ids=ORACLE_IDS)
def test_graph_layer_matches_oracle(t, modulus):
    _assert_matches_oracle(make_field(t, modulus))


@pytest.mark.parametrize("t, modulus", ORACLE_FIELDS, ids=ORACLE_IDS)
def test_graph_layer_matches_oracle_without_tables(monkeypatch, t, modulus):
    # hex labels: no log table for point_label to read
    monkeypatch.setattr(gf2_arith, "TABLE_MAX_T", 0)
    _assert_matches_oracle(make_field(t, modulus))


WALK_FIELDS = [(t, None) for t in range(1, 17)] + [(8, 0x11B), (10, 0x409)]
WALK_IDS = [f"t{t}" if m is None else f"t{t}-modulus{m:x}"
            for t, m in WALK_FIELDS]


@pytest.mark.parametrize("tables", [True, False], ids=["log", "shiftxor"])
@pytest.mark.parametrize("t, modulus", WALK_FIELDS, ids=WALK_IDS)
def test_unit_walk_matches_the_full_walks(monkeypatch, t, modulus, tables):
    # the map, in-degrees and both trace tables of the one walk against the
    # full walks of gen^i and gen^-i, and the two walks of the trace tables
    if tables:
        f = make_field(t, modulus)
        f.ensure_tables()
    else:
        monkeypatch.setattr(gf2_arith, "TABLE_MAX_T", 0)
        f = make_field(t, modulus)
    walk = unit_walk(f)
    succ = [f.q] * (f.q + 1)
    for x, xi in unit_pairs(f):
        succ[x] = x ^ xi
    assert list(walk.succ) == succ
    counts = Counter(succ)
    assert list(walk.indeg) == [counts[v] for v in range(f.q + 1)]
    tr, tr_inv = trace_tables(f)
    assert walk.tr == tr
    assert walk.tr_inv == tr_inv


@pytest.mark.parametrize("tables", [True, False], ids=["log", "shiftxor"])
def test_unit_walk_fault_shows_against_the_trace_tables(monkeypatch, tables):
    # the unit walk's map sends gen^100 to the sum with a wrong inverse, off
    # by the least element of trace 1; its Tr(1/x) comes from gen's walk
    # alone and stays true, so class-preservation names gen^100, as the
    # per-vertex oracle does from spec.inv (in dlog labels, or in hex
    # labels when no log table may be built)
    if not tables:
        monkeypatch.setattr(gf2_arith, "TABLE_MAX_T", 0)
    f = make_field(8)
    x0 = f.exp_of(100)
    e = next(e for e in range(1, f.q) if f.trace(e))
    true = unit_walk(make_field(8))

    def edit(walk):
        walk.succ[x0] ^= e

    edited_walk(8, edit)(monkeypatch.setattr)
    g = build_graph(f)
    assert g.succ[x0] != theta_index(f, x0)
    assert (g.tr, g.tr_inv) == (true.tr, true.tr_inv)
    records = table_records(g)
    assert records == oracle_checks(g)
    assert records[0] == {"name": "class-preservation", "pass": False,
                          "detail": f"witness {point_label(f, x0)}"}


@pytest.mark.parametrize("faulty", ["gen", "gen-inverse"])
def test_split_table_fault_shows_against_the_trace_tables(monkeypatch, faulty):
    # the split tables of gen (or of 1/gen) are those of g' = gen^7 (or of
    # 1/g'); gcd(7, 255) = 1, so the walks would still close and pair g'^i
    # with gen^-i (or gen^i with g'^-i), but their first step goes to g'
    # (or 1/g'), and the walk is refused before it writes an edge
    f = make_field(8)
    g7 = f.pow(f.gen, 7)
    swap = {f.gen: g7} if faulty == "gen" else {f.inv(f.gen): f.inv(g7)}
    true_tables = FieldSpec.mul_tables
    monkeypatch.setattr(FieldSpec, "mul_tables",
                        lambda self, c: true_tables(self, swap.get(c, c)))
    (c, image), = swap.items()
    with pytest.raises(FieldError) as exc:
        build_graph(f)
    assert str(exc.value) == f"split tables of {c:#x} send 1 to {image:#x}"


def test_build_graph_refuses_beyond_the_index_arrays():
    # array('i') holds the encodings 0..2^t only up to GRAPH_MAX_T = 30; the
    # refusal reads nothing but t, so it comes before any allocation
    assert GRAPH_MAX_T == 30
    with pytest.raises(FieldError, match="t=31 > 30"):
        build_graph(SimpleNamespace(t=31))


@pytest.mark.parametrize("where", ["block-end", "block-start", "inside",
                                   "last-leaf"])
def test_trace_checks_read_every_block(monkeypatch, where):
    # t = 14 reads its 2^14 + 1 vertices in blocks of 4096: Tr(1/x) flipped
    # at the end or the start of a block, inside one, or at the greatest
    # leaf, in the last full block, is named as the per-vertex oracle
    # names it
    t = 14
    g = build_graph(make_field(t))
    x0 = {"block-end": 4095, "block-start": 4096, "inside": 10001,
          "last-leaf": max(g.leaf_indices())}[where]
    leaf = not g.indeg[x0]
    graph_oracle.wrong_inverse_at(x0, t)(monkeypatch.setattr)
    g = build_graph(make_field(t))
    want = oracle_checks(g)
    assert want[0]["name"] == "class-preservation" and not want[0]["pass"]
    assert want[1]["name"] == "leaf-traces" and want[1]["pass"] != leaf
    assert table_records(g) == want


def test_deep_faulty_tree_keeps_its_levels(monkeypatch):
    # a faulty kernel sending each unit x to x - 1 hangs all of GF(2^8) on
    # one path into infinity, 256 levels deep: past one byte
    f = make_field(8)
    reaimed_walk(8, {x: x - 1 for x in range(1, f.q)})(monkeypatch.setattr)
    g = build_graph(f)
    assert list(g.level) == list(range(1, f.q + 1)) + [0]
    assert [(list(c.cycle), c.depth) for c in g.components] == [([f.q], f.q)]
    _assert_decomposed_as(g, decompose(f, list(g.succ)))
    assert "inf-tree-shape" in {c.name for c in verify_structure(g).failures()}
    assert table_records(g) == oracle_checks(g)
    assert verify_structure(g).records() == oracle_records(g)


@pytest.mark.parametrize("order", ["little", "big"])
def test_byte_lanes_follow_the_byte_order(monkeypatch, order):
    # each entry's least significant byte is read where the byte order
    # puts it: an array byte-swapped into the other order reads the same
    # under that order, and an entry outside 0..255 is refused in both
    values = [0, 1, 2, 255, 3]
    wide = array("i", values + [256, -1])
    if order != sys.byteorder:
        wide.byteswap()
        monkeypatch.setattr(sys, "byteorder", order)
    assert _byte_lanes(wide, 0, 5) == bytes(values)
    assert _byte_lanes(wide, 1, 4) == bytes(values[1:4])
    for stop in (6, 7):
        with pytest.raises(OverflowError):
            _byte_lanes(wide, stop - 1, stop)


@pytest.mark.parametrize("wide", ["level", "indeg"])
def test_entries_past_a_byte_are_clamped_one_vertex_at_a_time(wide):
    # levels and in-degrees widened to array('i'), as a tree deeper than
    # 255 levels or a vertex with 256 predecessors leaves them, and a level
    # or an in-degree of 300 at the end of the first block of GF(2^14):
    # that block's lane is clamped one vertex at a time, the other blocks'
    # on byte lanes, and every vertex, level d's leaves included, is judged
    # as the per-vertex oracle judges it
    g = build_graph(make_field(14))
    g.level = array("i", g.level)
    g.indeg = array("i", g.indeg)
    getattr(g, wide)[4095] = 300
    assert verify_structure(g).records() == oracle_records(g)


def test_wide_fault_keeps_its_in_degrees(monkeypatch):
    # a faulty kernel aims 300 tree vertices of GF(2^9) at one B-root: an
    # in-degree past one byte, which the peel counts down in array('i'),
    # and which the tree-shape rules read one vertex at a time
    f = make_field(9)
    graph_oracle.crowded_b_root(9, 300)(monkeypatch.setattr)
    g = build_graph(f)
    assert max(g.indeg) > 300
    _assert_decomposed_as(g, decompose(f, list(g.succ)))
    records = verify_structure(g).records()
    assert records == oracle_records(g)
    assert {r["name"] for r in records if not r["pass"]} >= {
        "class-preservation", "b-tree-depth"}


def test_lanes_are_as_wide_as_their_values():
    # succ holds encodings up to 2^t; in-degrees, levels and the ids of the
    # 101 components fit a byte, unless a faulty kernel makes more
    g = build_graph(make_field(12))
    assert [a.typecode for a in (g.succ, g.indeg, g.level, g.comp_id)] == [
        "i", "B", "B", "B"]


@pytest.mark.parametrize("t", [14, 16])
def test_build_graph_peaks_at_the_size_it_keeps(t):
    # traced by tracemalloc, build_graph allocates at most 1.5 bytes a
    # vertex beyond the graph it returns: its peak is the queue of the
    # vertices the peel frees (0.8-1.0 bytes a vertex), which does not hold
    # the leaves (2 bytes a vertex more)
    f = make_field(t)
    f.ensure_tables()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        g = build_graph(f)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert len(g.succ) == f.q + 1 and kept > base
    assert peak - kept <= 1.5 * (f.q + 1)


@pytest.mark.parametrize("t, typecode",
                         [(8, "B"), (9, "H"), (16, "H"), (17, "i")])
def test_component_ids_widen_past_two_bytes(monkeypatch, t, typecode):
    # a faulty kernel fixing every unit makes q components, infinity's
    # last: at t = 8 their ids end at 255 and fit a byte, at t = 9 they
    # pass it and comp_id widens to array('H'), at t = 16 they end at
    # 65 535 and fit two bytes, at t = 17 they pass it and comp_id widens
    # to array('i'); each decomposes and is judged as the per-vertex oracle
    # does it
    f = make_field(t)
    reaimed_walk(t, {x: x for x in range(1, f.q)})(monkeypatch.setattr)
    g = build_graph(f)
    assert (g.comp_id.typecode, g.comp_id[f.q]) == (typecode, f.q - 1)
    _assert_decomposed_as(g, decompose(f, list(g.succ)))
    assert verify_structure(g).records() == oracle_records(g)


def test_many_components_keep_their_kinds(monkeypatch):
    # a faulty kernel fixing 300 units of GF(2^9) makes as many components
    # more: component ids past one byte, infinity's among them, whose kinds
    # are gathered one vertex at a time
    f = make_field(9)
    reaimed_walk(9, {x: x for x in range(2, 302)})(monkeypatch.setattr)
    g = build_graph(f)
    assert g.comp_id[f.q] > 255
    _assert_decomposed_as(g, decompose(f, list(g.succ)))
    assert verify_structure(g).records() == oracle_records(g)


def test_infinity_as_a_leaf_reads_its_traces_as_zero(monkeypatch):
    # a faulty walk sends 0 and inf to 1, so inf has no predecessor: a
    # leaf past both trace tables, whose witness reads Tr(inf) =
    # Tr(1/inf) = 0 as the per-vertex oracle does, not a byte of a table
    f = make_field(6)

    def edit(walk):
        walk.succ[0] = walk.succ[f.q] = 1

    edited_walk(6, edit)(monkeypatch.setattr)
    g = build_graph(f)
    assert g.indeg[f.q] == 0
    records = {r["name"]: r for r in verify_structure(g).records()}
    assert records["leaf-traces"] == {
        "name": "leaf-traces", "pass": False,
        "detail": "A-leaf inf has traces (0, 0)"}
    assert not records["inf-tree-shape"]["pass"]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda t: st.tuples(
    st.just(t), st.lists(st.integers(0, 2 ** t - 1),
                         min_size=2 ** t - 1, max_size=2 ** t - 1))))
def test_peel_matches_the_oracle_on_any_map(case):
    # a faulty kernel may send each unit anywhere: in-degrees above 2, long
    # paths, several cycles and self-loops; 0 and inf still go to inf
    t, targets = case
    f = make_field(t)
    with pytest.MonkeyPatch.context() as mp:
        reaimed_walk(t, dict(zip(range(1, f.q), targets)))(mp.setattr)
        g = build_graph(f)
    assert list(g.succ) == [f.q] + targets + [f.q]
    _assert_decomposed_as(g, decompose(f, list(g.succ)))
    assert verify_structure(g).records() == oracle_records(g)


def test_zero_leaf_is_named_by_the_table_checks(monkeypatch):
    # a faulty kernel fixing the unit 1 leaves 0 without predecessor: 0 lies
    # in GF(2^4) and has degree 1, and its traces are (0, 0) by convention
    f = make_field(8)
    reaimed_walk(8, {1: 1})(monkeypatch.setattr)
    g = build_graph(f)
    records = table_records(g)
    assert records == oracle_checks(g)
    assert [r["detail"] for r in records] == [
        "", "A-leaf '0' has traces (0, 0)", "leaf '0' has degree 1"]


@pytest.mark.parametrize("t", range(1, 17))
def test_leaf_degree_law_breaks_exactly_on_the_half_field(t):
    """A unit's degree breaks the 2^r * v law iff r >= 1 and the unit lies
    in GF(2^(t/2)): the rule verify_structure's leaf-degree check rests on."""
    f = make_field(t)
    f.ensure_tables()
    for x in range(1, f.q):
        d = f.degree(x)
        v = d >> f.r
        breaks = d != (v << f.r) or v % 2 == 0 or f.s % v != 0
        assert breaks == (f.r >= 1 and in_subfield(f, x, t // 2)), x


# ---------------------------------------------------------------------------
# classification


def test_classify_special_and_sample_points():
    assert classify_AB(F6, 0) == "A"
    assert classify_AB(F6, F6.q) == "A"                # infinity
    assert classify_AB(F6, 1) == "A"
    assert classify_AB(F6, F6.exp_of(41)) == "A"
    assert classify_AB(F6, F6.exp_of(48)) == "B"


def test_is_periodic():
    # periodic: on its component's cycle, level 0
    assert G6.level[F6.q] == 0
    assert G6.level[1] != 0
    assert G6.level[F6.exp_of(45)] == 0
    assert G6.level[F6.exp_of(9)] != 0


def test_no_leaf_is_zero_or_infinity():
    for t in range(1, 9):
        g = build_graph(make_field(t))
        for v in g.leaf_indices():
            assert 0 < v < g.field.q


def test_level_recursion_invariant():
    for t in (3, 6, 10):
        g = build_graph(make_field(t))
        for v in range(len(g.succ)):
            if g.level[v] > 0:
                assert g.level[v] == g.level[g.succ[v]] + 1


def test_edges_preserve_class():
    for t in range(1, 11):
        f = make_field(t)
        g = build_graph(f)
        for v in range(f.q + 1):
            assert classify_AB(f, v) == classify_AB(f, g.succ[v])


# ---------------------------------------------------------------------------
# omega sets


@pytest.mark.parametrize("t", range(1, 13))
def test_omega_sizes(t):
    f = make_field(t)
    # the units split by Tr(1/x), read from the unit walk
    tr_inv = unit_walk(f).tr_inv
    om = {x for x in range(1, f.q) if not tr_inv[x]}
    om_bar = {x for x in range(1, f.q) if tr_inv[x]}
    assert len(om) == 2 ** (t - 1) - 1
    assert len(om_bar) == 2 ** (t - 1)
    assert om | om_bar == set(range(1, f.q))


@pytest.mark.parametrize("t", range(1, 7))
def test_omega_bar_is_image_of_small_subgroup(t):
    f = make_field(t)
    tr_inv = unit_walk(f).tr_inv
    om_bar = {x for x in range(1, f.q) if tr_inv[x]}
    double = make_field(2 * t)
    values, fault = theta_pullback(f, double, double.subgroup(f.q + 1))
    assert fault is None
    assert om_bar == set(values[1:])


def _greatest_irreducible(t):
    return next(f for f in range((2 << t) - 1, 1 << t, -2)
                if gf2_arith.is_irreducible(f))


def _field_pair(d, moduli):
    """GF(2^d) and GF(2^(2d)), by default (Conway) or greatest moduli."""
    if moduli == "conway":
        return make_field(d), make_field(2 * d)
    return (make_field(d, _greatest_irreducible(d)),
            make_field(2 * d, _greatest_irreducible(2 * d)))


@pytest.mark.parametrize("moduli", ["conway", "greatest"])
@pytest.mark.parametrize("d", range(1, 7))
def test_pullback_matches_the_norm_form(d, moduli):
    # the second derivation: GF(Q^2) = GF(Q)[z]/(z^2 + z + c) with
    # Tr(c) = 1, where a + bz has norm a^2 + ab + cb^2 and, on norm one,
    # x + 1/x = (a + bz) + (a + b + bz) = b; the norm-one Dickson values
    # of the order-(Q+1) subgroup give the same multiset
    sub, ambient = _field_pair(d, moduli)
    c = next(c for c in range(sub.q) if sub.trace(c))
    want = Counter(b for a in range(sub.q) for b in range(1, sub.q)
                   if sub.mul(a, a ^ b) ^ sub.mul(c, sub.mul(b, b)) == 1)
    values, fault = theta_pullback(sub, ambient, ambient.subgroup(sub.q + 1))
    assert fault is None
    assert Counter(values[1:]) == want
    assert sum(want.values()) == sub.q
    dickson, _, fault = norm_one_dickson(sub, ambient, sub.q + 1)
    assert fault is None
    assert Counter(dickson[1:sub.q + 1]) == want


@pytest.mark.parametrize("moduli", ["conway", "greatest"])
@pytest.mark.parametrize("d", range(1, 11))
def test_norm_one_dickson_matches_the_subgroup_walk(d, moduli):
    # for every m | Q+1, h^k + h^-k read by the recurrence from b = h + 1/h
    # is the oracle's pull-back of h^k + h^(m-k) on the walk of the order-m
    # subgroup, entry by entry (and so set by set), with D_m(b) = 0 and
    # the embedding the oracle reads
    sub, ambient = _field_pair(d, moduli)
    emb = gf2_arith.subfield_embedding(sub, ambient)
    for m in (m for m in range(1, sub.q + 2) if (sub.q + 1) % m == 0):
        want, want_fault = theta_pullback(sub, ambient, ambient.subgroup(m))
        values, got_emb, fault = norm_one_dickson(sub, ambient, m)
        assert want_fault is None and fault is None
        assert got_emb == emb
        assert len(values) == m + 1 and values[m] == 0
        assert list(values[:m]) == want
        assert set(values[1:m]) == set(want[1:])


def test_no_dickson_or_seed_path_walks_a_subgroup(monkeypatch):
    # the root image and the seeds' first iterates read one preimage and
    # run the recurrence: neither walks a subgroup nor any powers
    def walked(self, *args):
        raise AssertionError(f"GF(2^{self.t}) walked {args}")

    monkeypatch.setattr(FieldSpec, "subgroup", walked)
    monkeypatch.setattr(FieldSpec, "powers", walked)
    for n in range(1, 11):
        assert dickson_report(make_field(n))["passed"]
    for n in range(1, 6):
        walk = seed_walk(make_tower(n))
        assert walk.fault is None and len(walk.values) == 4 ** n + 2


@pytest.mark.parametrize("t", range(1, 13))
def test_leaves_are_omega_bar(t):
    f = make_field(t)
    g = build_graph(f)
    tr_inv = unit_walk(f).tr_inv
    om_bar = {x for x in range(1, f.q) if tr_inv[x]}
    assert set(g.leaf_indices()) == om_bar


# ---------------------------------------------------------------------------
# structural checks


@pytest.mark.parametrize("t", range(1, 13))
def test_verify_structure_passes(t):
    g = build_graph(make_field(t))
    rep = verify_structure(g)
    assert rep.passed, rep.failures()


@pytest.mark.parametrize("moduli", ["conway", "greatest"])
@pytest.mark.parametrize("t", range(1, 13))
def test_structure_records_match_the_oracle(t, moduli):
    # every record, the tree shapes judged one vertex at a time, under the
    # Conway modulus and under the greatest irreducible one
    f = (make_field(t) if moduli == "conway"
         else make_field(t, _greatest_irreducible(t)))
    g = build_graph(f)
    assert verify_structure(g).records() == oracle_records(g)


@pytest.mark.parametrize("t", range(1, 13))
def test_depth_dichotomy(t):
    f = make_field(t)
    g = build_graph(f)
    d = f.r + 2
    for comp in g.components:
        assert comp.depth == (d if comp.trace_class == "A" else 1)


def test_structure_report_names_witness():
    g = build_graph(make_field(4))
    g.components[0].trace_class = "B" if g.components[0].trace_class == "A" else "A"
    rep = verify_structure(g)
    assert not rep.passed
    assert any("witness" in c.detail or c.detail for c in rep.failures())


# ---------------------------------------------------------------------------
# leaf degree laws


@pytest.mark.parametrize("t", [2, 4, 6, 8, 10, 12])
def test_leaf_iterate_degree_dichotomy(t):
    """A-leaves that keep their degree at the first step either keep it
    forever or fall into the B class of the half-degree subfield from
    step r+1 on."""
    f = make_field(t)
    g = build_graph(f)
    half = t // 2
    for v in g.leaf_indices():
        if classify_AB(f, v) != "A":
            continue
        d = f.degree(v)
        w = g.succ[v]
        if w == 0 or w == f.q or f.degree(w) != d:
            continue
        degs = []
        seen = set()
        u = v
        while u not in seen:
            seen.add(u)
            degs.append(None if u in (0, f.q) else f.degree(u))
            u = g.succ[u]
        if all(dd == d for dd in degs):
            continue
        for i, u in enumerate(_walk(g, v, len(degs))):
            if i <= f.r and i >= 1:
                assert f.degree(u) == d
            elif i >= f.r + 1:
                assert u not in (0, f.q)
                assert in_subfield(f, u, half)
                assert (subfield_trace(f, u, half)
                        != subfield_trace(f, f.inv(u), half))


def _walk(g, v, count):
    out = []
    for _ in range(count):
        out.append(v)
        v = g.succ[v]
    return out


@pytest.mark.parametrize("t", range(1, 13))
def test_leaf_degree_law(t):
    f = make_field(t)
    g = build_graph(f)
    for x in g.leaf_indices():
        d = f.degree(x)
        v = d >> f.r
        assert d == (v << f.r) and v % 2 == 1 and f.s % v == 0


@pytest.mark.parametrize("t", range(1, 8))
def test_leaf_preimage_traces(t):
    """Preimages (in the double field) of A-leaves have both traces 1."""
    big = make_field(2 * t)
    preimg = {}
    for y in range(1, big.q):
        preimg.setdefault(y ^ big.inv(y), []).append(y)
    sub_units = [b for b in range(1, big.q) if in_subfield(big, b, t)]
    assert len(sub_units) == 2 ** t - 1
    for x in sub_units:
        if (subfield_trace(big, x, t) != 1
                or subfield_trace(big, big.inv(x), t) != 1):
            continue
        assert preimg.get(x), f"A-leaf {x:#x} has no preimage upstairs"
        for y in preimg[x]:
            assert big.trace(y) == 1 and big.trace(big.inv(y)) == 1


@pytest.mark.parametrize("t", range(1, 11))
def test_power_sums_of_small_subgroup_stay_in_base_field(t):
    """beta^k + beta^(-k) lies in GF(2^t)* for beta of order 2^t+1."""
    big = make_field(2 * t)
    m = (1 << t) + 1
    beta = big.pow(big.gen, (big.q - 1) // m)
    assert big.order(beta) == m
    beta_inv = big.inv(beta)
    fwd, bwd = beta, beta_inv
    for _ in range(1 << t):
        s = fwd ^ bwd
        assert s != 0 and in_subfield(big, s, t)
        fwd = big.mul(fwd, beta)
        bwd = big.mul(bwd, beta_inv)


# ---------------------------------------------------------------------------
# exports


def test_dot_export():
    pieces = list(to_dot(G6))                    # one per component
    assert [p.split(" ", 2)[1] for p in pieces] == [
        f"component_{i}" for i in range(4)]
    assert all(p.endswith("}\n") for p in pieces)
    dot = "".join(pieces)
    assert '"45" -> "27";' in dot
    assert '"21" -> "0";' in dot                 # exponent 21 feeds the unit 1
    assert '"0" -> "\'0\'";' in dot              # unit 1 feeds the zero
    assert "\"'0'\" -> \"inf\";" in dot
    assert '"inf" -> "inf";' in dot
    assert dot == "".join(to_dot(build_graph(make_field(6))))


@pytest.mark.parametrize("labels", ["log", "hex"])
def test_dot_labels_each_vertex_once(monkeypatch, labels):
    # the export labels each vertex once and reuses the labels for the
    # edge targets; its pieces are the per-edge oracle's, with discrete-log
    # labels and with the hex labels of fields past the log tables
    if labels == "hex":
        monkeypatch.setattr(gf2_arith, "TABLE_MAX_T", 0)
    true_label = theta_graph.point_label
    calls = Counter()

    def point_label(field, v):
        calls[v] += 1
        return true_label(field, v)

    for t in (1, 2, 5, 8, 11):
        g = build_graph(make_field(t))
        want = list(graph_oracle.oracle_dot(g))
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(theta_graph, "point_label", point_label)
            assert list(to_dot(g)) == want, t
        assert calls == Counter(range(g.field.q + 1)), t
        assert ('"x1"' in "".join(want)) == (labels == "hex"), t


def test_json_export():
    pieces = list(to_json(G6))
    # the components are streamed, one piece each
    assert [p.count('"cycle"') for p in pieces if '"cycle"' in p] == [1] * 4
    doc = json.loads("".join(pieces))
    assert doc["t"] == 6 and doc["modulus"] == "5b"
    assert len(doc["components"]) == 4
    klass = {tuple(c["cycle"]): c["class"] for c in doc["components"]}
    assert klass[("inf",)] == "A"
    inf_comp = [c for c in doc["components"] if c["cycle"] == ["inf"]][0]
    assert inf_comp["levels"]["3"] == ["21", "42"]
    assert inf_comp["depth"] == 3
    a_comp = [c for c in doc["components"] if c["depth"] == 3
              and c["cycle"] != ["inf"]][0]
    assert sorted(a_comp["cycle"]) == ["27", "45", "54"]
