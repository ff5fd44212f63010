"""Exit codes, formats, determinism, and failure paths of the CLI."""

import contextlib
import hashlib
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import graph_oracle
import thetamap
import thetamap.cli as cli
import thetamap.dickson_curve as dickson_curve
import thetamap.order_dynamics as order_dynamics
import thetamap.theta_graph as theta_graph
from thetamap.cli import main
from thetamap.gf2_arith import (
    FieldError,
    FieldSpec,
    doubling_orbits,
    make_field,
    span_table,
    subfield_embedding,
)
from thetamap.orbit_records import ProfileRecords
from thetamap.order_dynamics import make_tower, profile_tail, seed_walk


def test_graph_dot_stdout(capsys):
    assert main(["graph", "--t", "6"]) == 0
    out = capsys.readouterr().out
    assert '"45" -> "27";' in out
    assert out.count("digraph") == 4


def test_graph_json_file(tmp_path):
    path = tmp_path / "g.json"
    assert main(["graph", "--t", "4", "--format", "json",
                 "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["t"] == 4
    assert {c["class"] for c in doc["components"]} == {"A", "B"}


def test_verify_structure_single_and_range(capsys):
    assert main(["verify-structure", "--t", "3"]) == 0
    assert "result: all checks passed" in capsys.readouterr().out
    assert main(["verify-structure", "--range", "1..6"]) == 0
    capsys.readouterr()
    assert main(["verify-structure", "--t", "1..6"]) == 0
    assert capsys.readouterr().out.count("[t=") == 36   # 6 checks per degree


def test_degree_cap_honors_environment(monkeypatch, capsys):
    assert main(["graph", "--t", "25"]) == 2
    monkeypatch.setenv("THETA_MAX_T", "10")
    assert main(["verify-structure", "--t", "12"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("THETA_MAX_T", "abc")
    for argv in (["graph", "--t", "3"], ["verify-orders", "--n", "1"],
                 ["verify-dickson", "--n", "1"]):
        assert main(argv) == 2
        assert "error: THETA_MAX_T='abc' is not an integer" in (
            capsys.readouterr().err)
    # a cap below 1 admits nothing: the setting is refused, not the degree
    for raw in ("0", "-1"):
        monkeypatch.setenv("THETA_MAX_T", raw)
        for argv in (["graph", "--t", "3"], ["verify-orders", "--n", "1"],
                     ["verify-dickson", "--n", "1"]):
            assert main(argv) == 2
            assert capsys.readouterr() == (
                "", f"error: THETA_MAX_T={raw!r} is below 1\n")


def test_verify_orders_text(capsys):
    assert main(["verify-orders", "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert "h-partition" in out and "FAIL" not in out


def test_verify_dickson_json(capsys):
    assert main(["verify-dickson", "--n", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3 and doc["passed"]


def test_sweep_csv(capsys):
    assert main(["sweep", "--range", "1..4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,q,m,K,N_pred,S_size,T_size,E_count,passed"
    assert len(lines) == 5
    assert lines[1] == "1,2,3,1,1,1,0,4,true"


def test_config_errors(capsys):
    assert main(["verify-structure", "--t", "3", "--range", "1..4"]) == 2
    assert main(["verify-structure", "--range", "4..1"]) == 2
    assert main(["verify-structure", "--range", "junk"]) == 2
    capsys.readouterr()
    # one degree past each row of the admission table
    for argv, err in [(["graph", "--t", "25"], "t=25 outside [1, 24]"),
                      (["verify-structure", "--t", "25"], "t=25 outside [1, 24]"),
                      (["verify-orders", "--n", "10"], "n=10 outside [1, 9]"),
                      (["verify-orders", "--n", "9", "--format", "json"],
                       "n=9 outside [1, 8]"),
                      (["verify-dickson", "--n", "17"], "n=17 outside [1, 16]"),
                      (["sweep", "--n", "17"], "n=17 outside [1, 16]"),
                      (["sweep", "--range", f"1..{10 ** 12}"],
                       "n=17 outside [1, 16]")]:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")
    assert set(cli.COMMANDS) == {"graph", "verify-structure", "verify-orders",
                                 "verify-dickson", "sweep"}


def test_missing_command_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unwritable_output_path(capsys):
    code = main(["graph", "--t", "2", "--out", "/nonexistent-dir/x.dot"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write /nonexistent-dir/x.dot: ")


# a missing directory fails the open; /dev/full takes the open and fails a
# write, after the first pieces of the output
UNWRITABLE = ["/nonexistent-dir/x.out"] + [
    "/dev/full"] * os.path.exists("/dev/full")


@pytest.mark.parametrize("path", UNWRITABLE)
@pytest.mark.parametrize("argv", [
    ["graph", "--t", "12", "--format", "json"],
    ["verify-orders", "--n", "5", "--format", "json"],
], ids=["graph-json", "orders-json"])
def test_unwritable_output_of_many_pieces(capsys, argv, path):
    assert main([*argv, "--out", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("argv", [
    ["graph", "--t", "12", "--format", "json"],
    ["graph", "--t", "12", "--format", "dot"],
    ["verify-orders", "--n", "5", "--format", "json"],
], ids=["graph-json", "graph-dot", "orders-json"])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    # many pieces each: one per component, or one per batch of records
    path = tmp_path / "out"
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr() == ("", "")
    assert path.read_bytes() == stdout


def test_json_output_is_streamed():
    # the json text (5.6 MB) is written as it is rendered: a joined text, or
    # every record's piece held until the end, peaks near 12 MB
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(["verify-orders", "--n", "6", "--format", "json"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 4 << 20


def _reaimed_walk(t: int, pick):
    """An installer whose unit walk of GF(2^t) sends one leaf to target, in
    its map and its in-degrees (a faulty kernel).

    pick(a_leaves, b_leaves, a_forks) -> (leaf, target) chooses from the
    correct graph's vertices, ascending: a_leaves and a_forks (the vertices
    with two children, on levels 1..d-1) leave out the infinity tree.
    """
    f = make_field(t)
    g = theta_graph.build_graph(f)
    inf_cid = g.comp_id[f.q]

    def in_a_tree(v):
        return (g.comp_id[v] != inf_cid
                and g.components[g.comp_id[v]].trace_class == "A")

    a_leaves = [v for v in g.leaf_indices() if in_a_tree(v)]
    b_leaves = [v for v in g.leaf_indices()
                if g.components[g.comp_id[v]].trace_class == "B"]
    a_forks = [v for v in range(f.q) if in_a_tree(v)
               and 1 <= g.level[v] <= f.r + 1 and g.indeg[v] == 2]
    leaf, target = pick(a_leaves, b_leaves, a_forks)
    return graph_oracle.reaimed_walk(t, {leaf: target})


def _failed_checks(out: str) -> set[str]:
    return {ln.split()[2] for ln in out.splitlines() if ln.startswith("FAIL")}


def test_structure_failure_exits_one(monkeypatch, capsys):
    # the least B-leaf of GF(2^3) aimed at the unit 1, inside infinity's tree
    _reaimed_walk(3, lambda a, b, f: (b[0], 1))(monkeypatch.setattr)
    assert main(["verify-structure", "--t", "3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "inf-tree-shape" in out


@pytest.mark.parametrize("faulty", ["gen", "gen-inverse"])
def test_broken_split_table_exits_two(monkeypatch, capsys, faulty):
    # one entry of the split tables of gen (or of 1/gen) is off by 1, so the
    # unit walk does not return to 1 after q-1 steps: a configuration error
    f = make_field(8)
    target = f.gen if faulty == "gen" else f.inv(f.gen)
    true_tables = FieldSpec.mul_tables

    def mul_tables(self, c):
        lo, hi, h = true_tables(self, c)
        if self.t == 8 and c == target:
            lo = lo[:]
            lo[5] ^= 1
        return lo, hi, h

    monkeypatch.setattr(FieldSpec, "mul_tables", mul_tables)
    assert main(["verify-structure", "--t", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: generator order mismatch\n"


@pytest.mark.parametrize("command", ["graph", "verify-structure"])
def test_split_tables_of_another_generator_exit_two(monkeypatch, capsys,
                                                    command):
    # gen's and 1/gen's split tables are those of g' = gen^7 and of 1/g':
    # both walks close and meet, but their first step goes to g', not gen
    # (without that check, graph labelled by discrete logs to g' and
    # verify-structure passed)
    f = make_field(8)
    g7 = f.pow(f.gen, 7)
    swap = {f.gen: g7, f.inv(f.gen): f.inv(g7)}
    true_tables = FieldSpec.mul_tables
    monkeypatch.setattr(FieldSpec, "mul_tables", lambda self, c: true_tables(
        self, swap.get(c, c) if self.t == 8 else c))
    assert main([command, "--t", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: split tables of {f.gen:#x} send 1 "
                            f"to {g7:#x}\n")


class _CountedTable(list):
    """A split table that counts its lookups in ``counts[key]``."""

    def __init__(self, table, counts, key):
        super().__init__(table)
        self.counts, self.key = counts, key

    def __getitem__(self, i):
        self.counts[self.key] += 1
        return list.__getitem__(self, i)


@pytest.mark.parametrize("t", [2, 5, 8, 9])
def test_structure_job_walks_each_table_once(monkeypatch, t):
    # each step reads one entry of lo, and the first-step check one more:
    # gen's tables take q-1 steps, 1/gen's (q-2)/2 and those of the half
    # field's generator h, for even t, 2^(t/2)-1
    f = make_field(t)
    gen_inv = f.inv(f.gen)
    want = {f.gen: f.q - 1, gen_inv: (f.q - 2) // 2}
    if t % 2 == 0:
        k = (1 << t // 2) - 1
        want[f.pow(f.gen, (f.q - 1) // k)] = k
    counts = Counter()
    true_tables = FieldSpec.mul_tables

    def mul_tables(self, c):
        lo, hi, h = true_tables(self, c)
        return _CountedTable(lo, counts, c), hi, h

    monkeypatch.setattr(FieldSpec, "mul_tables", mul_tables)
    assert cli._structure_job(t)["passed"]
    assert {c: n - 1 for c, n in counts.items()} == want


@pytest.mark.parametrize("command", ["graph", "verify-structure"])
def test_graph_beyond_the_index_arrays_is_refused_up_front(monkeypatch, capsys,
                                                          command):
    # array('i') holds the vertex encodings up to t = 30, so t = 31 is
    # refused even under a cap of 31, before any field is made
    def no_field(*args, **kwargs):
        raise AssertionError("make_field called")

    monkeypatch.setattr(cli, "make_field", no_field)
    monkeypatch.setenv("THETA_MAX_T", "31")
    assert main([command, "--t", "31"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t=31 outside [1, 30]\n"


LEAF_TO_ONE = {"class-preservation", "b-tree-depth", "inf-tree-shape",
               "leaf-traces"}


# Each fault with the checks it fails, as recorded from the per-level tree
# checks that the per-vertex rules replaced.
# The last fault gives an A-tree vertex a third child, an in-degree of 3;
# only the count of that extra child makes it an a-tree-shape failure.
@pytest.mark.parametrize("t, pick, want", [
    (8, lambda a, b, f: (a[0], a[1]), {"a-tree-shape"}),
    (8, lambda a, b, f: (b[0], b[1]), {"b-tree-depth"}),
    (3, lambda a, b, f: (b[0], 1), LEAF_TO_ONE),
    (8, lambda a, b, f: (b[0], 1), LEAF_TO_ONE),
    (8, lambda a, b, f: (b[0], a[0]), {"class-preservation", "a-tree-shape",
                                       "b-tree-depth", "leaf-traces"}),
    (8, lambda a, b, f: (b[0], f[0]), {"class-preservation", "a-tree-shape",
                                       "b-tree-depth", "leaf-traces"}),
], ids=["a-leaf-to-a-leaf", "b-leaf-to-b-leaf", "b-leaf-to-one-t3",
        "b-leaf-to-one-t8", "b-leaf-to-a-leaf", "b-leaf-to-a-fork"])
def test_structure_fault_matrix(monkeypatch, capsys, t, pick, want):
    _reaimed_walk(t, pick)(monkeypatch.setattr)
    assert main(["verify-structure", "--t", str(t)]) == 1
    captured = capsys.readouterr()
    assert _failed_checks(captured.out) == want
    assert "Traceback" not in captured.err


def _fault_runs(monkeypatch, capsys, fault: str, args: tuple,
                argv: list[str]):
    """(exit, stdout, stderr) of argv under the graph_oracle fault
    ``fault(*args)``, in-process and in a child under `python -O`."""
    getattr(graph_oracle, fault)(*args)(monkeypatch.setattr)
    code = main(argv)
    captured = capsys.readouterr()
    runs = [(code, captured.out, captured.err)]
    monkeypatch.undo()
    paths = [str(Path(thetamap.__file__).resolve().parents[1]),
             str(Path(__file__).resolve().parent)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (*paths, env.get("PYTHONPATH")) if p)
    child = ("import sys, graph_oracle\n"
             "from thetamap.cli import main\n"
             f"graph_oracle.{fault}(*{args!r})(setattr)\n"
             f"sys.exit(main({argv!r}))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", child],
                          capture_output=True, text=True, env=env, timeout=300)
    runs.append((proc.returncode, proc.stdout, proc.stderr))
    return runs


def test_zero_trace_mask_fails_shape_and_leaf_traces(monkeypatch, capsys):
    # every trace reads 0: every component is class A and every vertex
    # agrees, but the B-trees then break the A shape and the A leaf traces
    for code, out, err in _fault_runs(monkeypatch, capsys, "zero_trace_mask",
                                      (), ["verify-structure", "--t", "8"]):
        assert code == 1
        assert "PASS [t=8] class-preservation" in out.splitlines()
        assert [ln for ln in out.splitlines() if ln.startswith("FAIL")] == [
            "FAIL [t=8] a-tree-shape  vertex 25 on level 1 has 0 children",
            "FAIL [t=8] leaf-traces  A-leaf 25 has traces (0, 0)"]
        assert "Traceback" not in err


def test_inverse_trace_fault_names_the_oracle_witness(monkeypatch, capsys):
    # Tr(1/x) of one vertex flipped: class-preservation names that vertex,
    # as the per-vertex oracle does, and every table check agrees with it
    args = (make_field(8).exp_of(100), 8)
    graph_oracle.wrong_inverse_at(*args)(monkeypatch.setattr)
    g = theta_graph.build_graph(make_field(8))
    want = graph_oracle.oracle_checks(g)
    assert want[0] == {"name": "class-preservation", "pass": False,
                       "detail": "witness 100"}
    assert graph_oracle.table_records(g) == want
    monkeypatch.undo()
    for code, out, err in _fault_runs(monkeypatch, capsys, "wrong_inverse_at",
                                      args, ["verify-structure", "--t", "8"]):
        assert code == 1
        assert "FAIL [t=8] class-preservation  witness 100" in out.splitlines()
        assert "Traceback" not in err


def test_subfield_leaf_fails_leaf_degree(monkeypatch, capsys):
    # two units of GF(2^4) lose their predecessors: the one the subfield
    # walk gen^17, gen^34, ... meets first, and the least one; the least is
    # named, with its degree, as the per-leaf oracle names it
    f = make_field(8)
    sub = f.powers(f.pow(f.gen, 17), 14)[1:]
    targets = [sub[0], min(sub)]
    assert targets[0] != targets[1]
    detail = f"leaf {f.dlog(targets[1])} has degree {f.degree(targets[1])}"
    graph_oracle.subfield_leaves(8, targets)(monkeypatch.setattr)
    g = theta_graph.build_graph(make_field(8))
    assert [g.indeg[y] for y in targets] == [0, 0]
    want = graph_oracle.oracle_checks(g)
    assert want[2] == {"name": "leaf-degree", "pass": False, "detail": detail}
    assert graph_oracle.table_records(g) == want
    monkeypatch.undo()
    for code, out, err in _fault_runs(monkeypatch, capsys, "subfield_leaves",
                                      (8, targets),
                                      ["verify-structure", "--t", "8"]):
        assert code == 1
        assert f"FAIL [t=8] leaf-degree  {detail}" in out.splitlines()
        assert "Traceback" not in err


def test_wide_fault_exits_one(monkeypatch, capsys):
    # 300 tree vertices of GF(2^9) aimed at one B-root: an in-degree past
    # one byte is a fault like any other, with the oracle's records
    args = (9, 300)
    graph_oracle.crowded_b_root(*args)(monkeypatch.setattr)
    g = theta_graph.build_graph(make_field(9))
    assert max(g.indeg) > 300
    want = graph_oracle.oracle_records(g)
    assert theta_graph.verify_structure(g).records() == want
    monkeypatch.undo()
    lines = [f"FAIL [t=9] {r['name']}  {r['detail']}" for r in want
             if not r["pass"]]
    for code, out, err in _fault_runs(monkeypatch, capsys, "crowded_b_root",
                                      args, ["verify-structure", "--t", "9"]):
        assert code == 1
        assert _failed_lines(out) == lines
        assert "Traceback" not in err


def test_walk_counting_past_a_byte_is_refused_cleanly(monkeypatch, capsys):
    # 1/gen's split tables are gen's: the walk of GF(2^9) sends every unit
    # to 0 and counts 511 predecessors of it, which widens its one-byte
    # counts instead of raising OverflowError; then its closure check
    # refuses the half walk that missed gen's, and the run exits 2
    graph_oracle.self_inverse_generator()(monkeypatch.setattr)
    with pytest.raises(FieldError, match="^generator order mismatch$"):
        theta_graph.unit_walk(make_field(9))
    monkeypatch.undo()
    for code, out, err in _fault_runs(monkeypatch, capsys,
                                      "self_inverse_generator", (),
                                      ["verify-structure", "--t", "9"]):
        assert (code, out, err) == (2, "", "error: generator order mismatch\n")


def test_leaf_degree_of_a_squaring_that_never_returns_is_a_record(
        monkeypatch, capsys, tmp_path):
    # a unit of GF(2^4) loses its predecessors, and once the graph is built
    # squaring sends everything to q, so the witness's degree is never
    # found: the detail says so, the report is written, and the run exits 1
    f = make_field(8)
    target = f.pow(f.gen, 17)
    graph_oracle.subfield_leaves(8, [target])(monkeypatch.setattr)
    true_build = cli.build_graph

    def build_graph(spec):
        g = true_build(spec)
        monkeypatch.setattr(FieldSpec, "sqr", lambda self, a: self.q)
        return g

    monkeypatch.setattr(cli, "build_graph", build_graph)
    path = tmp_path / "report.txt"
    assert main(["verify-structure", "--t", "8", "--out", str(path)]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    lines = path.read_text().splitlines()
    assert ("FAIL [t=8] leaf-degree  leaf 17 does not return under 8 "
            "squarings") in lines


def _unclosed_powers(monkeypatch, t, k):
    """``FieldSpec.powers`` whose walk [c^0, ..., c^k] in GF(2^t) ends one
    bit away from 1."""
    true_powers = FieldSpec.powers

    def unclosed(self, c, m):
        out = true_powers(self, c, m)
        if (self.t, m) == (t, k):
            out[m] ^= 2
        return out

    monkeypatch.setattr(FieldSpec, "powers", unclosed)


def _failed_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.startswith("FAIL")]


def test_leaf_degree_walk_closure_fault_is_a_record(monkeypatch, capsys):
    # the walk h^0, ..., h^63 of GF(2^6)* inside GF(2^12) does not close
    _unclosed_powers(monkeypatch, 12, 63)
    assert main(["verify-structure", "--t", "12"]) == 1
    captured = capsys.readouterr()
    assert _failed_lines(captured.out) == [
        "FAIL [t=12] leaf-degree  GF(2^6)* walk: h^63 = 0x3, not 1"]
    assert "Traceback" not in captured.err


def test_cq1_walk_closure_fault_is_a_record(monkeypatch, capsys):
    # the walk h^0, ..., h^9 of C_(q+1) in GF(q^2) (n = 3) does not close:
    # the set checks have no C_(q+1) to read, the per-seed checks pass
    _unclosed_powers(monkeypatch, 6, 9)
    assert main(["verify-orders", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert _failed_lines(captured.out) == [
        "FAIL [n=3] subgroup-closure  C_(q+1) walk: h^9 = 0x3, not 1"]
    assert "Traceback" not in captured.err


def test_orders_failure_exits_one(monkeypatch, capsys):
    # every trace mask empty: every trace, at every level, reads 0
    monkeypatch.setattr(FieldSpec, "trace_mask", lambda self, d: 0)
    assert main(["verify-orders", "--n", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_special_point_before_l_plus_3_is_a_record(monkeypatch, capsys):
    # a faulty inverse in GF(q^2) sends one first iterate to itself, so its
    # second iterate is x + x = 0: the theory puts only units at indices
    # 1..l+2
    first = profile_tail(seed_walk(make_tower(2)), 1)[0].point
    true_inv = FieldSpec.inv
    monkeypatch.setattr(FieldSpec, "inv", lambda self, a: (
        a if self.t == 4 and a == first else true_inv(self, a)))
    assert main(["verify-orders", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert "FAIL [n=2] case-tables" in captured.out
    assert "Traceback" not in captured.err


def _seed_generator(monkeypatch, tower, e):
    """h = gen^e in place of gen^(q^2-1): the one ``pow`` of the seed walk
    in the tower's ambient gives another element."""
    graph_oracle.seed_generator(tower.ambient.t, tower.q ** 2 - 1, e)(
        monkeypatch.setattr)


def test_subgroup_closure_fault_is_a_record(monkeypatch, capsys):
    # h = gen^17 (n = 2) lies in GF(q^2)*, of order 15: f(h) is in GF(q^2),
    # but D_17(f(h)) = h^17 + h^-17 = h^2 + h^-2 is not 0
    tower = make_tower(2)
    ambient = tower.ambient
    z = ambient.pow(ambient.gen, 17 * 17)
    emb = span_table(subfield_embedding(tower.double, ambient))
    value = emb.index(z ^ ambient.inv(z))
    assert value != 0
    _seed_generator(monkeypatch, tower, 17)
    assert main(["verify-orders", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (f"FAIL [n=2] subgroup-closure  h has not order "
                            f"17: D_17(f(h)) = {value:#x}\n"
                            "result: FAILURES present\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("p, k", [(5, 13), (13, 5)])
def test_seed_of_lower_order_is_a_closure_record(monkeypatch, capsys, p, k):
    # h of order (q^2+1)/p = k (n = 3, q^2+1 = 65 = 5 * 13): D_65(f(h)) = 0,
    # but so is D_k(f(h))
    tower = make_tower(3)
    _seed_generator(monkeypatch, tower, 63 * p)
    assert main(["verify-orders", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == (f"FAIL [n=3] subgroup-closure  h has not order "
                            f"65: D_{k}(f(h)) = 0x0\n"
                            "result: FAILURES present\n")
    assert "Traceback" not in captured.err


def test_label_walk_closure_fault_is_a_record(monkeypatch, capsys):
    # the ambient walk h^0, ..., h^4097 of the hex labels (n = 6) ends one
    # bit away from 1; text output makes no such walk and passes
    _unclosed_powers(monkeypatch, 24, 4097)
    assert main(["verify-orders", "--n", "6"]) == 0
    capsys.readouterr()
    assert main(["verify-orders", "--n", "6", "--format", "json"]) == 1
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["profiles"] == []
    assert doc["counts"] == {"H1": 0, "H2": 0, "H3": 0}
    assert doc["checks"] == [{"name": "subgroup-closure", "pass": False,
                              "detail": "h^4097 = 0x3, not 1"}]
    assert "Traceback" not in captured.err


def test_first_iterate_pullback_fault_is_a_record(monkeypatch, capsys):
    # the embedding of GF(q^2) skewed off the subfield at the first iterate
    # of the seed h^1, by the ambient generator on one basis image that
    # iterate has: f(h) no longer pulls back.  The seed walk asks
    # theta_graph's norm-one Dickson helper for the embedding
    tower = make_tower(2)
    first = profile_tail(seed_walk(tower), 1)[0].point
    graph_oracle.skewed_embedding(
        4, 8, graph_oracle.parity_mask(4, ones=[first]), tower.ambient.gen)(
        monkeypatch.setattr)
    assert main(["verify-orders", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ("FAIL [n=2] first-iterate-pullback  witness 0xa "
                            "of GF(2^8) outside GF(2^4)\n"
                            "result: FAILURES present\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("swap, detail", [
    (False, "gen^17: witness 0x98 of GF(2^8) outside GF(2^4)"),
    (True, "gen^17: base is not invertible for the given modulus"),
], ids=["outside", "no-unit"])
def test_label_pullback_fault_is_a_record(monkeypatch, capsys, swap, detail):
    # the json labels pull gen^17, the image of GF(q^2)'s generator, back
    # for k0 (n = 2).  A mask c with parity(c & gen) = parity(c & gen^5) = 1
    # and parity(c & b) = 0, b the preimage of f(h), picks the basis images
    # that gain e.  With e the ambient generator, outside GF(q^2), gen^17
    # leaves their span.  With e the image of gen + gen^5, the embedding is
    # the true one after the involution that swaps gen and gen^5, so gen^17
    # pulls back to gen^5, of order 3, whose log 5 has no inverse modulo
    # 15.  f(h) still pulls back to b, so the text output passes.  The
    # labels read the basis the seed walk got from theta_graph's norm-one
    # Dickson helper
    tower = make_tower(2)
    gen = tower.double.gen
    fifth = tower.double.pow(gen, 5)
    b = seed_walk(tower).values[1]
    assert b not in (gen, gen ^ 1, fifth)
    emb = span_table(subfield_embedding(tower.double, tower.ambient))
    graph_oracle.skewed_embedding(
        4, 8, graph_oracle.parity_mask(4, ones=[gen, fifth], zeros=[b]),
        emb[gen ^ fifth] if swap else tower.ambient.gen)(monkeypatch.setattr)
    assert main(["verify-orders", "--n", "2"]) == 0
    capsys.readouterr()
    assert main(["verify-orders", "--n", "2", "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    doc = json.loads(captured.out)
    assert doc["profiles"] == []
    assert doc["checks"] == [
        {"name": "first-iterate-pullback", "pass": False, "detail": detail}]


def test_non_leader_recurrence_fault_is_a_record(monkeypatch, capsys):
    # one wrong step of the recurrence, at f(h^2) (n = 3): seed 2 is in the
    # orbit of seed 1, so no profile reads its first iterate, but the error
    # carries on to D_65(f(h))
    tower = make_tower(3)
    assert next(doubling_orbits(tower.q ** 2 + 1))[:2] == [1, 2]
    true_values = FieldSpec.dickson_values
    got = []

    def corrupted(self, x, m):
        values = true_values(self, x, m)
        if self.t == 6:
            values[2] ^= 1
            for k in range(3, m + 1):
                values[k] = self.mul(x, values[k - 1]) ^ values[k - 2]
            got.append(values)
        return values

    monkeypatch.setattr(FieldSpec, "dickson_values", corrupted)
    assert main(["verify-orders", "--n", "3"]) == 1
    captured = capsys.readouterr()
    assert len(got) == 1 and got[0][65] != 0
    assert captured.out == (
        f"FAIL [n=3] subgroup-closure  h has not order 65: D_65(f(h)) = "
        f"{got[0][65]:#x}\n"
        "result: FAILURES present\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("leader, case_id, index, field, value, failing", [
    (23, 1, 3, "tr", 1, ["case-tables", "forced-traces"]),
    (23, 1, 3, "order", 5, ["case1-subcases"]),
    (1, 3, 1, "order", 17, ["h-partition", "case-tables", "order-bound"]),
], ids=["forced-traces", "case1-subcases", "order-bound"])
def test_per_seed_fault_fails_its_own_records(monkeypatch, capsys, leader,
                                              case_id, index, field, value,
                                              failing):
    # n = 4: l = 2, sqrt(q) = 4 and p1 * p2 = 17 * 3.  In the class-1 tail
    # of leader 23, Tr = 1 breaks the forced (0, 0) pair and its case-table
    # row; order 5 still divides q-1, but not sqrt(q)-1, as its sub-case 2
    # needs.  Order 17 at index 1 of the class-3 leader 1 is below 51, not
    # mixed, and no order its row admits.  Every member of the orbit fails.
    tower = make_tower(4)
    orbit = next(o for o in doubling_orbits(tower.q ** 2 + 1)
                 if o[0] == leader)
    true_classify = order_dynamics.classify_H

    def broken(walk, j, tail):
        prof = true_classify(walk, j, tail)
        if j == leader:
            assert prof.h_class.value == case_id
            assert getattr(prof.steps[index], field) != value
            prof.steps[index] = prof.steps[index]._replace(**{field: value})
        return prof

    monkeypatch.setattr(order_dynamics, "classify_H", broken)
    assert main(["verify-orders", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert _failed_lines(captured.out) == [
        f"FAIL [n=4] {name}  failing seed exponents {sorted(orbit)[:5]}"
        for name in failing]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_each_leader_is_judged_before_the_next_is_profiled(monkeypatch,
                                                           capsys, fmt):
    # one pass over the Frobenius orbits: each leader is profiled, judged
    # and, for json, recorded before the next leader's profile is built
    events = []
    true_classify = order_dynamics.classify_H
    true_verdicts = order_dynamics._seed_verdicts

    def classify(walk, j, tail):
        events.append(("profile", j))
        return true_classify(walk, j, tail)

    def verdicts(prof):
        events.append(("judge", prof.exponent))
        return true_verdicts(prof)

    monkeypatch.setattr(order_dynamics, "classify_H", classify)
    monkeypatch.setattr(order_dynamics, "_seed_verdicts", verdicts)
    steps = ["profile", "judge"]
    if fmt == "json":
        true_add = ProfileRecords.add

        def add(self, orbit, prof):
            events.append(("record", prof.exponent))
            true_add(self, orbit, prof)

        monkeypatch.setattr(ProfileRecords, "add", add)
        steps.append("record")
    assert main(["verify-orders", "--n", "4", "--format", fmt]) == 0
    capsys.readouterr()
    leaders = [orbit[0] for orbit in doubling_orbits(257)]
    assert len(leaders) == 16
    assert events == [(step, j) for j in leaders for step in steps]


@pytest.mark.parametrize("workers", ["0", "-4"])
@pytest.mark.parametrize("command", ["verify-structure", "verify-orders",
                                     "verify-dickson", "sweep"])
def test_workers_below_one_is_refused_before_any_job(monkeypatch, capsys,
                                                     command, workers):
    def no_run(config):
        raise AssertionError("a job ran")

    monkeypatch.setattr(cli, "run", no_run)
    flag = cli.COMMANDS[command].flag
    assert main([command, f"--{flag}", "3", "--workers", workers]) == 2
    assert capsys.readouterr() == (
        "", f"error: --workers={workers} is below 1\n")


@pytest.mark.parametrize("argv, err", [
    (["verify-orders", "--n", "10"], "n=10 outside [1, 9]"),
    (["verify-orders", "--n", "9", "--format", "json"], "n=9 outside [1, 8]"),
    (["verify-orders", "--range", "8..9", "--format", "json"],
     "n=9 outside [1, 8]"),
], ids=["text-10", "json-9", "json-8..9"])
def test_orders_size_past_its_format_cap_exits_two_up_front(
        monkeypatch, capsys, argv, err):
    # refused before any job: no tower is built, nothing is printed
    def no_work(n):
        raise AssertionError(f"tower {n} built")

    monkeypatch.setattr(cli, "make_tower", no_work)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", f"error: {err}\n")


@pytest.mark.parametrize("command", ["verify-orders", "verify-dickson"])
def test_low_degree_cap_is_refused_before_any_job(monkeypatch, capsys,
                                                    command):
    # GF(2^n) obeys THETA_MAX_T, so n=4 is refused before n=1..3 run
    monkeypatch.setenv("THETA_MAX_T", "3")
    assert main([command, "--range", "1..5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n=4 outside [1, 3]\n"


def test_library_constructors_ignore_the_degree_cap(monkeypatch):
    # THETA_MAX_T is read by the command line only
    monkeypatch.setenv("THETA_MAX_T", "3")
    assert make_field(25).t == 25
    assert make_tower(2).ambient.t == 8
    assert dickson_curve.dickson_report(make_field(4))["passed"]


def test_degree_cap_applies_to_the_named_field_only(monkeypatch, capsys):
    # GF(2^5) and GF(2^9) are within the cap; the internal GF(2^20) and
    # GF(2^18) are not, and must not be refused
    monkeypatch.setenv("THETA_MAX_T", "16")
    for argv, digest in [
        (["verify-orders", "--n", "5", "--format", "json"],
         "2151b698c14e7a4c9de42453fd74567fd690105f1bae8b2c947928be8dd7270e"),
        (["verify-dickson", "--n", "9"],
         "451fc0f110d1e0719e87c836253520614622570c18fd4122aad08acfdcfdc6d8"),
    ]:
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dickson_failure_exits_one(monkeypatch, capsys):
    true_k = dickson_curve.kloosterman
    monkeypatch.setattr(dickson_curve, "kloosterman",
                        lambda spec: true_k(spec) + 4)
    assert main(["verify-dickson", "--n", "4"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "kloosterman-count" in out


def test_kloosterman_fault_is_a_record(monkeypatch, capsys):
    # K+4 keeps q+1+K divisible by 4 and |K| within the Weil and Hasse
    # bounds, so only the count against |S| fails, and |E| = q+1+K against
    # the enumeration of the curve
    true_k = dickson_curve.kloosterman
    monkeypatch.setattr(dickson_curve, "kloosterman",
                        lambda spec: true_k(spec) + 4)
    doc = dickson_curve.dickson_report(make_field(6))
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == [
        "kloosterman-count", "curve-count-oracle"]
    assert main(["verify-dickson", "--n", "6"]) == 1
    captured = capsys.readouterr()
    assert "FAIL [n=6] kloosterman-count" in captured.out
    assert "Traceback" not in captured.err


def test_dickson_bound_failures_are_records(monkeypatch, capsys):
    # every trace mask empty: every trace, at every level, reads 0
    monkeypatch.setattr(FieldSpec, "trace_mask", lambda self, d: 0)
    assert main(["verify-dickson", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert "FAIL [n=4] weil-bound" in captured.out
    assert "FAIL [n=4] hasse-bound" in captured.out
    assert "Traceback" not in captured.err


def _flip_embedded_root(monkeypatch):
    # the one preimage the root image reads: b, of f(h) = h + 1/h, h =
    # gen^15 of order 17 in GF(2^8); the ambient generator added to one
    # basis image that b has skews the embedding off the subfield at b
    double = make_field(8)
    h = double.pow(double.gen, 15)
    root = span_table(subfield_embedding(make_field(4), double)).index(
        h ^ double.inv(h))
    assert root in dickson_curve._root_bits(make_field(4), 17)
    graph_oracle.skewed_embedding(
        4, 8, graph_oracle.parity_mask(4, ones=[root]), double.gen)(
        monkeypatch.setattr)


def _drop_least_root(monkeypatch):
    true_root_bits = dickson_curve._root_bits
    monkeypatch.setattr(dickson_curve, "_root_bits",
                        lambda spec, m: (r := true_root_bits(spec, m)) - {min(r)})


def _faulty_subfield(monkeypatch, fault, module=theta_graph, degrees=None):
    """Each embedding that `module` asks for, or only that of GF(2^d) in
    GF(2^t) when `degrees` is (d, t), is asked for a copy of the subfield
    with `fault` applied: a modulus or a generator that a sound kernel never
    has."""
    true_embedding = module.subfield_embedding

    def embedding(sub, ambient):
        if degrees not in (None, (sub.t, ambient.t)):
            return true_embedding(sub, ambient)
        bad = FieldSpec(sub.t, sub.modulus, sub.gen)
        fault(bad)
        return true_embedding(bad, ambient)

    monkeypatch.setattr(module, "subfield_embedding", embedding)


def _rootless_modulus(monkeypatch):
    # x * (x^3 + x + 1): its roots lie in GF(2) and GF(2^3), none in GF(2^4)*
    _faulty_subfield(monkeypatch, lambda bad: setattr(bad, "modulus", 0x16))


def _generator_of_order_five(monkeypatch):
    _faulty_subfield(monkeypatch,
                     lambda bad: setattr(bad, "gen", bad.pow(bad.gen, 3)))


# the root image of GF(2^4) at m = 17: h = gen^255 = 1 in place of gen^15,
# so b = f(h) = 0 and D_1(b) = 0 as well as D_17(b); one bit flipped at D_2
# of GF(2^4), which the recurrence carries on to D_17(b)
ROOT_IMAGE_FAULTS = {
    "seed_generator": ((8, 15, 255), "h has not order 17: D_1(f(h)) = 0x0"),
    "wrong_dickson_step": ((4, 17, 2), "h has not order 17: D_17(f(h)) = 0x1"),
}


def _lower_order_generator(monkeypatch):
    args, _ = ROOT_IMAGE_FAULTS["seed_generator"]
    graph_oracle.seed_generator(*args)(monkeypatch.setattr)


def _wrong_dickson_step(monkeypatch):
    args, _ = ROOT_IMAGE_FAULTS["wrong_dickson_step"]
    graph_oracle.wrong_dickson_step(*args)(monkeypatch.setattr)


@pytest.mark.parametrize("fault, witness", [
    (_flip_embedded_root, "witness 0xa of GF(2^8) outside GF(2^4)"),
    (_lower_order_generator, ROOT_IMAGE_FAULTS["seed_generator"][1]),
    (_wrong_dickson_step, ROOT_IMAGE_FAULTS["wrong_dickson_step"][1]),
    (_drop_least_root, "witness bits 0x2"),
    (_rootless_modulus, "modulus 0x16 of GF(2^4) has no root among the "
                        "powers of 0x98 in GF(2^8)"),
    (_generator_of_order_five, "embedded generator 0xa of GF(2^4) has "
                               "order 5 in GF(2^8), not 15"),
])
def test_root_image_fault_is_a_record(monkeypatch, capsys, fault, witness):
    fault(monkeypatch)
    assert main(["verify-dickson", "--n", "4"]) == 1
    captured = capsys.readouterr()
    line = next(ln for ln in captured.out.splitlines()
                if "root-image-equality" in ln)
    assert line.startswith("FAIL [n=4] root-image-equality")
    assert line.endswith(witness)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("fault", list(ROOT_IMAGE_FAULTS))
def test_root_image_fault_is_a_record_under_python_O(monkeypatch, capsys,
                                                     fault):
    # the two faults the norm-one Dickson path can meet past the embedding,
    # in-process and in a child under `python -O`: one failed record, exit 1
    args, witness = ROOT_IMAGE_FAULTS[fault]
    for code, out, err in _fault_runs(monkeypatch, capsys, fault, args,
                                      ["verify-dickson", "--n", "4"]):
        assert code == 1
        [line] = _failed_lines(out)
        assert line.startswith("FAIL [n=4] root-image-equality  |roots|=8 ")
        assert line.endswith(f" {witness}")
        assert "Traceback" not in err


def test_wrong_ladder_value_at_a_leader_is_a_record(monkeypatch, capsys):
    # D_17 is 1, not 0, at the leader 0x2 = gen^1 of GF(2^4): the root scan
    # drops the orbit {0x2, 0x4, 0x3, 0x5}, which is all of T
    true_ladder = dickson_curve._dickson_ladder
    monkeypatch.setattr(
        dickson_curve, "_dickson_ladder",
        lambda spec, m, x: 1 if (m, x) == (17, 2) else true_ladder(spec, m, x))
    assert main(["verify-dickson", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert [ln.split()[2] for ln in captured.out.splitlines()
            if ln.startswith("FAIL")] == ["t-emptiness", "root-image-equality"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("module, degrees, names, witness", [
    (theta_graph, (4, 8), ["first-iterate-pullback"],
     "embedded generator 0xa of GF(2^4) has order 5 in GF(2^8), not 15"),
    (order_dynamics, (2, 4), ["a11-image", "a00-image", "b01-image",
                              "b10-image"],
     "embedded generator 0x1 of GF(2^2) has order 1 in GF(2^4), not 3"),
], ids=["double-in-ambient", "base-in-double"])
def test_orders_embedding_fault_is_a_record(monkeypatch, capsys, module,
                                            degrees, names, witness):
    # verify-orders --n 2 embeds GF(2^4) in GF(2^8) for the seeds' first
    # iterates, asked for by theta_graph's norm-one Dickson helper, and
    # GF(2^2) in GF(2^4) for the trace quadrants, asked for by
    # order_dynamics; each is asked for its field with the generator cubed
    # (order 5, resp. 1)
    _faulty_subfield(monkeypatch,
                     lambda bad: setattr(bad, "gen", bad.pow(bad.gen, 3)),
                     module, degrees)
    assert main(["verify-orders", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert [ln for ln in captured.out.splitlines() if ln.startswith("FAIL")] \
        == [f"FAIL [n=2] {name}  {witness}" for name in names]
    assert "Traceback" not in captured.err


def test_closed_form_integrality_fault_is_a_record(monkeypatch, capsys):
    # C(m-i, i) + 1 breaks m/(m-i) * C(m-i, i) first at m = 3, i = 1
    monkeypatch.setattr(dickson_curve, "comb",
                        lambda a, b: math.comb(a, b) + 1)
    doc = dickson_curve.dickson_report(make_field(4))
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == [
        "closed-form-equivalence"]
    assert main(["verify-dickson", "--n", "4"]) == 1
    captured = capsys.readouterr()
    assert ("FAIL [n=4] closed-form-equivalence  m=3: the binomial "
            "coefficient of x^1 is not an integer\n") in captured.out
    assert "Traceback" not in captured.err


class _WrongInverse(FieldSpec):
    """A field whose inverse is off by one bit (a faulty kernel)."""

    def inv(self, a):
        return super().inv(a) ^ 1


@pytest.mark.parametrize("n", [3, 9])     # exhaustive and random pairs
def test_identity_fault_is_a_record(monkeypatch, capsys, n):
    true_make_field = dickson_curve.make_field

    def wrong_inverse_field(t, **kwargs):
        f = true_make_field(t, **kwargs)
        return _WrongInverse(f.t, f.modulus, f.gen)

    # dickson_curve builds only the double field GF(2^(2n)) itself.  The
    # root image reads b = h + 1/h with that field's inverse: b is one off,
    # so the root image fails with the identity
    monkeypatch.setattr(dickson_curve, "make_field", wrong_inverse_field)
    assert not dickson_curve._identity_check(
        make_field(n), dickson_curve.make_field(2 * n), random.Random(0))
    doc = dickson_curve.dickson_report(make_field(n))
    assert [c["name"] for c in doc["checks"] if not c["pass"]] == [
        "root-image-equality", "identity-on-double-field"]
    assert main(["verify-dickson", "--n", str(n)]) == 1
    captured = capsys.readouterr()
    assert f"FAIL [n={n}] root-image-equality" in captured.out
    assert f"FAIL [n={n}] identity-on-double-field" in captured.out
    assert "Traceback" not in captured.err


def _walk_with_third_predecessor(t: int):
    """An installer whose unit walk of GF(2^t) re-aims one leaf at a vertex
    that already has two predecessors (possible only for a faulty kernel)."""
    walk = theta_graph.unit_walk(make_field(t))
    succ = {x: walk.succ[x] for x in range(1, 1 << t)}
    indegree = Counter(succ.values())
    target = min(v for v, k in indegree.items() if k == 2)
    leaf = min(x for x in succ if x not in indegree and succ[x] != target)
    return graph_oracle.reaimed_walk(t, {leaf: target})


def test_third_predecessor_is_kept(monkeypatch, capsys):
    _walk_with_third_predecessor(8)(monkeypatch.setattr)
    g = theta_graph.build_graph(make_field(8))
    assert max(g.indeg) == 3
    want = graph_oracle.decompose(g.field, list(g.succ))
    assert (list(g.indeg), list(g.level), g.comp_id) == (
        list(want.indeg), want.level, want.comp_id)
    # the DOT export draws every vertex's edge once, the third child's too
    edges = "".join(theta_graph.to_dot(g)).splitlines()
    assert len(set(ln for ln in edges if "->" in ln)) == g.field.q + 1
    assert main(["verify-structure", "--t", "8"]) == 1
    captured = capsys.readouterr()
    assert any(ln.startswith("FAIL [t=8]") for ln in captured.out.splitlines())
    assert "Traceback" not in captured.err


@pytest.fixture
def pool_sizes(monkeypatch):
    """The number of workers forked by each `cli._map_jobs` call that forks
    any, while the test runs."""
    sizes = []
    real_fork, real_map = os.fork, cli._map_jobs

    def fork():
        pid = real_fork()
        if pid:
            sizes[-1] += 1
        return pid

    def map_jobs(*args):
        sizes.append(0)
        try:
            return real_map(*args)
        finally:
            if not sizes[-1]:
                sizes.pop()

    monkeypatch.setattr(os, "fork", fork)
    # `cli.run` looks the function up at call time
    monkeypatch.setattr(cli, "_map_jobs", map_jobs)
    return sizes


@pytest.mark.parametrize("workers, cpus, want", [
    ("1000000", 4, [3]),       # capped by the three jobs
    ("1000000", 2, [2]),       # capped by the usable CPUs
    ("2", 4, [2]),
    ("1000000", 1, []),        # one CPU: no fork at all
])
def test_pool_size_is_capped(monkeypatch, capsys, pool_sizes, workers, cpus,
                             want):
    monkeypatch.setattr(cli.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    assert main(["verify-dickson", "--range", "1..3",
                 "--workers", workers]) == 0
    assert pool_sizes == want
    capsys.readouterr()


@pytest.mark.parametrize("cpus, want", [(2, [2]), (None, [])])
def test_pool_size_without_sched_getaffinity(monkeypatch, capsys, pool_sizes,
                                             cpus, want):
    # macOS and Windows have no sched_getaffinity: the CPU count stands in,
    # and an unknown count means one CPU
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert main(["verify-dickson", "--range", "1..3",
                 "--workers", "1000000"]) == 0
    assert pool_sizes == want
    capsys.readouterr()


def test_no_run_loads_a_pool_or_threads():
    # the workers are forked by `cli` itself: no run, on one worker or two,
    # loads multiprocessing, concurrent.futures or threading, so no thread
    # is running when a worker is forked
    src = str(Path(thetamap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import os, sys\n"
            "before = set(sys.modules)\n"
            "from thetamap.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks, real_fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or real_fork()\n"
            "for workers in '1', '2':\n"
            "    assert main(['verify-dickson', '--range', '1..3',\n"
            "                 '--workers', workers]) == 0\n"
            "print(len(forks), sorted(\n"
            "    m for m in set(sys.modules) - before if m.split('.')[0] in\n"
            "    ('multiprocessing', 'concurrent', 'threading')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[-1] == "2 []"


@pytest.fixture
def two_workers(monkeypatch, pool_sizes):
    """Two usable CPUs and a 60 s alarm for the test.  Afterwards no child
    process is left and no descriptor is left open."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    fds = sorted(os.listdir("/dev/fd"))

    def timeout(signum, frame):
        raise TimeoutError("the run took over 60 s")

    handler = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        yield pool_sizes
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir("/dev/fd")) == fds


def test_a_job_error_exits_two_on_two_workers_as_on_one(monkeypatch, capsys,
                                                        two_workers):
    true_job = cli._dickson_job

    def job(args):
        if args[0] == 2:
            raise FieldError("no field today")
        return true_job(args)

    monkeypatch.setattr(cli, "_dickson_job", job)
    seen = []
    for workers in ("1", "2"):
        assert main(["verify-dickson", "--range", "1..3",
                     "--workers", workers]) == 2
        seen.append(capsys.readouterr())
    assert seen[0] == seen[1] == ("", "error: no field today\n")
    assert two_workers == [2]


def test_a_killed_worker_exits_two_without_traceback(monkeypatch, capsys,
                                                     two_workers):
    true_job, parent = cli._dickson_job, os.getpid()

    def job(args):
        if args[0] == 2 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return true_job(args)

    monkeypatch.setattr(cli, "_dickson_job", job)
    assert main(["verify-dickson", "--range", "1..3", "--workers", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(r"error: worker process \d+ ended by signal "
                        rf"{int(signal.SIGKILL)}\n", err)
    assert two_workers == [2]


def test_a_kernel_fault_fails_the_same_on_two_workers(monkeypatch, capsys,
                                                      two_workers):
    # patched before the fork, so every worker inherits it
    true_k = dickson_curve.kloosterman
    monkeypatch.setattr(dickson_curve, "kloosterman",
                        lambda spec: true_k(spec) + 4)
    seen = []
    for workers in ("1", "2"):
        assert main(["verify-dickson", "--range", "1..4",
                     "--workers", workers]) == 1
        seen.append(capsys.readouterr())
    assert seen[0] == seen[1]
    assert "FAIL [n=4] kloosterman-count" in seen[0].out
    assert seen[0].err == ""
    assert two_workers == [2]


def test_an_interrupted_run_leaves_no_worker(monkeypatch, capsys,
                                            two_workers):
    # the parent is interrupted while a worker sleeps: it must kill that
    # worker before the interrupt leaves `_map_jobs`
    true_job, parent = cli._dickson_job, os.getpid()

    def job(args):
        if args[0] == 3 and os.getpid() != parent:
            time.sleep(60)
        return true_job(args)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_dickson_job", job)
    signal.signal(signal.SIGALRM, interrupt)    # `two_workers` restores it
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(["verify-dickson", "--range", "1..4", "--workers", "2"])
    assert time.monotonic() - start < 30
    assert capsys.readouterr().out == ""
    assert two_workers == [2]


def test_cold_start_loads_no_dataclasses_or_inspect():
    # `dataclasses` pulls in `inspect`, and with it `ast`, `dis` and
    # `tokenize`, which no command needs.  pytest loads `inspect` itself,
    # so the run is a fresh interpreter
    src = str(Path(thetamap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys\n"
            "from thetamap.cli import main\n"
            "assert main(['verify-structure', '--t', '4']) == 0\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines()[-1] == "[]"


# sha256 of stdout for every command and format at small sizes: a change to
# any check name, verdict, label, number or key order shows here.
OUTPUT_DIGESTS = [
    (["graph", "--t", "6", "--format", "dot"],
     "7841a215f9c011c57e2ef4dea905d07fd5c9639e348497ebf1aef1783f1dc394"),
    (["graph", "--t", "6", "--format", "json"],
     "f3be7d53856cb048317876076932e60f6f472ab4931dc9dccabaed24ae4a13bd"),
    (["verify-structure", "--range", "1..10", "--format", "text"],
     "7e975f43b61bacab724c2dd3e0b27e681608465049fe4483f4f2172a3e36e24d"),
    (["verify-structure", "--range", "1..10", "--format", "json"],
     "e09f9dc8cfbd871b6305aa1e4efea4922cd8229a1adaddf647f4ea6360099717"),
    (["verify-orders", "--range", "1..3", "--format", "text"],
     "b39479305aefc8e36fbff66c836dc075206ad0cba997c6ef2da0259f80c5da75"),
    (["verify-orders", "--range", "1..3", "--format", "json"],
     "46e81d1eddeb5e3d7e325c52fc6d0e8cebf9c5f9cf337ed036d38b59fe70067c"),
    (["verify-dickson", "--range", "1..6", "--format", "text"],
     "aad9dbd51175637fcacee254f441d9ddc941c9355a7237e6ae5f681261bafd5e"),
    (["verify-dickson", "--range", "1..6", "--format", "json"],
     "4f7a14f6c74b96344e10966c710d058a72c8ed53ce86f8e977d0d6b7d48ac685"),
    (["sweep", "--range", "1..6", "--format", "csv"],
     "b28ee51aefd4f81ed3c51df55a8118fcbabf7d03a455d50d2b1a16ffaac353c2"),
    (["sweep", "--range", "1..6", "--format", "json"],
     "4f7a14f6c74b96344e10966c710d058a72c8ed53ce86f8e977d0d6b7d48ac685"),
    # export order with many roots per cycle (depths 5 and 4)
    (["graph", "--t", "8", "--format", "dot"],
     "b3617a97820302ff86b13394da7880f985c34e78edb50715b9b64e4ef75e74d0"),
    (["graph", "--t", "8", "--format", "json"],
     "e57ac955f9317a62d6b94850c5ea9093708c8cadc6db64414431f9f1774030fa"),
    (["graph", "--t", "12", "--format", "dot"],
     "2ac30a74468b0a7048f978ca99ca76ba04feb5b2ab5f02ae30659e670d0b5c8b"),
    (["graph", "--t", "12", "--format", "json"],
     "64c01a14216ecb0a3305b1f99899111adc7e11d94fc2a3659ccba76846d81b12"),
    # order battery at l = 2, and the perfbench orders-n5 output
    (["verify-orders", "--n", "4", "--format", "text"],
     "92e36a0063a849c30932383ec8bb2960edd86ec54351dd8b33de760448c3c811"),
    (["verify-orders", "--n", "5", "--format", "json"],
     "2151b698c14e7a4c9de42453fd74567fd690105f1bae8b2c947928be8dd7270e"),
    # the hex labels beyond the ambient log-table range (GF(2^24))
    (["verify-orders", "--n", "6", "--format", "json"],
     "aad646ad6651fa410af039646a6b084d1dd843abbfb618ed4a30810298324e89"),
    (["verify-orders", "--n", "6", "--format", "text"],
     "4330a38642f7239146c346429225cf3bf71d23a54e1797ea5723df49357196ac"),
    # the order battery at the top of its text range, n = 9 first admitted
    # with the Frobenius orbits (hashed from the mate-pair battery)
    (["verify-orders", "--n", "7", "--format", "text"],
     "6e1508b00d6fa37d4a168aaba6ff0a01fbc94fcda1d6cd5a5cc79dbef7249c6b"),
    (["verify-orders", "--n", "8", "--format", "text"],
     "c5f36c7bf5939dfca4b7fb92c70fd0d5b184843442779135dd522e06009dad2d"),
    (["verify-orders", "--n", "9", "--format", "text"],
     "0135eb0079189c5e164a494e0d5c163ca204668d24aad3bceeaa7a83c12fe285"),
    # the Dickson battery above n = 12, as printed by the O(m) identity
    # recurrence and the linear subfield-root search
    (["verify-dickson", "--n", "13", "--format", "json"],
     "9f70de1a3e02348ac03bb1daf4b08f17135f29adc0fa210b1d00bebab0238c8f"),
    (["verify-dickson", "--n", "14", "--format", "json"],
     "2250e494094bd03f3b94d92d57ebea4671b0b8cb17c7de9cedcdbdc0d4401a9d"),
    (["verify-dickson", "--n", "15", "--format", "json"],
     "de5863e331331b745b30749d08c47b4ea6da1acdc854bbf66f37091bd0c8f730"),
    (["verify-dickson", "--n", "16", "--format", "json"],
     "04808579c4445e270fbc9364a09801656d58965db98ddbcc4f294899d4b096e4"),
]


@pytest.mark.parametrize("argv, digest", OUTPUT_DIGESTS,
                         ids=["-".join(a[::2]) for a, _ in OUTPUT_DIGESTS])
def test_output_bytes_are_pinned(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# One small argv per command, run under `python -O`: no verdict may rest on
# an `assert` statement, which -O removes.
OPTIMIZED_DIGESTS = [OUTPUT_DIGESTS[i] for i in (0, 2, 4, 6, 8)]


@pytest.mark.parametrize("argv, digest", OPTIMIZED_DIGESTS,
                         ids=[a[0] for a, _ in OPTIMIZED_DIGESTS])
def test_output_bytes_are_pinned_under_optimize(argv, digest):
    src = str(Path(thetamap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-m", "thetamap.cli", *argv],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["verify-dickson", "--range", "1..5", "--format", "json"],
    ["verify-orders", "--range", "1..4", "--format", "json"],
    ["verify-structure", "--range", "1..10", "--format", "json"],
], ids=["dickson", "orders", "structure"])
def test_worker_count_does_not_change_output(tmp_path, capsys, argv):
    written = []
    for workers in ("1", "2", "4"):
        path = tmp_path / f"w{workers}.json"
        assert main([*argv, "--workers", workers]) == 0
        stdout = capsys.readouterr().out.encode()
        assert main([*argv, "--workers", workers, "--out", str(path)]) == 0
        assert path.read_bytes() == stdout
        written.append(stdout)
    assert written[0] == written[1] == written[2]


def test_seed_changes_nothing_visible_but_still_passes(capsys):
    assert main(["verify-dickson", "--n", "9", "--seed", "3"]) == 0
    assert main(["verify-dickson", "--n", "9", "--seed", "4"]) == 0
    capsys.readouterr()
