"""The per-vertex formulation of the graph layer, kept as a test oracle.

``theta_graph`` decomposes the graph by peeling in-degrees and runs its
trace and leaf checks on whole-field tables.  The functions here do the same
work one vertex at a time, the way the module did before: the map from
``FieldSpec.inv`` per vertex, the predecessors in two slots and an overflow
dict, the cycles as the stable image of the map, levels and components from
the per-root ``tree_levels`` walk, classes by ``classify_AB``, leaf traces
by ``trace`` and ``inv`` (Tr(0) = Tr(inf) = 0, 1/0 = 0) and leaf degrees by
``degree``, one leaf at a time.  ``decompose`` takes any successor list, so
a test can hand it the map of a faulty kernel.  ``unit_pairs`` and
``trace_tables`` are the full walks of the generator that
``theta_graph.unit_walk`` replaced: both gen^i and gen^-i in full, and
Tr(1/x) from two more walks of gen^i.

The fault factories at the end return installers taking a ``setattr``-like
callable, so a test can apply them with ``monkeypatch.setattr`` in-process
or with ``setattr`` in a child interpreter.
"""

from __future__ import annotations

from array import array

import thetamap.theta_graph as theta_graph
from thetamap.gf2_arith import FieldError, FieldSpec, make_field
from thetamap.theta_graph import (
    Component,
    ThetaGraph,
    _bits,
    point_label,
    theta_index,
    verify_structure,
)

# the checks verify_structure runs on tables; the oracle redoes them
TABLE_CHECKS = ("class-preservation", "leaf-traces", "leaf-degree")


def classify_AB(spec: FieldSpec, v: int) -> str:
    """'A' iff the point encoding v is 0 or inf or Tr(v) = Tr(1/v); 'B'
    otherwise."""
    if not 0 < v < spec.q:
        return "A"
    return "A" if spec.trace(v) == spec.trace(spec.inv(v)) else "B"


def unit_pairs(spec: FieldSpec):
    """Every unit with its inverse, (gen^i, gen^-i) for i = 0..q-2.

    Walks gen^i and gen^-i in full by the split tables (``mul_tables``) of
    gen and of gen^-1.  Both walks must be back at 1 after q-1 steps, or
    FieldError is raised once the last pair has been yielded.
    """
    lo, hi, h = spec.mul_tables(spec.gen)
    ilo, ihi, _ = spec.mul_tables(spec.inv(spec.gen))
    mask = len(lo) - 1
    fwd = bwd = 1
    for _ in range(spec.q - 1):
        yield fwd, bwd
        fwd = lo[fwd & mask] ^ hi[fwd >> h]
        bwd = ilo[bwd & mask] ^ ihi[bwd >> h]
    if fwd != 1 or bwd != 1:
        raise FieldError("generator order mismatch")


def trace_tables(spec: FieldSpec) -> tuple[bytes, bytes]:
    """(Tr(a), Tr(1/a)) for every packed a, one byte each, Tr(1/0) = 0.

    Tr(1/a) comes from two walks of gen^i, the first recording Tr(gen^i),
    the second storing Tr(gen^(q-1-i)) = Tr(1/gen^i) at gen^i.
    """
    tr = spec.trace_bytes()
    lo, hi, h = spec.mul_tables(spec.gen)
    low = len(lo) - 1
    walk = bytearray(spec.q - 1)         # Tr(gen^i), i = 0..q-2
    v = 1
    for i in range(spec.q - 1):
        walk[i] = tr[v]
        v = lo[v & low] ^ hi[v >> h]
    tr_inv = bytearray(spec.q)
    v = 1
    for b in reversed(walk):             # at gen^i, i = 1..q-1: Tr(gen^(q-1-i))
        v = lo[v & low] ^ hi[v >> h]
        tr_inv[v] = b
    return tr, bytes(tr_inv)


def predecessor_slots(succ) -> tuple[array, array, dict[int, list[int]]]:
    """Every vertex's predecessors: ``pred1`` and ``pred2`` (-1 when empty,
    slot 2 filled only after slot 1) and ``pred_extra`` (vertex -> list) for
    the third and later, which only a faulty kernel makes."""
    nverts = len(succ)
    pred1 = array("l", [-1]) * nverts
    pred2 = array("l", [-1]) * nverts
    pred_extra: dict[int, list[int]] = {}
    for v, c in enumerate(succ):
        if pred1[c] < 0:
            pred1[c] = v
        elif pred2[c] < 0:
            pred2[c] = v
        else:
            pred_extra.setdefault(c, []).append(v)
    return pred1, pred2, pred_extra


def predecessors(slots, v: int) -> list[int]:
    """Every vertex the map sends to v, the self-loop of inf included."""
    pred1, pred2, pred_extra = slots
    return ([u for u in (pred1[v], pred2[v]) if u >= 0]
            + pred_extra.get(v, []))


def tree_levels(slots, level, root: int):
    """The in-tree of the cycle vertex ``root``, level by level.

    Yields the vertices of level 1, 2, ... as lists, encodings ascending; a
    root with no tree yields nothing.  A cycle vertex's children are its
    predecessors except its cycle predecessor (level 0); a tree vertex's
    children are all of its predecessors.
    """
    frontier = [u for u in predecessors(slots, root) if level[u] != 0]
    while frontier:
        frontier.sort()
        yield frontier
        frontier = [u for w in frontier for u in predecessors(slots, w)]


def decompose(spec: FieldSpec, succ: list[int]) -> ThetaGraph:
    """The graph with successors ``succ``, decomposed root by root."""
    nverts = len(succ)
    slots = predecessor_slots(succ)

    # the images of the vertex set shrink until the map permutes them: then
    # they are the cycle vertices
    periodic = set(range(nverts))
    while (image := {succ[v] for v in periodic}) != periodic:
        periodic = image
    cycles = []
    for v in sorted(periodic):
        if any(v in cyc for cyc in cycles):
            continue
        cyc = array("i", [v])          # v is the least vertex of its cycle
        while succ[cyc[-1]] != v:
            cyc.append(succ[cyc[-1]])
        cycles.append(cyc)

    level = [0 if v in periodic else -1 for v in range(nverts)]
    comp_id = array("i", [0]) * nverts
    indeg = array("i", (len(predecessors(slots, v)) for v in range(nverts)))
    tr, tr_inv = map(_bits, trace_tables(spec))
    g = ThetaGraph(spec, succ, level, comp_id, [], indeg, tr, tr_inv)
    for cid, cyc in enumerate(cycles):
        depth = 0
        for root in cyc:
            comp_id[root] = cid
            for k, vs in enumerate(tree_levels(slots, level, root), 1):
                for u in vs:
                    level[u] = k
                    comp_id[u] = cid
                depth = max(depth, k)
        g.components.append(
            Component(cyc, depth, classify_AB(spec, cyc[0])))
    return g


def oracle_graph(spec: FieldSpec) -> ThetaGraph:
    """The decomposed graph, built vertex by vertex and root by root."""
    return decompose(spec, [theta_index(spec, v) for v in range(spec.q + 1)])


def table_records(g: ThetaGraph) -> list[dict]:
    """The TABLE_CHECKS records of ``verify_structure(g)``."""
    return [r for r in verify_structure(g).records()
            if r["name"] in TABLE_CHECKS]


def oracle_checks(g: ThetaGraph) -> list[dict]:
    """The TABLE_CHECKS records of ``verify_structure``, one vertex at a time."""
    spec = g.field
    classes = [comp.trace_class for comp in g.components]

    def lab(v: int) -> str:
        return point_label(spec, v)

    def record(name: str, detail: str) -> dict:
        return {"name": name, "pass": not detail, "detail": detail}

    bad = next((v for v, cid in enumerate(g.comp_id)
                if classify_AB(spec, v) != classes[cid]), None)
    out = [record("class-preservation",
                  "" if bad is None else f"witness {lab(bad)}")]

    detail = ""
    for v in g.leaf_indices():
        pair = ((spec.trace(v), spec.trace(spec.inv(v))) if 0 < v < spec.q
                else (0, 0))           # Tr(0) = Tr(1/0) = Tr(inf) = 0
        cls = classes[g.comp_id[v]]
        if pair != ((1, 1) if cls == "A" else (0, 1)):
            detail = f"{cls}-leaf {lab(v)} has traces {pair}"
            break
    out.append(record("leaf-traces", detail))

    detail = ""
    for v in g.leaf_indices():
        dv = spec.degree(v)
        vodd = dv >> spec.r
        if dv != (vodd << spec.r) or vodd % 2 == 0 or spec.s % vodd != 0:
            detail = f"leaf {lab(v)} has degree {dv}"
            break
    out.append(record("leaf-degree", detail))
    return out


# ---------------------------------------------------------------------------
# Faults in the field kernel, each breaking what one table check reads; each
# factory returns an installer taking a setattr-like callable

def zero_trace_mask():
    """Every trace mask empty, so every trace reads 0 and every class A."""
    def install(patch) -> None:
        patch(FieldSpec, "trace_mask", lambda self, d: 0)

    return install


def edited_walk(t: int, edit):
    """The unit walk of GF(2^t) with ``edit(walk)`` applied to its output:
    ``edit`` may rewrite ``walk.succ``, whose in-degrees are then counted
    again, and ``walk.tr_inv``."""
    true_walk = theta_graph.unit_walk

    def unit_walk(spec, scratch=None):
        walk = true_walk(spec, scratch)
        if spec.t == t:
            edit(walk)
            walk.indeg = array("i", [0]) * len(walk.succ)
            for c in walk.succ:
                walk.indeg[c] += 1
        return walk

    def install(patch) -> None:
        patch(theta_graph, "unit_walk", unit_walk)

    return install


def reaimed_walk(t: int, edges: dict[int, int]):
    """The unit walk of GF(2^t) with the edge of each unit x in ``edges``
    re-aimed at ``edges[x]``."""
    def edit(walk) -> None:
        for x, c in edges.items():
            walk.succ[x] = c

    return edited_walk(t, edit)


def wrong_inverse_at(x0: int, t: int):
    """1/x0 in GF(2^t) off by the least element of trace 1, in ``inv`` and in
    the unit walk's Tr(1/x) alike: Tr(1/x0) flips for the table checks and
    for the oracle."""
    true_inv = FieldSpec.inv

    def inv(self, a):
        y = true_inv(self, a)
        if self.t == t and a == x0:
            y ^= next(e for e in range(1, self.q) if self.trace(e))
        return y

    def edit(walk) -> None:
        walk.tr_inv ^= 1 << 8 * x0

    def install(patch) -> None:
        patch(FieldSpec, "inv", inv)
        edited_walk(t, edit)(patch)

    return install


def subfield_leaves(t: int, targets: list[int]):
    """The unit walk of GF(2^t) re-aims every predecessor of the units
    ``targets`` at the unit 1, so those units become leaves."""
    succ = theta_graph.unit_walk(make_field(t)).succ
    return reaimed_walk(t, {x: 1 for x in range(1, 1 << t)
                            if succ[x] in targets})
