"""The per-vertex formulation of the graph layer, kept as a test oracle.

``theta_graph`` decomposes the graph by peeling in-degrees and runs its
trace and leaf checks on whole-field tables.  The functions here do the same
work one vertex at a time, the way the module did before: the map from
``FieldSpec.inv`` per vertex, the predecessors in two slots and an overflow
dict, the cycles as the stable image of the map, levels and components from
the per-root ``tree_levels`` walk, classes by ``classify_AB``, leaf traces
by the ``ProjPoint`` trace and inverse and leaf degrees by ``degree``, one
leaf at a time.  ``decompose`` takes any successor list, so a test can hand
it the map of a faulty kernel.

The fault factories at the end return installers taking a ``setattr``-like
callable, so a test can apply them with ``monkeypatch.setattr`` in-process
or with ``setattr`` in a child interpreter.
"""

from __future__ import annotations

from array import array

from thetamap.gf2_arith import FieldError, FieldSpec, make_field
from thetamap.theta_graph import (
    Component,
    ProjPoint,
    ThetaGraph,
    point_label,
    theta_index,
    verify_structure,
)

# the checks verify_structure runs on tables; the oracle redoes them
TABLE_CHECKS = ("class-preservation", "leaf-traces", "leaf-degree")


def classify_AB(spec: FieldSpec, p: ProjPoint) -> str:
    """'A' iff p is 0 or inf or Tr(x) = Tr(1/x); 'B' otherwise."""
    if not spec.compatible(p.field):
        raise FieldError("point does not belong to this field")
    if not p.is_unit:
        return "A"
    x = p.index
    return "A" if spec.trace(x) == spec.trace(spec.inv(x)) else "B"


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
    g = ThetaGraph(spec, succ, level, comp_id, [], indeg)
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
            Component(cyc, depth, classify_AB(spec, g.point(cyc[0]))))
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
        return point_label(g.point(v))

    def record(name: str, detail: str) -> dict:
        return {"name": name, "pass": not detail, "detail": detail}

    bad = next((v for v, cid in enumerate(g.comp_id)
                if classify_AB(spec, g.point(v)) != classes[cid]), None)
    out = [record("class-preservation",
                  "" if bad is None else f"witness {lab(bad)}")]

    detail = ""
    for v in g.leaf_indices():
        p = g.point(v)                 # Tr(1/0) = Tr(0) = 0 by convention
        pair = (p.trace(), p.inverse().trace())
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


def wrong_inverse_at(x0: int, t: int):
    """1/x0 in GF(2^t) off by the least element of trace 1, in ``inv`` and in
    the Tr(1/x) table alike: Tr(1/x0) flips for the table checks and for
    the oracle."""
    true_inv = FieldSpec.inv
    true_tables = FieldSpec.trace_tables

    def inv(self, a):
        y = true_inv(self, a)
        if self.t == t and a == x0:
            y ^= next(e for e in range(1, self.q) if self.trace(e))
        return y

    def trace_tables(self):
        tr, tr_inv = true_tables(self)
        if self.t == t:
            tr_inv = tr_inv[:x0] + bytes((tr_inv[x0] ^ 1,)) + tr_inv[x0 + 1:]
        return tr, tr_inv

    def install(patch) -> None:
        patch(FieldSpec, "inv", inv)
        patch(FieldSpec, "trace_tables", trace_tables)

    return install


def subfield_leaves(t: int, targets: list[int]):
    """The unit walk of GF(2^t) re-aims every predecessor of the units
    ``targets`` at the unit 1, so those units become leaves."""
    bad_pairs = [(x, x ^ 1 if x ^ xi in targets else xi)
                 for x, xi in make_field(t).unit_pairs()]

    def install(patch) -> None:
        patch(FieldSpec, "unit_pairs", lambda self: iter(bad_pairs))

    return install
