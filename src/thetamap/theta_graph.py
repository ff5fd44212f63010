"""The functional graph of x -> x + 1/x over the projective line of GF(2^t).

Every point of P^1(F_q) = F_q + {inf} has exactly one outgoing edge, so the
graph splits into connected components, each a single cycle whose vertices
root in-trees of non-periodic predecessors.  This module builds the graph
densely (arrays indexed by the packed-element encoding, with the extra index
q for the point at infinity), decomposes it into components with per-level
vertex lists, classifies components by the trace condition
Tr(x) = Tr(1/x), and verifies the structural facts the decomposition obeys:
tree depths r+2 versus 1, the per-level counts, leaf traces, and leaf
degrees.

Projective conventions live on ``ProjPoint`` and nowhere else:
1/0 = 0, 1/inf = inf, |0| = |inf| = 1, Tr(0) = Tr(inf) = 0.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass

from thetamap.gf2_arith import FieldElement, FieldError, FieldSpec
from thetamap.report import CheckReport

__all__ = [
    "ProjPoint",
    "Component",
    "ThetaGraph",
    "theta",
    "theta_index",
    "build_graph",
    "classify_AB",
    "is_periodic",
    "leaves",
    "omega_sets",
    "verify_structure",
    "point_label",
    "to_dot",
    "to_json",
]


class ProjPoint:
    """A point of P^1(F_q): a field element or the point at infinity.

    Encoded by an index in [0, 2^t]; index 2^t is infinity, every other
    index is the packed field element itself.
    """

    __slots__ = ("field", "index")

    def __init__(self, field: FieldSpec, index: int):
        if not 0 <= index <= field.q:
            raise FieldError(f"point index {index} out of range")
        self.field = field
        self.index = index

    @classmethod
    def zero(cls, field: FieldSpec) -> "ProjPoint":
        return cls(field, 0)

    @classmethod
    def infinity(cls, field: FieldSpec) -> "ProjPoint":
        return cls(field, field.q)

    @classmethod
    def of(cls, elem: FieldElement) -> "ProjPoint":
        return cls(elem.field, elem.bits)

    @property
    def is_infinity(self) -> bool:
        return self.index == self.field.q

    @property
    def is_zero(self) -> bool:
        return self.index == 0

    @property
    def is_unit(self) -> bool:
        return 0 < self.index < self.field.q

    @property
    def element(self) -> FieldElement | None:
        """The underlying field element; None for infinity."""
        if self.is_infinity:
            return None
        return FieldElement(self.field, self.index)

    def inverse(self) -> "ProjPoint":
        """Projective inverse: 1/0 = 0 and 1/inf = inf by convention."""
        if self.is_unit:
            return ProjPoint(self.field, self.field.inv(self.index))
        return self

    def order(self) -> int:
        """Multiplicative order, with |0| = |inf| = 1 by convention."""
        if self.is_unit:
            return self.field.order(self.index)
        return 1

    def trace(self) -> int:
        """Absolute trace, with Tr(0) = Tr(inf) = 0 by convention."""
        if self.is_unit:
            return self.field.trace(self.index)
        return 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.field.compatible(other.field) and self.index == other.index

    def __hash__(self) -> int:
        return hash((self.field.t, self.field.modulus, self.index, "P1"))

    def __repr__(self) -> str:
        return f"<P1(2^{self.field.t}) {point_label(self)}>"


def point_label(p: ProjPoint) -> str:
    """Export label: discrete log of a unit, `'0'` for zero, `inf` for infinity.

    Fields too large for a log table fall back to hex coordinates prefixed
    with `x`, keeping labels deterministic at every size.
    """
    if p.is_infinity:
        return "inf"
    if p.is_zero:
        return "'0'"
    try:
        return str(p.field.dlog(p.index))
    except FieldError:
        return f"x{p.index:x}"


def theta_index(field: FieldSpec, idx: int) -> int:
    """The map on raw point encodings (index 2^t is infinity)."""
    if idx == 0 or idx == field.q:
        return field.q
    return idx ^ field.inv(idx)


def theta(spec: FieldSpec, p: ProjPoint) -> ProjPoint:
    """One application of the map: 0 and inf go to inf, x goes to x + 1/x."""
    if not spec.compatible(p.field):
        raise FieldError("point does not belong to this field")
    return ProjPoint(spec, theta_index(spec, p.index))


def classify_AB(spec: FieldSpec, p: ProjPoint) -> str:
    """'A' iff p is 0 or inf or Tr(x) = Tr(1/x); 'B' otherwise."""
    if not spec.compatible(p.field):
        raise FieldError("point does not belong to this field")
    if not p.is_unit:
        return "A"
    x = p.index
    return "A" if spec.trace(x) == spec.trace(spec.inv(x)) else "B"


@dataclass
class Component:
    """One connected component: a cycle plus the in-tree of every cycle vertex.

    ``cycle`` follows the successor direction and is rotated to start at the
    vertex with the least encoding (infinity encodes greatest).  ``trees``
    maps each cycle vertex to its per-level vertex lists (level 1 up to the
    tree's depth, encodings ascending); roots with no tree map to {}.
    """

    cycle: list[int]
    trees: dict[int, dict[int, list[int]]]
    depth: int
    trace_class: str

    def vertices(self) -> list[int]:
        out = list(self.cycle)
        for levels in self.trees.values():
            for vs in levels.values():
                out.extend(vs)
        return out

    def level_sets(self) -> dict[int, list[int]]:
        """Vertices of the whole component grouped by level (cycle = level 0)."""
        sets: dict[int, list[int]] = {0: sorted(self.cycle)}
        for levels in self.trees.values():
            for k, vs in levels.items():
                sets.setdefault(k, []).extend(vs)
        for k in sets:
            sets[k] = sorted(sets[k])
        return sets


class ThetaGraph:
    """The full graph over P^1(F_q), decomposed.

    Dense arrays indexed by point encoding: ``succ`` (the map itself),
    ``level`` (0 on cycle vertices, else distance to the cycle), ``comp_id``
    (position in ``components``), and the predecessors in two slots
    ``pred1``/``pred2`` (-1 when empty).  x + 1/x = c is a quadratic in x,
    so no vertex has a third predecessor unless the kernel is faulty; such
    extras go to ``pred_extra`` (vertex -> list), which is normally empty.
    """

    def __init__(self, field: FieldSpec, succ: list[int], level: list[int],
                 comp_id: list[int], components: list[Component],
                 pred1: array, pred2: array, pred_extra: dict[int, list[int]]):
        self.field = field
        self.succ = succ
        self.level = level
        self.comp_id = comp_id
        self.components = components
        self.pred1 = pred1
        self.pred2 = pred2
        self.pred_extra = pred_extra

    @property
    def infinity_index(self) -> int:
        return self.field.q

    def point(self, index: int) -> ProjPoint:
        return ProjPoint(self.field, index)

    def leaf_indices(self):
        """Encodings of the in-degree-0 vertices, ascending.

        Infinity is never among them: its self-loop fills one of its slots.
        """
        return (v for v, p in enumerate(self.pred1) if p < 0)

    def predecessors(self, v: int) -> list[int]:
        """Every vertex the map sends to v, the self-loop of inf included."""
        return ([u for u in (self.pred1[v], self.pred2[v]) if u >= 0]
                + self.pred_extra.get(v, []))

    def successor(self, p: ProjPoint) -> ProjPoint:
        self._own(p)
        return ProjPoint(self.field, self.succ[p.index])

    def level_of(self, p: ProjPoint) -> int:
        self._own(p)
        return self.level[p.index]

    def component_of(self, p: ProjPoint) -> Component:
        self._own(p)
        return self.components[self.comp_id[p.index]]

    def _own(self, p: ProjPoint) -> None:
        if not self.field.compatible(p.field):
            raise FieldError("point does not belong to this graph's field")

    def __repr__(self) -> str:
        return (f"ThetaGraph(t={self.field.t}, vertices={len(self.succ)}, "
                f"components={len(self.components)})")


def build_graph(spec: FieldSpec) -> ThetaGraph:
    """Build and decompose the graph; deterministic component ordering."""
    q = spec.q
    inf = q
    nverts = q + 1

    succ = [0] * nverts
    succ[0] = inf
    succ[inf] = inf
    for x, xi in spec.unit_pairs():
        succ[x] = x ^ xi

    # Slot 2 fills only after slot 1, and pred_extra only after both.
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

    # Cycle detection: three-color walk over the out-degree-1 graph.
    color = bytearray(nverts)          # 0 new, 1 on current walk, 2 settled
    on_cycle = bytearray(nverts)
    raw_cycles: list[list[int]] = []
    for v0 in range(nverts):
        if color[v0]:
            continue
        path = []
        v = v0
        while color[v] == 0:
            color[v] = 1
            path.append(v)
            v = succ[v]
        if color[v] == 1:              # ran into our own walk: new cycle
            cyc = path[path.index(v):]
            for u in cyc:
                on_cycle[u] = 1
            raw_cycles.append(cyc)
        for u in path:
            color[u] = 2

    # Canonical rotation and component order: least encoding first.
    cycles = []
    for cyc in raw_cycles:
        k = cyc.index(min(cyc))
        cycles.append(cyc[k:] + cyc[:k])
    cycles.sort(key=lambda c: c[0])

    level = [0] * nverts
    comp_id = [0] * nverts
    components: list[Component] = []
    g = ThetaGraph(spec, succ, level, comp_id, components,
                   pred1, pred2, pred_extra)     # the walk below fills it in
    for cid, cyc in enumerate(cycles):
        trees: dict[int, dict[int, list[int]]] = {}
        depth = 0
        for root in cyc:
            comp_id[root] = cid
            levels: dict[int, list[int]] = {}
            frontier = [u for u in g.predecessors(root) if not on_cycle[u]]
            k = 0
            while frontier:
                k += 1
                frontier.sort()
                levels[k] = frontier
                nxt = []
                for u in frontier:
                    level[u] = k
                    comp_id[u] = cid
                    a = pred1[u]    # g.predecessors(u), inlined: hot loop
                    if a >= 0:
                        nxt.append(a)
                        b = pred2[u]
                        if b >= 0:
                            nxt.append(b)
                            if u in pred_extra:
                                nxt.extend(pred_extra[u])
                frontier = nxt
            trees[root] = levels
            depth = max(depth, k)
        head = cyc[0]
        if head == inf:
            tclass = "A"
        else:
            tclass = "A" if spec.trace(head) == spec.trace(head ^ succ[head]) else "B"
        components.append(Component(cyc, trees, depth, tclass))

    return g


def is_periodic(g: ThetaGraph, p: ProjPoint) -> bool:
    """True iff p lies on its component's cycle."""
    return g.level_of(p) == 0


def leaves(g: ThetaGraph) -> set[ProjPoint]:
    """All vertices of in-degree 0."""
    return {g.point(v) for v in g.leaf_indices()}


def omega_sets(spec: FieldSpec) -> tuple[set[FieldElement], set[FieldElement]]:
    """Partition of the units by Tr(1/x): (Tr = 0, Tr = 1)."""
    om, om_bar = set(), set()
    for x, xi in spec.unit_pairs():
        (om if spec.trace(xi) == 0 else om_bar).add(FieldElement(spec, x))
    return om, om_bar


# ---------------------------------------------------------------------------
# Structural verification

def _expected_a_count(k: int) -> int:
    return 1 if k <= 1 else 1 << (k - 1)        # ceil(2^(k-1))


def _expected_inf_count(k: int) -> int:
    return 1 if k <= 2 else 1 << (k - 2)        # ceil(2^(k-2))


def verify_structure(g: ThetaGraph) -> CheckReport:
    """Run the six structural checks; failures become report entries."""
    spec = g.field
    inf = g.infinity_index
    d = spec.r + 2
    rep = CheckReport(f"structure of the map graph over GF(2^{spec.t})")

    def lab(v: int) -> str:
        return point_label(g.point(v))

    # (1) the trace class is preserved along every edge
    bad = None
    for comp in g.components:
        cls = comp.trace_class
        for v in comp.vertices():
            if classify_AB(spec, g.point(v)) != cls:
                bad = v
                break
        if bad is not None:
            break
    rep.add("class-preservation", bad is None,
            "" if bad is None else f"witness {lab(bad)}")

    # (2) periodic A-vertices other than inf root trees of depth r+2 with
    #     2^(k-1) vertices at level k; the root has one child, inner two
    bad_msg = ""
    for comp in g.components:
        if comp.trace_class != "A":
            continue
        for root in comp.cycle:
            if root == inf:
                continue
            levels = comp.trees[root]
            depth = max(levels) if levels else 0
            if depth != d:
                bad_msg = f"root {lab(root)} tree depth {depth} != {d}"
                break
            for k in range(1, d + 1):
                if len(levels.get(k, [])) != _expected_a_count(k):
                    bad_msg = (f"root {lab(root)} level {k} has "
                               f"{len(levels.get(k, []))} vertices")
                    break
            if bad_msg:
                break
            if not _children_profile_ok(g, root, levels, root_children=1):
                bad_msg = f"root {lab(root)} child profile"
                break
        if bad_msg:
            break
    rep.add("a-tree-shape", not bad_msg, bad_msg)

    # (3) periodic B-vertices root trees of depth exactly 1
    bad_msg = ""
    for comp in g.components:
        if comp.trace_class != "B":
            continue
        for root in comp.cycle:
            levels = comp.trees[root]
            depth = max(levels) if levels else 0
            if depth != 1:
                bad_msg = f"root {lab(root)} tree depth {depth} != 1"
                break
        if bad_msg:
            break
    rep.add("b-tree-depth", not bad_msg, bad_msg)

    # (4) the infinity tree: ceil(2^(k-2)) vertices per level; infinity and
    #     the level-1 vertex have one child, deeper inner vertices two
    bad_msg = ""
    inf_comp = g.components[g.comp_id[inf]]
    levels = inf_comp.trees[inf]
    depth = max(levels) if levels else 0
    if inf_comp.cycle != [inf]:
        bad_msg = "infinity is not a fixed point"
    elif depth != d:
        bad_msg = f"infinity tree depth {depth} != {d}"
    else:
        for k in range(1, d + 1):
            if len(levels.get(k, [])) != _expected_inf_count(k):
                bad_msg = f"level {k} has {len(levels.get(k, []))} vertices"
                break
        if not bad_msg and not _inf_children_ok(g, levels, d):
            bad_msg = "child profile of the infinity tree"
    rep.add("inf-tree-shape", not bad_msg, bad_msg)

    # (5) leaf traces: A-leaves have Tr(x) = Tr(1/x) = 1, B-leaves (0, 1)
    bad_msg = ""
    for v in g.leaf_indices():
        pair = (spec.trace(v), spec.trace(spec.inv(v)))
        cls = g.components[g.comp_id[v]].trace_class
        want = (1, 1) if cls == "A" else (0, 1)
        if pair != want:
            bad_msg = f"{cls}-leaf {lab(v)} has traces {pair}"
            break
    rep.add("leaf-traces", not bad_msg, bad_msg)

    # (6) every leaf degree is 2^r * v with v odd dividing s
    bad_msg = ""
    for v in g.leaf_indices():
        dv = spec.degree(v)
        vodd = dv >> spec.r
        if dv != (vodd << spec.r) or vodd % 2 == 0 or spec.s % vodd != 0:
            bad_msg = f"leaf {lab(v)} has degree {dv}"
            break
    rep.add("leaf-degree", not bad_msg, bad_msg)

    return rep


def _tree_children(g: ThetaGraph, v: int) -> list[int]:
    return [u for u in g.predecessors(v) if g.level[u] == g.level[v] + 1]


def _children_profile_ok(g: ThetaGraph, root: int,
                         levels: dict[int, list[int]], root_children: int) -> bool:
    depth = max(levels) if levels else 0
    if len(_tree_children(g, root)) != root_children:
        return False
    for k in range(1, depth):
        for v in levels[k]:
            if len(_tree_children(g, v)) != 2:
                return False
    return True


def _inf_children_ok(g: ThetaGraph, levels: dict[int, list[int]], d: int) -> bool:
    inf = g.infinity_index
    if len(_tree_children(g, inf)) != 1:
        return False
    for k in range(1, d):
        want = 1 if k == 1 else 2
        for v in levels[k]:
            if len(_tree_children(g, v)) != want:
                return False
    return True


# ---------------------------------------------------------------------------
# Exports (labels are discrete logs, so they need the log table)

def to_dot(g: ThetaGraph) -> str:
    """One digraph per component, deterministic order, exponent labels."""
    out = []
    for cid, comp in enumerate(g.components):
        out.append(f"digraph component_{cid} {{")
        for v in comp.cycle:
            out.append(f'    "{point_label(g.point(v))}" -> '
                       f'"{point_label(g.point(g.succ[v]))}";')
        for root in comp.cycle:
            levels = comp.trees[root]
            for k in sorted(levels):
                for v in levels[k]:
                    out.append(f'    "{point_label(g.point(v))}" -> '
                               f'"{point_label(g.point(g.succ[v]))}";')
        out.append("}")
    return "\n".join(out) + "\n"


def to_json(g: ThetaGraph) -> str:
    comps = []
    for comp in g.components:
        levels = comp.level_sets()
        comps.append({
            "cycle": [point_label(g.point(v)) for v in comp.cycle],
            "depth": comp.depth,
            "class": comp.trace_class,
            "levels": {
                str(k): [point_label(g.point(v)) for v in levels[k]]
                for k in sorted(levels) if k > 0
            },
        })
    doc = {"t": g.field.t, "modulus": f"{g.field.modulus:x}", "components": comps}
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
