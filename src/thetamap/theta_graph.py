"""The functional graph of x -> x + 1/x over the projective line of GF(2^t).

Every point of P^1(F_q) = F_q + {inf} has exactly one outgoing edge, so the
graph splits into connected components, each a single cycle whose vertices
root in-trees of non-periodic predecessors.  This module builds the graph
densely (arrays indexed by the packed-element encoding, with the extra index
q for the point at infinity) and decomposes it by peeling in-degrees: the
leaves are removed, then every vertex whose last predecessor went, until
only the cycles are left; the peel order reversed then places each tree
vertex one level above its successor, in its successor's component.  It
classifies components by the trace condition Tr(x) = Tr(1/x), and verifies
the structural facts the decomposition obeys: tree depths r+2 versus 1, the
per-level counts, leaf traces, and leaf degrees.

Projective conventions (1/0 = 0, 1/inf = inf, |0| = |inf| = 1, Tr(0) =
Tr(inf) = 0) are ``ProjPoint`` methods; ``theta_index``, ``build_graph``
and order_dynamics' ``profile_tail`` and ``trace_quadrants`` apply them
inline to raw indices.  ``verify_structure`` makes no per-vertex field call:
its tree-shape checks read child counts from the in-degrees, its
class-preservation and leaf-trace checks read Tr(x) and Tr(1/x) of every
vertex from ``FieldSpec.trace_tables``, where Tr(1/0) = 0 is stored, and
inf, the index past both tables, counts as class A; its leaf-degree check
walks the subfield GF(2^(t/2)) instead of every leaf.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import not_, xor
from dataclasses import dataclass

from thetamap.gf2_arith import (
    FieldElement,
    FieldError,
    FieldSpec,
    subfield_embedding,
)
from thetamap.report import CheckReport, json_text

__all__ = [
    "GRAPH_MAX_T",
    "ProjPoint",
    "Component",
    "ThetaGraph",
    "theta",
    "theta_index",
    "Pullback",
    "theta_pullback",
    "build_graph",
    "is_periodic",
    "leaves",
    "omega_sets",
    "verify_structure",
    "point_label",
    "to_dot",
    "to_json",
]

# The graph's index arrays are array('i'), 4 bytes per entry: they hold the
# vertex encodings 0..2^t for t up to 30.
GRAPH_MAX_T = 30


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


@dataclass
class Pullback:
    """``powers`` = [h^0, ..., h^m] for h of order m, ``emb`` the embedding
    of GF(Q), ``values[k]`` = emb^-1(h^k + h^(m-k)) for k < m (None off the
    image; values[0] = 0), and ``fault``: None, or the first witness."""

    powers: list[int]
    emb: list[int]
    values: list[int | None]
    fault: str | None


def theta_pullback(sub: FieldSpec, ambient: FieldSpec,
                   powers: list[int]) -> Pullback:
    """x + 1/x on the walk ``powers`` = [h^0, ..., h^m] of the order-m
    subgroup of ``ambient``, read in ``sub`` = GF(Q).

    For m | Q+1, 1/y = y^Q, so y + 1/y is the relative trace of y into GF(Q).
    Never raises on a faulty kernel: ``fault`` names the first of a walk
    that does not close (h^m != 1), a failing embedding and a sum outside
    the embedded GF(Q)."""
    m = len(powers) - 1
    if powers[m] != 1:
        return Pullback(powers, [], [], f"h^{m} = {powers[m]:#x}, not 1")
    try:
        emb = subfield_embedding(sub, ambient)
    except FieldError as exc:
        return Pullback(powers, [], [], str(exc))
    back = {v: x for x, v in enumerate(emb)}
    values = list(map(back.get, map(xor, powers[:m], reversed(powers[1:]))))
    fault = None
    if None in values:
        k = values.index(None)
        fault = (f"witness {powers[k] ^ powers[m - k]:#x} of "
                 f"GF(2^{ambient.t}) outside GF(2^{sub.t})")
    return Pullback(powers, emb, values, fault)


@dataclass
class Component:
    """One connected component: its cycle, tree depth and trace class.

    ``cycle`` is an ``array('i')`` of encodings that follows the successor
    direction, rotated to start at the vertex with the least encoding
    (infinity encodes greatest).  ``depth`` is the deepest level of any
    in-tree (0 when no cycle vertex roots a tree).
    The tree vertices live in the graph's ``level`` and ``comp_id`` arrays.
    """

    cycle: array
    depth: int
    trace_class: str


class ThetaGraph:
    """The full graph over P^1(F_q), decomposed.

    Dense arrays indexed by point encoding: ``succ`` (the map itself),
    ``level`` (0 on cycle vertices, else distance to the cycle; one signed
    byte per vertex unless a tree grows deeper than 127 levels, which only
    a faulty kernel makes), ``comp_id`` (position in ``components``) and
    ``indeg`` (the number of predecessors, the self-loop of inf included).
    ``succ``, ``comp_id`` and ``indeg`` are ``array('i')``, 4 bytes per
    vertex, which bounds t by GRAPH_MAX_T.  A tree vertex has ``indeg``
    children and a cycle vertex one fewer, its cycle predecessor aside.
    x + 1/x = c is a quadratic in x, so no vertex has in-degree above 2
    unless the kernel is faulty.
    """

    def __init__(self, field: FieldSpec, succ: array, level: array,
                 comp_id: array, components: list[Component], indeg: array):
        self.field = field
        self.succ = succ
        self.level = level
        self.comp_id = comp_id
        self.components = components
        self.indeg = indeg

    @property
    def infinity_index(self) -> int:
        return self.field.q

    def point(self, index: int) -> ProjPoint:
        return ProjPoint(self.field, index)

    def leaf_indices(self):
        """Encodings of the in-degree-0 vertices, ascending.

        Infinity is never among them: its self-loop counts.
        """
        return compress(range(len(self.indeg)), map(not_, self.indeg))

    def successor(self, p: ProjPoint) -> ProjPoint:
        self._own(p)
        return ProjPoint(self.field, self.succ[p.index])

    def level_of(self, p: ProjPoint) -> int:
        self._own(p)
        return self.level[p.index]

    def _own(self, p: ProjPoint) -> None:
        if not self.field.compatible(p.field):
            raise FieldError("point does not belong to this graph's field")

    def __repr__(self) -> str:
        return (f"ThetaGraph(t={self.field.t}, vertices={len(self.succ)}, "
                f"components={len(self.components)})")


def build_graph(spec: FieldSpec) -> ThetaGraph:
    """Build and decompose the graph; deterministic component ordering.

    Refused with FieldError beyond GRAPH_MAX_T, before anything is allocated.
    """
    if spec.t > GRAPH_MAX_T:
        raise FieldError(f"graph refused for t={spec.t} > {GRAPH_MAX_T}: "
                         f"vertex indices overflow array('i')")
    q = spec.q
    inf = q
    nverts = q + 1

    succ = array("i", [inf]) * nverts        # 0 and inf go to inf
    for x, xi in spec.unit_pairs():
        succ[x] = x ^ xi
    indeg = array("i", [0]) * nverts
    for c in succ:
        indeg[c] += 1

    # Peel the leaves, then each vertex whose last predecessor was peeled;
    # the queue grows while it is read.  Each successor's count drops once
    # per peeled predecessor, so only the cycle vertices keep a count (their
    # cycle predecessor), and every tree vertex is peeled before its
    # successor.
    peeled = array("i", compress(range(nverts), map(not_, indeg)))
    for v in peeled:
        c = succ[v]
        indeg[c] -= 1
        if not indeg[c]:
            peeled.append(c)

    # An ascending scan meets each cycle first at its least vertex, so the
    # cycles come out rotated and in component order.
    comp_id = array("i", [-1]) * nverts
    cycles: list[array] = []
    for v in compress(range(nverts), indeg):
        if comp_id[v] < 0:
            cid = len(cycles)
            cyc = array("i")
            u = v
            while comp_id[u] < 0:
                comp_id[u] = cid
                cyc.append(u)
                u = succ[u]
            cycles.append(cyc)

    # Unpeel: in reverse, each vertex's successor is placed before it, so a
    # tree vertex lies one level above its successor, in its component; the
    # decrements are added back, leaving indeg the in-degree.
    level = array("b", bytes(nverts))
    depth = [0] * len(cycles)
    for v in reversed(peeled):
        c = succ[v]
        k = level[c] + 1
        cid = comp_id[c]
        if k > depth[cid]:
            depth[cid] = k
            if k == 128:               # only a faulty kernel grows this deep
                level = array("i", level)
        level[v] = k
        comp_id[v] = cid
        indeg[c] += 1

    components: list[Component] = []
    for cid, cyc in enumerate(cycles):
        head = cyc[0]
        if head == inf:
            tclass = "A"
        else:
            tclass = "A" if spec.trace(head) == spec.trace(head ^ succ[head]) else "B"
        components.append(Component(cyc, depth[cid], tclass))

    return ThetaGraph(spec, succ, level, comp_id, components, indeg)


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

def _bits(table: bytes) -> int:
    """A byte table as one int, byte v at bits 8v..8v+7."""
    return int.from_bytes(table, "little")


def _byte(x: int, v: int) -> int:
    """Byte v of ``_bits`` form."""
    return x >> 8 * v & 0xFF


def _least_set_byte(x: int) -> int | None:
    """The least v whose byte is nonzero in ``_bits`` form; None for 0."""
    return ((x & -x).bit_length() - 1) >> 3 if x else None


def verify_structure(g: ThetaGraph) -> CheckReport:
    """Run the six structural checks; failures become report entries.

    The three tree-shape checks are one pass of per-vertex rules on the
    number of children, read from ``level``, the component's class and
    ``indeg``: a tree vertex's children are all of its predecessors, a cycle
    vertex's are all but its cycle predecessor.  With d = r+2:

    - A-tree (root != inf): the root has 1 child, levels 1..d-1 have 2
      each, level d has none, and nothing lies deeper;
    - B-tree: the root has at least 1 child, and level 1 has none;
    - infinity tree (``cycle == [inf]``): inf and level 1 have 1 child
      each, levels 2..d-1 have 2, level d has none.

    The rules say the same as the per-level counts: an A-tree of depth
    exactly d with 2^(k-1) vertices on level k, an infinity tree of depth d
    with ceil(2^(k-2)), and B-trees of depth exactly 1.  Level k+1 holds
    exactly the children of level k.  So one child of the root and two under
    each vertex of levels 1..d-1 put 2^(k-1) vertices on level k, and level
    d, non-empty and childless, ends the tree at depth d; infinity's tree
    gets 1, 1, 2, ..., 2^(d-2) vertices the same way.  Conversely, x + 1/x
    = c is a quadratic, so no vertex has more than two predecessors: 2^k
    vertices on level k+1 below 2^(k-1) on level k force two children
    each, one vertex on level 1 means one child of the root, and depth d
    means no child below level d.
    """
    spec = g.field
    inf = g.infinity_index
    q = spec.q
    d = spec.r + 2
    rep = CheckReport(f"structure of the map graph over GF(2^{spec.t})")

    def lab(v: int) -> str:
        return point_label(g.point(v))

    # (1) the trace class is preserved along every edge: each vertex's
    #     class byte Tr(x) ^ Tr(1/x) (1 for B) equals its component's, in_b.
    #     Tr(1/x) comes from the trace tables' own walk of the generator,
    #     not from succ: that walk shares gen's split tables with the unit
    #     walk that gave succ, but its Tr(1/x) stays true under a wrong
    #     generator (``FieldSpec.trace_tables``), so a wrong edge shows here.
    tr, tr_inv = map(_bits, spec.trace_tables())
    classes = [comp.trace_class for comp in g.components]
    comp_b = bytes(cls == "B" for cls in classes)
    in_b = _bits(bytes(map(comp_b.__getitem__, g.comp_id)))
    bad = _least_set_byte(tr ^ tr_inv ^ in_b)
    rep.add("class-preservation", bad is None,
            "" if bad is None else f"witness {lab(bad)}")

    # (2)-(4) the tree shapes: the child counts allowed on levels 0, 1, ...
    inf_cid = g.comp_id[inf]
    one, two, none, some = (1,), (2,), (0,), range(1, q + 2)
    shapes = {"A": [one] + [two] * (d - 1) + [none],
              "B": [some, none],
              "inf": [one, one] + [two] * (d - 2) + [none]}
    kinds = classes[:]
    kinds[inf_cid] = "inf"
    rules = [shapes[kind] for kind in kinds]
    heights = [len(rule) for rule in rules]
    first_bad: dict[str, tuple[int, int, int]] = {}
    for v, (k, cid, n) in enumerate(zip(g.level, g.comp_id, g.indeg)):
        children = n - (k == 0)
        if k >= heights[cid] or children not in rules[cid][k]:
            first_bad.setdefault(kinds[cid], (v, k, children))
    details = {kind: f"vertex {lab(v)} on level {k} has {children} children"
               for kind, (v, k, children) in first_bad.items()}
    if list(g.components[inf_cid].cycle) != [inf]:
        details["inf"] = "infinity is not a fixed point"
    for kind, name in (("A", "a-tree-shape"), ("B", "b-tree-depth"),
                       ("inf", "inf-tree-shape")):
        rep.add(name, kind not in details, details.get(kind, ""))

    # (5) leaf traces: A-leaves have Tr(x) = Tr(1/x) = 1, B-leaves (0, 1);
    #     a leaf passes where Tr(1/x) = 1 and Tr(x) = 1 exactly off B
    is_leaf = _bits(bytes(map(not_, g.indeg)))
    bad = _least_set_byte(is_leaf & ~(tr_inv & (tr ^ in_b)))
    rep.add("leaf-traces", bad is None, "" if bad is None else
            f"{classes[g.comp_id[bad]]}-leaf {lab(bad)} has traces "
            f"{(_byte(tr, bad), _byte(tr_inv, bad))}")

    # (6) every leaf degree is 2^r * v with v odd dividing s.  Every degree
    #     divides t = 2^r * s, so only the degrees dividing t/2 break the
    #     law, and only when r >= 1: the law holds iff no element of
    #     GF(2^(t/2)) is a leaf.
    bad = None
    if spec.r:
        sub = spec.subgroup((1 << (spec.t // 2)) - 1)[:-1] + [0]
        bad = min((v for v in sub if not g.indeg[v]), default=None)
    rep.add("leaf-degree", bad is None, "" if bad is None else
            f"leaf {lab(bad)} has degree {spec.degree(bad)}")

    return rep


# ---------------------------------------------------------------------------
# Exports (labels are discrete logs, so they need the log table)

def _tree_levels(g: ThetaGraph):
    """The in-trees of the cycle vertices, level by level.

    Returns a function of a cycle vertex ``root`` that yields the vertices
    of its levels 1, 2, ... as lists, encodings ascending; a root with no
    tree yields nothing.  The children come from an index built here, for
    the exports only: ``child[v]`` is the least predecessor of v and
    ``sibling[u]`` the next greater one of the same successor (-1 past the
    last).  Level 0 leaves out the cycle predecessor of a root.
    """
    succ, level = g.succ, g.level
    child = array("i", [-1]) * len(succ)
    sibling = array("i", [-1]) * len(succ)
    for v, c in zip(reversed(range(len(succ))), reversed(succ)):
        sibling[v] = child[c]
        child[c] = v

    def levels(root: int):
        frontier = [root]
        while True:
            nxt = []
            for u in frontier:
                w = child[u]
                while w >= 0:
                    if level[w]:
                        nxt.append(w)
                    w = sibling[w]
            if not nxt:
                return
            nxt.sort()
            yield nxt
            frontier = nxt

    return levels


def to_dot(g: ThetaGraph) -> str:
    """One digraph per component, deterministic order, exponent labels."""
    tree_levels = _tree_levels(g)
    out = []
    for cid, comp in enumerate(g.components):
        out.append(f"digraph component_{cid} {{")
        tree = [v for root in comp.cycle for vs in tree_levels(root) for v in vs]
        for v in (*comp.cycle, *tree):
            out.append(f'    "{point_label(g.point(v))}" -> '
                       f'"{point_label(g.point(g.succ[v]))}";')
        out.append("}")
    return "\n".join(out) + "\n"


def to_json(g: ThetaGraph) -> str:
    tree_levels = _tree_levels(g)
    comps = []
    for comp in g.components:
        levels: dict[int, list[int]] = {}
        for root in comp.cycle:
            for k, vs in enumerate(tree_levels(root), 1):
                levels.setdefault(k, []).extend(vs)
        comps.append({
            "cycle": [point_label(g.point(v)) for v in comp.cycle],
            "depth": comp.depth,
            "class": comp.trace_class,
            "levels": {
                str(k): [point_label(g.point(v)) for v in sorted(levels[k])]
                for k in sorted(levels)
            },
        })
    doc = {"t": g.field.t, "modulus": f"{g.field.modulus:x}", "components": comps}
    return json_text(doc)
