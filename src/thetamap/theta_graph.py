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

One walk of the unit group gives the map and the trace tables
(``unit_walk``).  x + 1/x takes the same value at x and 1/x, so gen's split
tables are stepped q-1 times and 1/gen's only q/2-1 times, pairing gen^i
with gen^-i; the in-degrees are counted as the map is written.  Tr(1/x) is
read from gen's walk alone, pairing its second half with its first: it never
reads 1/gen's tables nor the map, so a fault in either still shows against
it in class-preservation.  ``build_graph`` keeps the map as ``succ`` and the
trace tables as ints.

A point is its raw index: the packed element, or q for infinity.  The
projective conventions (1/0 = 0, 1/inf = inf, |0| = |inf| = 1, Tr(0) =
Tr(inf) = 0) are applied inline where a raw index meets them: in
``theta_index``, ``unit_walk`` and order_dynamics' ``profile_tail`` and
``trace_quadrants``.  ``verify_structure`` makes no per-vertex field call
and does not walk the unit group: its tree-shape checks read child counts
from the in-degrees, its class-preservation and leaf-trace checks read
Tr(x) and Tr(1/x) of every vertex from the graph's trace tables, a block of
vertices at a time, where Tr(1/0) = 0 is stored, and inf, the index past
both tables, counts as class A; its leaf-degree check walks the subfield
GF(2^(t/2)) instead of every leaf.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import not_, xor
from dataclasses import dataclass

from thetamap.gf2_arith import (
    FieldError,
    FieldSpec,
    _pinvmod,
    subfield_embedding,
)
from thetamap.report import CheckReport, json_text

__all__ = [
    "GRAPH_MAX_T",
    "Component",
    "ThetaGraph",
    "theta_index",
    "Pullback",
    "theta_pullback",
    "UnitWalk",
    "unit_walk",
    "build_graph",
    "verify_structure",
    "point_label",
    "to_dot",
    "to_json",
]

# The graph's index arrays are array('i'), 4 bytes per entry: they hold the
# vertex encodings 0..2^t for t up to 30.
GRAPH_MAX_T = 30


def point_label(field: FieldSpec, index: int) -> str:
    """Export label of a point encoding: discrete log of a unit, `'0'` for
    zero, `inf` for infinity (index 2^t).

    Fields too large for a log table fall back to hex coordinates prefixed
    with `x`, keeping labels deterministic at every size.
    """
    if index == field.q:
        return "inf"
    if index == 0:
        return "'0'"
    try:
        return str(field.dlog(index))
    except FieldError:
        return f"x{index:x}"


def theta_index(field: FieldSpec, idx: int) -> int:
    """The map on raw point encodings (index 2^t is infinity)."""
    if idx == 0 or idx == field.q:
        return field.q
    return idx ^ field.inv(idx)


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
    unless the kernel is faulty.  ``tr`` and ``tr_inv`` are the unit walk's
    Tr(x) and Tr(1/x) in ``_bits`` form (``UnitWalk``).
    """

    def __init__(self, field: FieldSpec, succ: array, level: array,
                 comp_id: array, components: list[Component], indeg: array,
                 tr: int, tr_inv: int):
        self.field = field
        self.succ = succ
        self.level = level
        self.comp_id = comp_id
        self.components = components
        self.indeg = indeg
        self.tr = tr
        self.tr_inv = tr_inv

    def leaf_indices(self):
        """Encodings of the in-degree-0 vertices, ascending.

        Infinity is never among them: its self-loop counts.
        """
        return compress(range(len(self.indeg)), map(not_, self.indeg))

    def __repr__(self) -> str:
        return (f"ThetaGraph(t={self.field.t}, vertices={len(self.succ)}, "
                f"components={len(self.components)})")


@dataclass
class UnitWalk:
    """The map and the trace tables from one walk of the generator.

    ``succ`` is the map on the point encodings (0 and inf go to inf) and
    ``indeg`` the number of predecessors of each point, both ``array('i')``
    with q+1 entries.  ``tr`` and ``tr_inv`` hold Tr(x) and Tr(1/x) for
    every packed x < q in ``_bits`` form, with Tr(1/0) = 0.
    """

    succ: array
    indeg: array
    tr: int
    tr_inv: int


def unit_walk(spec: FieldSpec, scratch: array | None = None) -> UnitWalk:
    """Every unit with its inverse, by one walk of gen and half a walk of
    1/gen, each by its split tables (``FieldSpec.step_tables``).

    x + 1/x is the same at x and 1/x, so for i = 1..q/2-1 the walk writes
    gen^i + gen^-i at both gen^i and gen^-i, counting two predecessors for
    it; with gen^0 = 1 (sent to 0) that covers every unit.  gen's walk
    stores gen^i in ``scratch`` (q/2 entries of -1, left at -1; ``None``
    allocates them) on its first half, and on the second half pairs
    gen^(q-1-i) with the stored gen^i to fill Tr(1/x).  So Tr(1/x) never
    reads 1/gen's tables, and the map never reads the stored powers: a
    fault in 1/gen's tables, or in the map, still shows against Tr(1/x).

    Refused with FieldError: split tables whose image of 1 is not gen (or
    the inverse of gen by the Euclidean algorithm), a half walk of 1/gen
    that does not meet gen's at gen^-(q/2-1) = gen^(q/2), and a walk of gen
    that is not back at 1 after q-1 steps.
    """
    q = spec.q
    half = q // 2
    if scratch is None:
        scratch = array("i", [-1]) * half
    lo, hi, h = spec.step_tables(spec.gen)
    ilo, ihi, _ = spec.step_tables(_pinvmod(spec.gen, spec.modulus))
    mask = len(lo) - 1
    tr = spec.trace_bytes()
    tr_inv = bytearray(q)
    succ = array("i", [q]) * (q + 1)         # 0 and inf go to inf
    indeg = array("i", [0]) * (q + 1)
    succ[1] = 0
    indeg[0] = 1
    indeg[q] = 2
    scratch[0] = fwd = bwd = 1
    for i in range(1, half):
        fwd = lo[fwd & mask] ^ hi[fwd >> h]
        bwd = ilo[bwd & mask] ^ ihi[bwd >> h]
        scratch[i] = fwd
        succ[fwd] = succ[bwd] = c = fwd ^ bwd
        indeg[c] += 2
    fwd = lo[fwd & mask] ^ hi[fwd >> h]
    if fwd != bwd:
        raise FieldError("generator order mismatch")
    scratch[0] = -1
    tr_inv[1] = tr[1]
    for i in range(half - 1, 0, -1):         # fwd = gen^(q-1-i)
        x = scratch[i]
        scratch[i] = -1
        tr_inv[fwd] = tr[x]
        tr_inv[x] = tr[fwd]
        fwd = lo[fwd & mask] ^ hi[fwd >> h]
    if fwd != 1:
        raise FieldError("generator order mismatch")
    tr = _bits(tr)                           # frees the bytes before the next
    return UnitWalk(succ, indeg, tr, _bits(tr_inv))


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

    # the walk borrows comp_id's first q/2 entries and leaves them at -1
    comp_id = array("i", [-1]) * nverts
    walk = unit_walk(spec, comp_id)
    succ, indeg = walk.succ, walk.indeg

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

    return ThetaGraph(spec, succ, level, comp_id, components, indeg,
                      walk.tr, walk.tr_inv)


# ---------------------------------------------------------------------------
# Structural verification

def _bits(table: bytes) -> int:
    """A byte table as one int, byte v at bits 8v..8v+7."""
    return int.from_bytes(table, "little")


def _byte(x: int, v: int) -> int:
    """Byte v of ``_bits`` form."""
    return x >> 8 * v & 0xFF


def _least_set_byte(x: int, first: int) -> int | None:
    """first + the least v whose byte is nonzero in ``_bits`` form; None
    for 0."""
    return first + (((x & -x).bit_length() - 1) >> 3) if x else None


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
    q = inf = spec.q
    d = spec.r + 2
    rep = CheckReport(f"structure of the map graph over GF(2^{spec.t})")

    def lab(v: int) -> str:
        return point_label(spec, v)

    # (1) the trace class is preserved along every edge: each vertex's
    #     class byte Tr(x) ^ Tr(1/x) (1 for B) equals its component's, in_b.
    #     Tr(1/x) comes from gen's walk alone, not from succ, which 1/gen's
    #     tables gave (``unit_walk``), so a wrong edge shows here.
    # (5) leaf traces: A-leaves have Tr(x) = Tr(1/x) = 1, B-leaves (0, 1);
    #     a leaf passes where Tr(1/x) = 1 and Tr(x) = 1 exactly off B.
    # Both read the vertices in blocks of ``step``, so that each big-int
    # temporary is one block long; the first witness of each is kept.
    tr, tr_inv = g.tr, g.tr_inv
    classes = [comp.trace_class for comp in g.components]
    comp_b = bytes(cls == "B" for cls in classes)
    bad_class = bad_leaf = None
    step = max(q >> 4, 1 << 12)
    for a in range(0, q + 1, step):
        b = min(a + step, q + 1)
        mask = (1 << 8 * (b - a)) - 1
        x = tr >> 8 * a & mask
        y = tr_inv >> 8 * a & mask
        in_b = _bits(bytes(map(comp_b.__getitem__, g.comp_id[a:b])))
        is_leaf = _bits(bytes(map(not_, g.indeg[a:b])))
        if bad_class is None:
            bad_class = _least_set_byte(x ^ y ^ in_b, a)
        if bad_leaf is None:
            bad_leaf = _least_set_byte(is_leaf & ~(y & (x ^ in_b)), a)
    rep.add("class-preservation", bad_class is None,
            "" if bad_class is None else f"witness {lab(bad_class)}")

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

    # (5), read above
    rep.add("leaf-traces", bad_leaf is None, "" if bad_leaf is None else
            f"{classes[g.comp_id[bad_leaf]]}-leaf {lab(bad_leaf)} has traces "
            f"{(_byte(tr, bad_leaf), _byte(tr_inv, bad_leaf))}")

    # (6) every leaf degree is 2^r * v with v odd dividing s.  Every degree
    #     divides t = 2^r * s, so only the degrees dividing t/2 break the
    #     law, and only when r >= 1: the law holds iff no element of
    #     GF(2^(t/2)) is a leaf.  The witness's degree is read by squaring
    #     it, which a faulty kernel may never bring back: the detail says so.
    bad = None
    if spec.r:
        sub = spec.subgroup((1 << (spec.t // 2)) - 1)[:-1] + [0]
        bad = min((v for v in sub if not g.indeg[v]), default=None)
    detail = ""
    if bad is not None:
        deg = spec.degree(bad)
        detail = (f"leaf {lab(bad)} has degree {deg}" if deg is not None else
                  f"leaf {lab(bad)} does not return under {spec.t} squarings")
    rep.add("leaf-degree", bad is None, detail)

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
            out.append(f'    "{point_label(g.field, v)}" -> '
                       f'"{point_label(g.field, g.succ[v])}";')
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
            "cycle": [point_label(g.field, v) for v in comp.cycle],
            "depth": comp.depth,
            "class": comp.trace_class,
            "levels": {
                str(k): [point_label(g.field, v) for v in sorted(levels[k])]
                for k in sorted(levels)
            },
        })
    doc = {"t": g.field.t, "modulus": f"{g.field.modulus:x}", "components": comps}
    return json_text(doc)
