"""The functional graph of x -> x + 1/x over the projective line of GF(2^t).

Every point of P^1(F_q) = F_q + {inf} has exactly one outgoing edge, so the
graph splits into connected components, each a single cycle whose vertices
root in-trees of non-periodic predecessors.  This module builds the graph
densely (arrays indexed by the packed-element encoding, with the extra index
q for the point at infinity) and decomposes it by peeling in-degrees: the
leaves are removed, then every vertex whose last predecessor went, until
only the cycles are left.  The leaves are read from the in-degrees, twice,
and only the vertices the peel frees are queued; that queue reversed, then
the leaves, places each tree vertex one level above its successor, in its
successor's component.  The peel counts down its own copy of the
in-degrees, which then holds the levels, so the in-degrees are left as the
walk counted them.  In-degrees, levels and component ids are
``array('B')``; a faulty kernel's in-degrees or levels past 255 widen to
``array('i')``, and component ids widen to ``array('H')`` past 256
components and to ``array('i')`` past 65 536.  So the arrays built are the
arrays kept, and ``build_graph`` peaks at about the size of the graph it
returns.  It classifies components by the trace condition Tr(x) = Tr(1/x),
and verifies the structural facts the decomposition obeys: tree depths r+2
versus 1, the per-level counts, leaf traces, and leaf degrees.

One walk of the unit group gives the map and the trace tables
(``unit_walk``).  x + 1/x takes the same value at x and 1/x, so gen's split
tables are stepped q-1 times and 1/gen's only q/2-1 times, pairing gen^i
with gen^-i; the in-degrees are counted as the map is written.  Tr(1/x) is
read from gen's walk alone, pairing its second half with its first: it never
reads 1/gen's tables nor the map, so a fault in either still shows against
it in class-preservation.  ``build_graph`` keeps the map as ``succ`` and the
trace tables as they were walked, one byte per packed x.

A point is its raw index: the packed element, or q for infinity.  The
projective conventions (1/0 = 0, 1/inf = inf, |0| = |inf| = 1, Tr(0) =
Tr(inf) = 0) are applied inline where a raw index meets them: in
``theta_index``, ``unit_walk`` and order_dynamics' ``profile_tail`` and
``trace_quadrants``.  ``verify_structure`` makes no per-vertex field call
and does not walk the unit group.  It reads the vertices a block at a
time, on byte lanes: each vertex's component kind (A, B or infinity's
tree), gathered once from ``comp_id``, its level and its in-degree, both
clamped to a byte, and its Tr(x) and Tr(1/x) from the graph's trace
tables, sliced a block at a time, where Tr(1/0) = 0 is stored, and inf,
the index past both tables, counts as class A.  Class preservation and leaf
traces are big-int operations on those lanes, each one block long; the
tree shapes are one ``translate`` of a key byte per vertex through a table
of the per-vertex rules and one ``find`` per kind.  Its leaf-degree check
walks the subfield GF(2^(t/2)) instead of every leaf.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, compress, repeat
from operator import not_

from thetamap.gf2_arith import (
    FieldError,
    FieldSpec,
    _pinvmod,
    subfield_embedding,
)
from thetamap.report import CheckReport, json_pieces

__all__ = [
    "GRAPH_MAX_T",
    "Component",
    "ThetaGraph",
    "theta_index",
    "norm_one_dickson",
    "UnitWalk",
    "unit_walk",
    "build_graph",
    "verify_structure",
    "point_label",
    "to_dot",
    "to_json",
]

# succ is array('i'): it holds the encodings 0..2^t for t up to 30.  indeg,
# level and comp_id are array('B'), until widened (ThetaGraph).
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


def _preimage(sub: FieldSpec, ambient: FieldSpec, emb: list[int],
              a: int) -> int:
    """emb^-1(a) in ``sub``; FieldError for an ``a`` outside its image."""
    try:
        return emb.index(a)
    except ValueError:
        raise FieldError(f"witness {a:#x} of GF(2^{ambient.t}) "
                         f"outside GF(2^{sub.t})") from None


def norm_one_dickson(sub: FieldSpec, ambient: FieldSpec, m: int
                     ) -> tuple[array, list[int], tuple[str, str] | None]:
    """x + 1/x on the order-m subgroup of ``ambient`` = GF(Q^2), m | Q+1, in
    ``sub`` = GF(Q): (values, emb, fault), values[k] = D_k(b) = h^k + h^-k
    for k = 0..m, h = gen^((Q^2-1)/m), b = h + 1/h pulled back once through
    emb = ``subfield_embedding(sub, ambient)``.  h has order m iff D_m(b) = 0
    and D_(m/p)(b) != 0 for each prime p | m.  Never raises on a faulty
    kernel: ``fault`` is None or (check name, witness)."""
    try:
        emb = subfield_embedding(sub, ambient)
        h = ambient.pow(ambient.gen, (ambient.q - 1) // m)
        b = _preimage(sub, ambient, emb, h ^ ambient.inv(h))
    except FieldError as exc:
        return array("i"), [], ("first-iterate-pullback", str(exc))
    values = sub.dickson_values(b, m)
    for k in (m, *(m // p for p, _ in sub.fact_plus.primes if m % p == 0)):
        if (values[k] == 0) != (k == m):
            return values, emb, ("subgroup-closure",
                f"h has not order {m}: D_{k}(f(h)) = {values[k]:#x}")
    return values, emb, None


class Component:
    """One connected component: its cycle, tree depth and trace class.

    ``cycle`` is an ``array('i')`` of encodings that follows the successor
    direction, rotated to start at the vertex with the least encoding
    (infinity encodes greatest).  ``depth`` is the deepest level of any
    in-tree (0 when no cycle vertex roots a tree).
    The tree vertices live in the graph's ``level`` and ``comp_id`` arrays.
    Two components are equal when all three fields are.
    """

    __slots__ = ("cycle", "depth", "trace_class")

    def __init__(self, cycle: array, depth: int, trace_class: str):
        self.cycle = cycle
        self.depth = depth
        self.trace_class = trace_class

    def __eq__(self, other) -> bool:
        if not isinstance(other, Component):
            return NotImplemented
        return ((self.cycle, self.depth, self.trace_class)
                == (other.cycle, other.depth, other.trace_class))


class ThetaGraph:
    """The full graph over P^1(F_q), decomposed.

    Dense arrays indexed by point encoding: ``succ`` (the map itself,
    ``array('i')``, which bounds t by GRAPH_MAX_T), ``level`` (0 on cycle
    vertices, else distance to the cycle) and ``indeg`` (the number of
    predecessors, the self-loop of inf included), and ``comp_id`` (position
    in ``components``), all three ``array('B')``.  ``level`` and ``indeg``
    widen to ``array('i')`` past 255 levels or predecessors, which only a
    faulty kernel makes; ``comp_id`` widens to ``array('H')`` past 256
    components and to ``array('i')`` past 65 536.  A tree vertex has
    ``indeg`` children and a cycle vertex one fewer, its cycle predecessor
    aside.  x + 1/x = c is a quadratic in x, so no vertex has in-degree
    above 2 unless the kernel is faulty.  ``tr`` and ``tr_inv`` are the
    unit walk's Tr(x) and Tr(1/x) tables, one byte per packed x
    (``UnitWalk``).
    """

    def __init__(self, field: FieldSpec, succ: array, level: array,
                 comp_id: array, components: list[Component], indeg: array,
                 tr: bytes, tr_inv: bytes):
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
        return _leaves(self.indeg)

    def __repr__(self) -> str:
        return (f"ThetaGraph(t={self.field.t}, vertices={len(self.succ)}, "
                f"components={len(self.components)})")


class UnitWalk:
    """The map and the trace tables from one walk of the generator.

    ``succ`` is the map on the point encodings (0 and inf go to inf),
    ``array('i')``, and ``indeg`` the number of predecessors of each point,
    ``array('B')`` (``array('i')`` once a faulty kernel counts past 255).
    ``tr`` and ``tr_inv`` hold Tr(x) and Tr(1/x) for every packed x < q,
    one byte each (``bytes`` and ``bytearray``), with Tr(1/0) = 0.
    """

    __slots__ = ("succ", "indeg", "tr", "tr_inv")

    def __init__(self, succ: array, indeg: array, tr: bytes,
                 tr_inv: bytearray):
        self.succ = succ
        self.indeg = indeg
        self.tr = tr
        self.tr_inv = tr_inv


def unit_walk(spec: FieldSpec) -> UnitWalk:
    """Every unit with its inverse, by one walk of gen and half a walk of
    1/gen, each by its split tables (``FieldSpec.step_tables``).

    x + 1/x is the same at x and 1/x, so for i = 1..q/2-1 the walk writes
    gen^i + gen^-i at both gen^i and gen^-i, counting two predecessors for
    it; with gen^0 = 1 (sent to 0) that covers every unit.  gen's walk
    stores gen^i, i < q/2, on its first half, and on the second half pairs
    gen^(q-1-i) with them to fill Tr(1/x).  So Tr(1/x) never reads 1/gen's
    tables, and the map never reads the stored powers: a fault in 1/gen's
    tables, or in the map, still shows against Tr(1/x).

    Refused with FieldError: split tables whose image of 1 is not gen (or
    the inverse of gen by the Euclidean algorithm), a half walk of 1/gen
    that does not meet gen's at gen^-(q/2-1) = gen^(q/2), and a walk of gen
    that is not back at 1 after q-1 steps.
    """
    q = spec.q
    half = q // 2
    stash = array("i", [0]) * half
    lo, hi, h = spec.step_tables(spec.gen)
    ilo, ihi, _ = spec.step_tables(_pinvmod(spec.gen, spec.modulus))
    mask = len(lo) - 1
    tr = spec.trace_bytes()
    tr_inv = bytearray(q)
    succ = array("i", [q]) * (q + 1)         # 0 and inf go to inf
    indeg = array("B", [0]) * (q + 1)
    succ[1] = 0
    indeg[0] = 1
    indeg[q] = 2
    stash[0] = fwd = bwd = 1
    for i in range(1, half):
        fwd = lo[fwd & mask] ^ hi[fwd >> h]
        bwd = ilo[bwd & mask] ^ ihi[bwd >> h]
        stash[i] = fwd
        succ[fwd] = succ[bwd] = c = fwd ^ bwd
        try:
            indeg[c] += 2
        except OverflowError:          # only a faulty kernel counts past 255
            indeg = array("i", indeg)
            indeg[c] += 2
    fwd = lo[fwd & mask] ^ hi[fwd >> h]
    if fwd != bwd:
        raise FieldError("generator order mismatch")
    tr_inv[1] = tr[1]
    for i in range(half - 1, 0, -1):         # fwd = gen^(q-1-i)
        x = stash[i]
        tr_inv[fwd] = tr[x]
        tr_inv[x] = tr[fwd]
        fwd = lo[fwd & mask] ^ hi[fwd >> h]
    if fwd != 1:
        raise FieldError("generator order mismatch")
    return UnitWalk(succ, indeg, tr, tr_inv)


def _leaves(indeg: array):
    """The indices of the zero entries of ``indeg``, ascending, read as
    they are iterated."""
    return compress(range(len(indeg)), map(not_, indeg))


def _byte_lanes(a: array, start: int, stop: int) -> bytes:
    """Entries start..stop-1 of the integer array ``a`` as one byte each,
    read from the machine layout: the least significant byte of each entry,
    which ``sys.byteorder`` places first or last.  OverflowError when an
    entry lies outside 0..255, that is, when any other byte is not 0."""
    size = a.itemsize
    raw = memoryview(a)[start:stop].tobytes()
    low = size - 1 if sys.byteorder == "big" else 0
    zero = bytes(len(raw) // size)
    if any(raw[k::size] != zero for k in range(size) if k != low):
        raise OverflowError("entry outside 0..255")
    return raw[low::size]


def _clamp_table(cap: int) -> bytes:
    """min(k, cap) for every byte k: the table ``_clamped`` translates by,
    whose last byte is the cap."""
    return bytes(min(k, cap) for k in range(256))


def _clamped(a: array, start: int, stop: int, table: bytes) -> bytes:
    """min(entry, cap) for entries start..stop-1 of the integer array
    ``a``, one byte each, ``table`` being ``_clamp_table(cap)``: by one
    ``translate`` of the byte lanes, or one entry at a time where an entry
    lies outside 0..255."""
    try:
        return _byte_lanes(a, start, stop).translate(table)
    except OverflowError:
        return bytes(map(min, a[start:stop], repeat(table[-1])))


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

    walk = unit_walk(spec)
    succ, indeg = walk.succ, walk.indeg

    # Peel the leaves, read from the walk's in-degrees, then each vertex
    # whose last predecessor was peeled; only those are queued, and the
    # queue grows while it is read.  The peel counts down its own copy of
    # the in-degrees, one byte per vertex unless a faulty kernel gives a
    # vertex 256 predecessors or more.  Each successor's count drops once
    # per peeled predecessor, so only the cycle vertices keep a count
    # (their cycle predecessor), and every tree vertex is peeled before its
    # successor.
    try:
        count = array("B", indeg)
    except OverflowError:
        count = array("i", indeg)
    freed = array("i")
    for v in chain(_leaves(indeg), freed):
        c = succ[v]
        count[c] -= 1
        if not count[c]:
            freed.append(c)

    # An ascending scan meets each cycle first at its least vertex, so the
    # cycles come out rotated and in component order.  The scan zeroes the
    # counts of each cycle it walks, so it meets no cycle twice, and leaves
    # every count at 0: the counts become the levels, 0 on the cycles.
    comp_id = array("B", [0]) * nverts
    cycles: list[array] = []
    for v in compress(range(nverts), count):
        cid = len(cycles)
        if cid == 1 << 8:
            comp_id = array("H", comp_id)
        elif cid == 1 << 16:
            comp_id = array("i", comp_id)
        cyc = array("i")
        u = v
        while count[u]:
            count[u] = 0
            comp_id[u] = cid
            cyc.append(u)
            u = succ[u]
        cycles.append(cyc)

    # Unpeel: the freed vertices in reverse, then the leaves again, so each
    # vertex's successor is placed before it (a leaf's is freed or on a
    # cycle), and a tree vertex lies one level above its successor, in its
    # component.
    level = count
    depth = [0] * len(cycles)
    for v in chain(reversed(freed), _leaves(indeg)):
        c = succ[v]
        k = level[c] + 1
        cid = comp_id[c]
        if k > depth[cid]:
            depth[cid] = k
            if k == 256:               # only a faulty kernel grows this deep
                level = array("i", level)
        level[v] = k
        comp_id[v] = cid

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


def _least_set_byte(x: int, first: int) -> int | None:
    """first + the least v whose byte is nonzero in ``_bits`` form; None
    for 0."""
    return first + (((x & -x).bit_length() - 1) >> 3) if x else None


def verify_structure(g: ThetaGraph) -> CheckReport:
    """Run the six structural checks; failures become report entries.

    The three tree-shape checks are per-vertex rules on the number of
    children, read on byte lanes from ``level``, the component's kind and
    ``indeg``, and judged by one table lookup per vertex: a tree vertex's
    children are all of its predecessors, a cycle vertex's are all but its
    cycle predecessor.  With d = r+2:

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
    rep = CheckReport()

    def lab(v: int) -> str:
        return point_label(spec, v)

    # (1) the trace class is preserved along every edge: each vertex's
    #     class byte Tr(x) ^ Tr(1/x) (1 for B) equals its component's, in_b.
    #     Tr(1/x) comes from gen's walk alone, not from succ, which 1/gen's
    #     tables gave (``unit_walk``), so a wrong edge shows here.
    # (2)-(4) the tree shapes, by the rules above: a vertex's key byte is
    #     kind << 6 | level << 2 | in-degree, and the table ``bad`` sends a
    #     key that breaks its kind's rule to that kind's flag, 1 for A, 2
    #     for B and 3 for infinity's tree.  The kind is 0 for A, 1 for B,
    #     and 2 plus the class bit for infinity's tree, so its low bit is
    #     in_b.  It is gathered once per vertex from comp_id: by translating
    #     comp_id's bytes where a block holds no component id past 255,
    #     else by one lookup per vertex.  Levels past d break every rule,
    #     so the level is clamped to d+1 (at most 7 for t <= GRAPH_MAX_T);
    #     no rule allows more than two children, and a root's "at least
    #     one" counts one fewer, so the in-degree is clamped to 3.  Levels
    #     and in-degrees past 255, which only a faulty kernel makes, are
    #     clamped one vertex at a time (``_clamped``).
    # (5) leaf traces: A-leaves have Tr(x) = Tr(1/x) = 1, B-leaves (0, 1);
    #     a leaf passes where Tr(1/x) = 1 and Tr(x) = 1 exactly off B.
    # All read the vertices in blocks of ``step``, each lane sliced or
    # gathered for the block alone, so that each big-int temporary is one
    # block long; the first witness of each is kept.
    tr, tr_inv = g.tr, g.tr_inv
    classes = [comp.trace_class for comp in g.components]
    inf_cid = g.comp_id[inf]
    kind = bytearray(cls == "B" for cls in classes).ljust(256, b"\0")
    kind[inf_cid] |= 2
    # the child counts allowed on levels 0, 1, ..., by flag
    one, two, none, some = (1,), (2,), (0,), (1, 2)
    shapes = {1: [one] + [two] * (d - 1) + [none],
              2: [some, none],
              3: [one, one] + [two] * (d - 2) + [none]}

    def broken(key: int) -> int:
        flag = (1, 2, 3, 3)[key >> 6]
        rule, k = shapes[flag], key >> 2 & 15
        children = (key & 3) - (k == 0)
        return flag if k >= len(rule) or children not in rule[k] else 0

    bad = bytes(map(broken, range(256)))
    is_zero = bytes([1]) + bytes(255)
    deg_cap, level_cap = _clamp_table(3), _clamp_table(d + 1)
    bad_class = bad_leaf = None
    first_bad: dict[int, int] = {}
    step = max(q >> 4, 1 << 12)
    for a in range(0, q + 1, step):
        b = min(a + step, q + 1)
        mask = (1 << 8 * (b - a)) - 1
        x = _bits(tr[a:b])                   # inf, past both tables: 0
        y = _bits(tr_inv[a:b])
        try:
            kinds = _byte_lanes(g.comp_id, a, b).translate(kind[:256])
        except OverflowError:
            kinds = bytes(map(kind.__getitem__, g.comp_id[a:b]))
        kinds = _bits(kinds)
        in_b = kinds & mask // 0xFF
        degs = _clamped(g.indeg, a, b, deg_cap)
        flags = (kinds << 6 | _bits(_clamped(g.level, a, b, level_cap)) << 2
                 | _bits(degs)).to_bytes(b - a, "little").translate(bad)
        for flag in {1, 2, 3} - first_bad.keys():
            if (i := flags.find(flag)) >= 0:
                first_bad[flag] = a + i
        if bad_class is None:
            bad_class = _least_set_byte(x ^ y ^ in_b, a)
        if bad_leaf is None:
            is_leaf = _bits(degs.translate(is_zero))
            bad_leaf = _least_set_byte(is_leaf & ~(y & (x ^ in_b)), a)
    rep.add("class-preservation", bad_class is None,
            "" if bad_class is None else f"witness {lab(bad_class)}")

    details = {}
    for flag, v in first_bad.items():
        k = g.level[v]
        details[flag] = (f"vertex {lab(v)} on level {k} has "
                         f"{g.indeg[v] - (k == 0)} children")
    if list(g.components[inf_cid].cycle) != [inf]:
        details[3] = "infinity is not a fixed point"
    for flag, name in ((1, "a-tree-shape"), (2, "b-tree-depth"),
                       (3, "inf-tree-shape")):
        rep.add(name, flag not in details, details.get(flag, ""))

    # (5), read above
    rep.add("leaf-traces", bad_leaf is None, "" if bad_leaf is None else
            f"{classes[g.comp_id[bad_leaf]]}-leaf {lab(bad_leaf)} has traces "
            f"{(tr[bad_leaf], tr_inv[bad_leaf]) if bad_leaf < q else (0, 0)}")

    # (6) every leaf degree is 2^r * v with v odd dividing s.  Every degree
    #     divides t = 2^r * s, so only the degrees dividing t/2 break the
    #     law, and only when r >= 1: the law holds iff no element of
    #     GF(2^(t/2)) is a leaf.  A walk of GF(2^(t/2))* that does not close
    #     is the failure.  The witness's degree is read by squaring it,
    #     which a faulty kernel may never bring back: the detail says so.
    detail = ""
    if spec.r:
        k = (1 << (spec.t // 2)) - 1
        sub = spec.subgroup(k)
        end, sub[k] = sub[k], 0         # h^k = h^0: 0 takes its place
        bad = min((v for v in sub if not g.indeg[v]), default=None)
        if end != 1:
            detail = f"GF(2^{spec.t // 2})* walk: h^{k} = {end:#x}, not 1"
        elif bad is not None:
            deg = spec.degree(bad)
            detail = (f"leaf {lab(bad)} has degree {deg}" if deg is not None
                      else f"leaf {lab(bad)} does not return under "
                           f"{spec.t} squarings")
    rep.add("leaf-degree", not detail, detail)

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


def to_dot(g: ThetaGraph):
    """One digraph per component, deterministic order, exponent labels;
    yielded a component at a time.  Each vertex is labelled once; the
    labels of one cycle and of one root's tree are kept for the targets."""
    tree_levels = _tree_levels(g)
    succ = g.succ
    for cid, comp in enumerate(g.components):
        cyc = {v: point_label(g.field, v) for v in comp.cycle}
        out = [f"digraph component_{cid} {{"]
        out += [f'    "{a}" -> "{cyc[succ[v]]}";' for v, a in cyc.items()]
        for root in comp.cycle:
            label = {root: cyc[root]}
            for vs in tree_levels(root):
                for v in vs:
                    label[v] = a = point_label(g.field, v)
                    out.append(f'    "{a}" -> "{label[succ[v]]}";')
        out.append("}\n")
        yield "\n".join(out)


def to_json(g: ThetaGraph):
    """The components with their levels, as ``report.json_pieces``; one
    piece per component, each built as it is written."""
    tree_levels = _tree_levels(g)

    def record(comp: Component) -> dict:
        levels: dict[int, list[int]] = {}
        for root in comp.cycle:
            for k, vs in enumerate(tree_levels(root), 1):
                levels.setdefault(k, []).extend(vs)
        return {
            "cycle": [point_label(g.field, v) for v in comp.cycle],
            "depth": comp.depth,
            "class": comp.trace_class,
            "levels": {
                str(k): [point_label(g.field, v) for v in sorted(levels[k])]
                for k in sorted(levels)
            },
        }

    return json_pieces({"t": g.field.t, "modulus": f"{g.field.modulus:x}",
                        "components": map(record, g.components)})
