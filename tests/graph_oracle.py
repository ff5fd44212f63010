"""The per-vertex formulation of the graph layer, kept as a test oracle.

``theta_graph`` decomposes the graph by peeling in-degrees and runs its
trace and leaf checks on whole-field tables.  The functions here do the same
work one vertex at a time, the way the module did before: the map from
``FieldSpec.inv`` per vertex, the predecessors in two slots and an overflow
dict, the cycles as the stable image of the map, levels and components from
the per-root ``tree_levels`` walk, classes by ``classify_AB``, leaf traces
by ``trace`` and ``inv`` (Tr(0) = Tr(inf) = 0, 1/0 = 0) and leaf degrees by
``degree``, one leaf at a time.  ``decompose`` takes any successor list, so
a test can hand it the map of a faulty kernel.  ``oracle_shape_checks``
applies ``verify_structure``'s tree-shape rules one vertex at a time, as
that function did before it read them on byte lanes.  ``unit_pairs`` and
``trace_tables`` are the full walks of the generator that
``theta_graph.unit_walk`` replaced: both gen^i and gen^-i in full, and
Tr(1/x) from two more walks of gen^i.  ``theta_pullback`` reads x + 1/x on
a walk of a norm-one subgroup (``FieldSpec.subgroup``) and pulls every sum
back through the embedding, where ``theta_graph.norm_one_dickson`` pulls
back one sum and runs the Dickson recurrence.  ``oracle_dot`` renders the
DOT export one edge at a time, labelling both ends of every edge, as
``theta_graph.to_dot`` did before it labelled each vertex once.

The fault factories at the end return installers taking a ``setattr``-like
callable, so a test can apply them with ``monkeypatch.setattr`` in-process
or with ``setattr`` in a child interpreter.
"""

from __future__ import annotations

from array import array
from operator import xor

import thetamap.theta_graph as theta_graph
from thetamap.gf2_arith import (
    FieldError,
    FieldSpec,
    make_field,
    span_table,
    subfield_embedding,
)
from thetamap.theta_graph import (
    Component,
    ThetaGraph,
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


def theta_pullback(sub: FieldSpec, ambient: FieldSpec,
                   powers: list[int]) -> tuple[list[int | None], str | None]:
    """x + 1/x on the walk ``powers`` = [h^0, ..., h^m] of the order-m
    subgroup of ``ambient``, read in ``sub`` = GF(Q): (values, fault), with
    values[k] = emb^-1(h^k + h^(m-k)) for k < m (None off the image).

    For m | Q+1, 1/y = y^Q, so y + 1/y is the relative trace of y into GF(Q).
    Never raises on a faulty kernel: ``fault`` names the first of a walk
    that does not close (h^m != 1), a failing embedding and a sum outside
    the embedded GF(Q)."""
    m = len(powers) - 1
    if powers[m] != 1:
        return [], f"h^{m} = {powers[m]:#x}, not 1"
    try:
        emb = span_table(subfield_embedding(sub, ambient))
    except FieldError as exc:
        return [], str(exc)
    back = {v: x for x, v in enumerate(emb)}
    values = list(map(back.get, map(xor, powers[:m], reversed(powers[1:]))))
    fault = None
    if None in values:
        k = values.index(None)
        fault = (f"witness {powers[k] ^ powers[m - k]:#x} of "
                 f"GF(2^{ambient.t}) outside GF(2^{sub.t})")
    return values, fault


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
    placed = set()
    for v in sorted(periodic):
        if v in placed:
            continue
        cyc = array("i", [v])          # v is the least vertex of its cycle
        while succ[cyc[-1]] != v:
            cyc.append(succ[cyc[-1]])
        cycles.append(cyc)
        placed.update(cyc)

    level = [0 if v in periodic else -1 for v in range(nverts)]
    comp_id = array("i", [0]) * nverts
    indeg = array("i", (len(predecessors(slots, v)) for v in range(nverts)))
    tr, tr_inv = trace_tables(spec)
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


def _record(name: str, detail: str) -> dict:
    return {"name": name, "pass": not detail, "detail": detail}


def oracle_checks(g: ThetaGraph) -> list[dict]:
    """The TABLE_CHECKS records of ``verify_structure``, one vertex at a time."""
    spec = g.field
    classes = [comp.trace_class for comp in g.components]

    def lab(v: int) -> str:
        return point_label(spec, v)

    bad = next((v for v, cid in enumerate(g.comp_id)
                if classify_AB(spec, v) != classes[cid]), None)
    out = [_record("class-preservation",
                   "" if bad is None else f"witness {lab(bad)}")]

    detail = ""
    for v in g.leaf_indices():
        pair = ((spec.trace(v), spec.trace(spec.inv(v))) if 0 < v < spec.q
                else (0, 0))           # Tr(0) = Tr(1/0) = Tr(inf) = 0
        cls = classes[g.comp_id[v]]
        if pair != ((1, 1) if cls == "A" else (0, 1)):
            detail = f"{cls}-leaf {lab(v)} has traces {pair}"
            break
    out.append(_record("leaf-traces", detail))

    detail = ""
    for v in g.leaf_indices():
        dv = spec.degree(v)
        vodd = dv >> spec.r
        if dv != (vodd << spec.r) or vodd % 2 == 0 or spec.s % vodd != 0:
            detail = f"leaf {lab(v)} has degree {dv}"
            break
    out.append(_record("leaf-degree", detail))
    return out


def oracle_shape_checks(g: ThetaGraph) -> list[dict]:
    """The three tree-shape records of ``verify_structure``, one vertex at
    a time: each vertex's children (its in-degree, less its cycle
    predecessor on level 0) against the counts its kind of tree allows on
    its level, with d = r+2."""
    spec = g.field
    q = inf = spec.q
    d = spec.r + 2
    inf_cid = g.comp_id[inf]
    one, two, none, some = (1,), (2,), (0,), range(1, q + 2)
    shapes = {"A": [one] + [two] * (d - 1) + [none],
              "B": [some, none],
              "inf": [one, one] + [two] * (d - 2) + [none]}
    kinds = [comp.trace_class for comp in g.components]
    kinds[inf_cid] = "inf"
    first_bad: dict[str, tuple[int, int, int]] = {}
    for v, (k, cid, n) in enumerate(zip(g.level, g.comp_id, g.indeg)):
        rule = shapes[kinds[cid]]
        children = n - (k == 0)
        if k >= len(rule) or children not in rule[k]:
            first_bad.setdefault(kinds[cid], (v, k, children))
    details = {kind: f"vertex {point_label(spec, v)} on level {k} has "
                     f"{children} children"
               for kind, (v, k, children) in first_bad.items()}
    if list(g.components[inf_cid].cycle) != [inf]:
        details["inf"] = "infinity is not a fixed point"
    return [_record(name, details.get(kind, ""))
            for kind, name in (("A", "a-tree-shape"), ("B", "b-tree-depth"),
                               ("inf", "inf-tree-shape"))]


def oracle_dot(g: ThetaGraph):
    """``theta_graph.to_dot``'s pieces, one per component, labelled per
    edge: each edge's source and target by their own ``point_label`` call,
    the trees read from the predecessor slots."""
    slots = predecessor_slots(g.succ)
    for cid, comp in enumerate(g.components):
        out = [f"digraph component_{cid} {{"]
        tree = [v for root in comp.cycle
                for vs in tree_levels(slots, g.level, root) for v in vs]
        for v in (*comp.cycle, *tree):
            out.append(f'    "{point_label(g.field, v)}" -> '
                       f'"{point_label(g.field, g.succ[v])}";')
        out.append("}\n")
        yield "\n".join(out)


def oracle_records(g: ThetaGraph) -> list[dict]:
    """All six records of ``verify_structure(g)``, in its order, one vertex
    at a time."""
    classes, traces, degrees = oracle_checks(g)
    return [classes, *oracle_shape_checks(g), traces, degrees]


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

    def unit_walk(spec):
        walk = true_walk(spec)
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


def self_inverse_generator():
    """The unit walk steps gen's split tables for 1/gen's too, so every
    gen^i + gen^-i reads 0: the walk counts q-1 predecessors of 0, past one
    byte from t = 9 on, and its half walk of 1/gen misses gen's."""
    def install(patch) -> None:
        patch(theta_graph, "_pinvmod", lambda a, m: a)

    return install


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
        walk.tr_inv[x0] ^= 1

    def install(patch) -> None:
        patch(FieldSpec, "inv", inv)
        edited_walk(t, edit)(patch)

    return install


def crowded_b_root(t: int, count: int):
    """The unit walk of GF(2^t) re-aims the ``count`` least tree vertices
    at the least vertex on a B-cycle, which gets an in-degree of at least
    ``count``: past one byte from 256 on.  The cycles stay as they were."""
    g = theta_graph.build_graph(make_field(t))
    root = min(v for comp in g.components if comp.trace_class == "B"
               for v in comp.cycle)
    units = [x for x in range(1, 1 << t) if g.level[x]][:count]
    return reaimed_walk(t, dict.fromkeys(units, root))


def subfield_leaves(t: int, targets: list[int]):
    """The unit walk of GF(2^t) re-aims every predecessor of the units
    ``targets`` at the unit 1, so those units become leaves."""
    succ = theta_graph.unit_walk(make_field(t)).succ
    return reaimed_walk(t, {x: 1 for x in range(1, 1 << t)
                            if succ[x] in targets})


# ---------------------------------------------------------------------------
# Faults on the norm-one Dickson path (``theta_graph.norm_one_dickson``)

def seed_generator(t: int, k: int, e: int):
    """gen^e in place of gen^k in GF(2^t): the one ``pow`` that makes the
    generator h = gen^k of a norm-one subgroup gives another element.  A
    field under construction has no generator yet, and its order test keeps
    its own powers."""
    true_pow = FieldSpec.pow

    def pow_(self, a, n):
        if (self.t, n) == (t, k) and a == getattr(self, "gen", None):
            n = e
        return true_pow(self, a, n)

    def install(patch) -> None:
        patch(FieldSpec, "pow", pow_)

    return install


def wrong_dickson_step(t: int, m: int, k: int):
    """[D_0(x), ..., D_m(x)] in GF(2^t) with D_k one bit off and the
    recurrence run on from there; other lengths are left alone."""
    true_values = FieldSpec.dickson_values

    def dickson_values(self, x, n):
        values = true_values(self, x, n)
        if (self.t, n) == (t, m):
            values[k] ^= 1
            for j in range(k + 1, n + 1):
                values[j] = self.mul(x, values[j - 1]) ^ values[j - 2]
        return values

    def install(patch) -> None:
        patch(FieldSpec, "dickson_values", dickson_values)

    return install


def parity_mask(d: int, ones=(), zeros=()) -> int:
    """The least c < 2^d with parity(c & y) = 1 for each y in ``ones`` and
    0 for each y in ``zeros``."""
    return next(c for c in range(1 << d)
                if all((c & y).bit_count() & 1 for y in ones)
                and not any((c & y).bit_count() & 1 for y in zeros))


def skewed_embedding(d: int, t: int, mask: int, e: int):
    """The embedding of GF(2^d) in GF(2^t) that ``theta_graph`` asks for,
    with e added to the image of each basis bit set in ``mask``: the true
    embedding plus y -> parity(y & mask) * e, other degrees left alone.

    For an e outside the embedded GF(2^d) the sum is still injective, and
    its image holds emb(z) iff parity(z & mask) = 0.  For e = emb(w) with
    parity(w & mask) = 0 it is emb after the involution of GF(2^d) that
    adds w to each z with parity(z & mask) = 1: the same image, other
    preimages."""
    true_embedding = theta_graph.subfield_embedding

    def embedding(sub, ambient):
        basis = true_embedding(sub, ambient)
        if (sub.t, ambient.t) != (d, t):
            return basis
        return [v ^ e if mask >> i & 1 else v for i, v in enumerate(basis)]

    def install(patch) -> None:
        patch(theta_graph, "subfield_embedding", embedding)

    return install
