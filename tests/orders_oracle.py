"""The mate-pair order battery: the oracle of the Frobenius-orbit one.

Every seed h^j gets its own profile.  The seeds j and q^2+1-j have the same
first iterate, so each pair's tail is profiled once (``profile_tail``) and
given to both; each pair's per-seed checks run once, and their verdict is
recorded under both exponents.  Labels are read point by point from
GF(q^2)'s log table, and the seeds and k0 from the ambient walk of this
module (``ambient_walk``), which the battery makes only for hex labels.
The set checks read their sets from the profiles (``profile_set_inputs``),
where the battery reads images of sets through a graph.
``mate_pair_report`` builds the whole report this way, so ``orders_report``
must give the same document and the same json bytes.
"""

from dataclasses import dataclass

from graph_oracle import theta_pullback
from thetamap.gf2_arith import TABLE_MAX_T, field_to_record
from thetamap.order_dynamics import (
    SeedWalk,
    _seed_verdicts,
    classify_H,
    profile_tail,
    seed_walk,
    trace_quadrants,
    verify_cq1_inclusion,
    verify_theta_permutation,
)
from thetamap.report import CheckReport
from thetamap.theta_graph import build_graph, theta_index


@dataclass(frozen=True)
class AmbientWalk:
    """The seeds of ``walk`` walked in the ambient: ``seeds[j]`` = h^j for
    j = 0..q^2+1, h = gen^(q^2-1); ``values``, ``fault``: their first
    iterates pulled back to GF(q^2) by ``theta_pullback``, values[j] for
    j <= q^2; and k0 with emb(gen_2n) = (gen^(q^2+1))^k0."""

    walk: SeedWalk
    seeds: list[int]
    values: list[int | None]
    fault: str | None
    k0: int


def ambient_walk(walk: SeedWalk) -> AmbientWalk:
    """The ambient walk of ``walk``'s seeds; k0 is found by walking the
    powers of gen^(q^2+1) up to the image of GF(q^2)'s generator."""
    tower = walk.tower
    ambient, big = tower.ambient, tower.q ** 2 + 1
    seeds = ambient.subgroup(big)
    values, fault = theta_pullback(tower.double, ambient, seeds)
    ghat = ambient.pow(ambient.gen, big)
    k0 = ambient.powers(ghat, big - 3).index(walk.emb[tower.double.gen])
    return AmbientWalk(walk, seeds, values, fault, k0)


def ambient_point(amb: AmbientWalk, x: int) -> int:
    """A point of GF(q^2) (index q^2 is inf) as an ambient index."""
    tower = amb.walk.tower
    return tower.ambient.q if x == tower.double.q else amb.walk.emb[x]


def label(amb: AmbientWalk, x: int) -> str:
    """The ambient export label of a point of GF(q^2) (index q^2 is inf).

    emb(gen_2n) = gen^((q^2+1) * k0), so a unit x has the ambient log
    (q^2+1) * (k0 * log x mod q^2-1).
    """
    tower = amb.walk.tower
    double = tower.double
    if x == 0:
        return "'0'"
    if x == double.q:
        return "inf"
    if tower.ambient.t > TABLE_MAX_T:
        return f"x{ambient_point(amb, x):x}"
    n2 = double.q - 1
    return str((n2 + 2) * (amb.k0 * double.dlog(x) % n2))


def seed_label(amb: AmbientWalk, j: int) -> str:
    """The ambient export label of the seed h^j."""
    tower = amb.walk.tower
    if tower.ambient.t > TABLE_MAX_T:
        return f"x{amb.seeds[j]:x}"
    return str(j * (tower.q ** 2 - 1))


def seed_profiles(walk):
    """Every seed's profile, in exponent order j = 1..q^2.

    The seeds j and q^2+1-j share their iterates from index 1 on, so each
    pair's tail is profiled once.
    """
    big = walk.tower.q ** 2 + 1
    profiles = [None] * (big - 1)
    for j in range(1, big // 2 + 1):      # j < q^2+1-j: big is odd
        tail = profile_tail(walk, j)
        profiles[j - 1] = classify_H(walk, j, tail)
        profiles[big - j - 1] = classify_H(walk, big - j, tail)
    return profiles


def profile_set_inputs(tower, profiles) -> tuple[tuple, tuple, tuple]:
    """The arguments of ``verify_cq1_inclusion``, ``trace_quadrants`` and
    ``verify_theta_permutation``, read from every seed's profile.

    S_1, S_(l+2) and S_(l+4) are the points at indices 1, l+2 and l+4.  The
    images of A = C_(q+1) & S_1 are the later points of the seeds whose
    first iterate has order dividing q+1, those of B = C_(q+1) & S_(l+2) of
    the seeds whose iterate l+2 has; a special point there has only inf
    after it, which the check drops.  f(S_(l+4)) is ``theta_index`` of each
    landing point.  Every seed is profiled, so no conjugate is needed.
    """
    double, q, l = tower.double, tower.q, tower.l

    def points(i, profs=profiles):
        return {p.steps[i].point for p in profs}

    in_a = [p for p in profiles if (q + 1) % p.steps[1].order == 0]
    in_b = [p for p in profiles if (q + 1) % p.steps[l + 2].order == 0]
    landing = points(l + 4)
    return ((tower, double.subgroup(q + 1)[:-1], points(1), points(l + 2),
             build_graph(double)),
            (tower, [points(i, in_a) for i in range(2, l + 5)],
             [points(l + 3, in_b), points(l + 4, in_b)]),
            (tower, landing, {theta_index(double, x) for x in landing}))


def pair_verdict_records(tower, profiles) -> list[dict]:
    """The per-seed check records, one verdict per mate pair."""
    big = tower.q ** 2 + 1
    failing: dict[str, list[int]] = {}
    for j in range(1, big // 2 + 1):
        for name, ok in _seed_verdicts(profiles[j - 1]).items():
            bad = failing.setdefault(name, [])
            if not ok:
                bad += (j, big - j)
    return [{"name": name, "pass": not bad,
             "detail": "" if not bad else f"failing seed exponents "
                                          f"{sorted(bad)[:5]}"}
            for name, bad in failing.items()]


def mate_pair_report(tower) -> dict:
    """``orders_report`` of a tower whose seed walk has no fault, with a
    profile per seed and a verdict per mate pair."""
    walk = seed_walk(tower)
    assert walk.fault is None, walk.fault
    amb = ambient_walk(walk)
    profiles = seed_profiles(walk)
    counts = {"H1": 0, "H2": 0, "H3": 0}
    records = []
    for prof in profiles:
        counts[prof.h_class.name] += 1
        labels = [seed_label(amb, prof.exponent),
                  *(label(amb, s.point) for s in prof.steps[1:])]
        records.append({
            "exponent": prof.exponent,
            "class": prof.h_class.name,
            "case": prof.h_class.value,
            "steps": [{
                "index": s.index,
                "point": lab,
                "order": s.order,
                "d_part": s.d_part,
                "e_part": s.e_part,
                "subfield": s.subfield,
                "tr": s.tr,
                "tr_inv": s.tr_inv,
            } for s, lab in zip(prof.steps, labels)],
        })
    cq1, quadrants, permutation = profile_set_inputs(tower, profiles)
    checks = CheckReport()
    for sub in (verify_cq1_inclusion(*cq1),
                trace_quadrants(*quadrants),
                verify_theta_permutation(*permutation)):
        checks.checks.extend(sub.checks)
    return {
        "n": tower.n, "l": tower.l, "m": tower.m, "q": tower.q,
        "field": field_to_record(tower.ambient),
        "counts": counts,
        "profiles": records,
        "checks": pair_verdict_records(tower, profiles) + checks.records(),
    }


def member_profiles(orbits, profiles) -> list:
    """Every seed's profile, in exponent order, as its orbit leader's."""
    out = [None] * sum(map(len, orbits))
    for orbit, prof in zip(orbits, profiles):
        for j in orbit:
            out[j - 1] = prof
    return out
