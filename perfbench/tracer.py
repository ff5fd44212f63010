"""Traced in-process run of one thetamap command.

    python3 perfbench/tracer.py SPOOL_DIR -- CLI_ARG...

Installs timing wrappers around the functions of each thetamap layer at
their module (and class) attributes, runs ``thetamap.cli.run`` on the given
arguments with stdout captured, restores every patched attribute, and
prints one JSON document: the per-layer metrics, the field constructions
the run made (replayed by ``setup_fields.py``), the digest of the captured
output, the self-test verdicts and the recorded spans.

Pool workers inherit the wrappers through ``fork``.  Each job a worker runs
writes what it recorded to SPOOL_DIR, and the parent merges those records
after the run, so per-layer numbers cover the whole process tree.

Run it from the root of a checkout with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

# (module, attribute) pairs wrapped during the traced run.  "Class.method"
# patches the class attribute; a plain name patches the module function and
# every thetamap module that imported it by name.
TARGETS = (
    ("gf2_arith", "make_field"),
    ("gf2_arith", "FieldSpec.ensure_tables"),
    ("gf2_arith", "FieldSpec.degree"),
    ("gf2_arith", "FieldSpec.order"),
    ("theta_graph", "build_graph"),
    ("theta_graph", "verify_structure"),
    ("theta_graph", "to_dot"),
    ("theta_graph", "to_json"),
    ("order_dynamics", "make_tower"),
    ("order_dynamics", "subgroup"),
    ("order_dynamics", "classify_H"),
    ("order_dynamics", "h_longform_flags"),
    ("order_dynamics", "case_table"),
    ("order_dynamics", "trace_profile_check"),
    ("order_dynamics", "case1_subcase"),
    ("order_dynamics", "check_order_bound"),
    ("order_dynamics", "verify_cq1_inclusion"),
    ("order_dynamics", "trace_quadrants"),
    ("order_dynamics", "verify_theta_permutation"),
    ("dickson_curve", "_root_bits"),
    ("dickson_curve", "_theta_image_of_small_subgroup"),
    ("dickson_curve", "_identity_check"),
    ("dickson_curve", "kloosterman"),
    ("dickson_curve", "curve_point_count"),
    ("dickson_curve", "curve_point_count_naive"),
    ("cli", "run"),
    ("cli", "_map_jobs"),
    ("cli", "_structure_job"),
    ("cli", "_orders_job"),
    ("cli", "_dickson_job"),
    ("cli", "_emit"),
    ("report", "CheckReport.add"),
)

# Called too often to keep one span record per call; only their totals are
# kept.
HOT = {"gf2_arith.FieldSpec.degree", "gf2_arith.FieldSpec.order",
       "report.CheckReport.add"}

JOBS = ("cli._structure_job", "cli._orders_job", "cli._dickson_job")
SEED_CHECKS = ("case_table", "trace_profile_check", "h_longform_flags",
               "case1_subcase", "check_order_bound")
SET_CHECKS = ("verify_cq1_inclusion", "trace_quadrants",
              "verify_theta_permutation")
DICKSON_STEPS = (
    ("root_scan_s", ("_root_bits",)),
    ("subgroup_image_s", ("_theta_image_of_small_subgroup",)),
    ("identity_check_s", ("_identity_check",)),
    ("kloosterman_s", ("kloosterman",)),
    ("curve_count_s", ("curve_point_count", "curve_point_count_naive")),
)


class Recorder:
    """Spans and counters of one process; pool workers start a fresh one."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.stack = [[0.0, None]]      # [child seconds, span id]; root frame
        self.totals = {}                # name -> [calls, total s, self s]
        self.spans = []                 # [id, parent, name, start, end, pid]
        self.counts = {}
        self.jobs = []                  # job durations, s
        self.fields = []                # {"t", "modulus", "tabled"}
        self.setup = []                 # constructions to replay
        self.by_spec = {}               # id(FieldSpec) -> (field, setup entry)
        self.keep = []                  # specs seen, so their ids stay unique
        self.tables_seen = set()        # id(FieldSpec) of ensure_tables calls
        self.tower_depth = 0
        self.notes = []                 # counters a hook could not compute

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def tally(self, name: str, calls: int, total: float, own: float) -> None:
        agg = self.totals.setdefault(name, [0, 0.0, 0.0])
        agg[0] += calls
        agg[1] += total
        agg[2] += own

    def export(self) -> dict:
        return {"totals": self.totals, "spans": self.spans,
                "counts": self.counts, "jobs": self.jobs,
                "fields": self.fields, "setup": self.setup,
                "notes": self.notes}

    def merge(self, doc: dict) -> None:
        for name, (calls, total, own) in doc["totals"].items():
            self.tally(name, calls, total, own)
        for key, n in doc["counts"].items():
            self.add(key, n)
        for key in ("spans", "jobs", "fields", "setup", "notes"):
            getattr(self, key).extend(doc[key])


class Tracer:
    """Installs the wrappers, records into a Recorder, restores on exit."""

    def __init__(self, spool_dir: str) -> None:
        import thetamap.cli  # noqa: F401  (loads every layer module)
        self.spool_dir = spool_dir
        self.main_pid = os.getpid()
        self.rec = Recorder()
        self.patched = []               # (owner, attribute, original)
        self.wrappers = {}              # id -> every wrapper installed
        self.missing = []
        self.next_span = 0
        self.spools = 0

    # -- install / restore ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        mods = {name: mod for name, mod in sys.modules.items()
                if name.split(".")[0] == "thetamap" and mod is not None}
        for layer, attr in TARGETS:
            owner = mods.get(f"thetamap.{layer}")
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            orig = owner.__dict__.get(meth) if owner is not None else None
            if orig is None:
                self.missing.append(f"{layer}.{attr}")
                continue
            wrapper = self._wrap(f"{layer}.{attr}", orig)
            self.wrappers[id(wrapper)] = wrapper
            holders = ([owner] if cls_name else
                       [m for m in mods.values() if vars(m).get(meth) is orig])
            for holder in holders:
                self.patched.append((holder, meth, orig))
                setattr(holder, meth, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, orig in reversed(self.patched):
            setattr(holder, attr, orig)

    def leftovers(self) -> list[str]:
        """Attributes that still hold a wrapper or lost their original."""
        def label(owner):
            if isinstance(owner, type):
                return f"{owner.__module__}.{owner.__qualname__}"
            return owner.__name__

        bad = {f"{label(h)}.{a}" for h, a, orig in self.patched
               if h.__dict__.get(a) is not orig}
        for name, mod in sys.modules.items():
            if name.split(".")[0] != "thetamap" or mod is None:
                continue
            for owner in [mod] + [v for v in vars(mod).values()
                                  if isinstance(v, type)]:
                bad |= {f"{label(owner)}.{a}" for a, v in vars(owner).items()
                        if id(v) in self.wrappers}
        return sorted(bad)

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name == "gf2_arith.FieldSpec.ensure_tables":
            return self._wrap_tables(name, fn)
        hot = name in HOT
        after = self._after.get(name)
        is_job = name in JOBS
        is_tower = name == "order_dynamics.make_tower"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_job and os.getpid() != self.main_pid:
                self.rec.reset()        # a pool worker: drop the parent's copy
            rec = self.rec
            span = None
            if not hot:
                span = self.next_span
                self.next_span += 1
            parent = rec.stack[-1][1]
            frame = [0.0, span if span is not None else parent]
            rec.stack.append(frame)
            rec.tower_depth += is_tower
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                rec.tower_depth -= is_tower
                rec.stack.pop()
                dur = end - start
                rec.stack[-1][0] += dur
                rec.tally(name, 1, dur, dur - frame[0])
                if span is not None:
                    rec.spans.append([span, parent, name, start, end,
                                      os.getpid()])
            if after is not None:
                try:
                    after(self, rec, args, kwargs, result)
                except Exception as exc:    # the program changed shape
                    rec.notes.append(f"{name}: counter skipped "
                                     f"({type(exc).__name__}: {exc})")
            if is_job:
                rec.jobs.append(dur)
                if os.getpid() != self.main_pid:
                    self._spool()
            return result

        return wrapper

    def _wrap_tables(self, name: str, fn):
        """Times only the calls that build a table (the first per field)."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def ensure_tables(spec):
            rec = self.rec
            if id(spec) in rec.tables_seen:
                return fn(spec)
            rec.tables_seen.add(id(spec))
            rec.keep.append(spec)
            start = clock()
            fn(spec)                    # a refusal raises: nothing is counted
            dur = clock() - start
            rec.stack[-1][0] += dur
            rec.tally(name, 1, dur, dur)
            rec.spans.append([self.next_span, rec.stack[-1][1], name,
                              start, start + dur, os.getpid()])
            self.next_span += 1
            rec.add("tables_built")
            rec.add("table_entries", 2 * (spec.q - 1) + spec.q)  # exp + log
            known = rec.by_spec.get(id(spec))
            if known is not None:
                known[0]["tabled"] = True
                known[1]["tables"] = True

        return ensure_tables

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir, f"{os.getpid()}-{self.spools}.json")
        self.spools += 1
        with open(path, "w") as fh:
            json.dump(self.rec.export(), fh)
        self.rec.reset()

    # -- what each wrapped function records beyond its span -------------------

    def _made_field(self, rec, args, kwargs, spec) -> None:
        field = {"t": spec.t, "modulus": spec.modulus, "tabled": False}
        rec.fields.append(field)
        rec.keep.append(spec)
        entry = None
        if not rec.tower_depth:
            entry = {"call": "make_field", "args": list(args),
                     "kwargs": kwargs, "tables": False}
            rec.setup.append(entry)
        rec.by_spec[id(spec)] = (field, entry or {})

    def _made_tower(self, rec, args, kwargs, tower) -> None:
        entry = {"call": "make_tower", "args": list(args), "kwargs": kwargs,
                 "tables": False}
        rec.setup.append(entry)
        field = rec.by_spec.get(id(tower.ambient), ({}, None))[0]
        rec.by_spec[id(tower.ambient)] = (field, entry)

    def _built_graph(self, rec, args, kwargs, g) -> None:
        rec.add("vertices", len(g.succ))
        rec.add("components", len(g.components))
        rec.add("leaves", len(g.succ) - len(set(g.succ)))   # in-degree 0

    def _classified(self, rec, args, kwargs, profile) -> None:
        rec.add(f"seeds.{profile.h_class.name}")

    def _subgroup(self, rec, args, kwargs, elems) -> None:
        rec.add("subgroup_elements", len(elems))

    def _check_added(self, rec, args, kwargs, check) -> None:
        rec.add("checks")
        rec.add("checks_failed", not check.passed)

    def _emitted(self, rec, args, kwargs, code) -> None:
        rec.add("output_bytes", len(args[0].encode()))

    def _mapped(self, rec, args, kwargs, docs) -> None:
        rec.add("jobs_submitted", len(args[1]))

    _after = {
        "gf2_arith.make_field": _made_field,
        "order_dynamics.make_tower": _made_tower,
        "theta_graph.build_graph": _built_graph,
        "order_dynamics.classify_H": _classified,
        "order_dynamics.subgroup": _subgroup,
        "report.CheckReport.add": _check_added,
        "cli._emit": _emitted,
        "cli._map_jobs": _mapped,
    }

    def collect(self) -> Recorder:
        """Merge the pool workers' spool files into the parent's records."""
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path) as fh:
                self.rec.merge(json.load(fh))
            os.remove(path)
        return self.rec


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics from the merged records.

    Times are self times (span minus traced child spans) unless the name
    says otherwise; ``cli.map_jobs_s``, ``cli.run_s`` and the job times are
    whole spans.
    """
    t = rec.totals
    c = rec.counts

    def own(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[2] for n in names)

    def whole(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[1] for n in names)

    def calls(*names):
        return sum(t.get(n, (0, 0.0, 0.0))[0] for n in names)

    made = calls("gf2_arith.make_field")
    distinct = len({(f["t"], f["modulus"]) for f in rec.fields})
    od = "order_dynamics."
    m = {
        "gf2_arith.table_build_s": own("gf2_arith.FieldSpec.ensure_tables"),
        "gf2_arith.tables_built": c.get("tables_built", 0),
        "gf2_arith.table_entries": c.get("table_entries", 0),
        "gf2_arith.degree_s": own("gf2_arith.FieldSpec.degree"),
        "gf2_arith.degree_calls": calls("gf2_arith.FieldSpec.degree"),
        "gf2_arith.order_s": own("gf2_arith.FieldSpec.order"),
        "gf2_arith.order_calls": calls("gf2_arith.FieldSpec.order"),
        "gf2_arith.make_field_s": own("gf2_arith.make_field"),
        "gf2_arith.make_field_calls": made,
        "gf2_arith.fields_distinct": distinct,
        "gf2_arith.fields_distinct_per_call": distinct / made if made else 0.0,
        "gf2_arith.untabled_fields": sum(not f["tabled"] for f in rec.fields),
        "theta_graph.build_graph_s": own("theta_graph.build_graph"),
        "theta_graph.verify_structure_s": own("theta_graph.verify_structure"),
        "theta_graph.export_s": own("theta_graph.to_dot", "theta_graph.to_json"),
        "theta_graph.vertices": c.get("vertices", 0),
        "theta_graph.components": c.get("components", 0),
        "theta_graph.leaves": c.get("leaves", 0),
        od + "make_tower_s": own(od + "make_tower"),
        od + "classify_H_s": own(od + "classify_H"),
        od + "seed_checks_s": own(*(od + n for n in SEED_CHECKS)),
        od + "set_checks_s": own(*(od + n for n in SET_CHECKS)),
        od + "subgroup_s": own(od + "subgroup"),
        od + "seeds.H1": c.get("seeds.H1", 0),
        od + "seeds.H2": c.get("seeds.H2", 0),
        od + "seeds.H3": c.get("seeds.H3", 0),
        od + "subgroup_calls": calls(od + "subgroup"),
        od + "subgroup_elements": c.get("subgroup_elements", 0),
    }
    for metric, fns in DICKSON_STEPS:
        m["dickson_curve." + metric] = own(*("dickson_curve." + f for f in fns))
    m.update({
        "cli.run_s": whole("cli.run"),
        "cli.jobs": len(rec.jobs),
        "cli.job_s.max": max(rec.jobs, default=0.0),
        "cli.job_s.sum": sum(rec.jobs),
        "cli.map_jobs_s": whole("cli._map_jobs"),
        # run minus the jobs and the field/graph builds it makes itself:
        # formatting, export and emit
        "cli.assemble_s": own("cli.run") + whole("theta_graph.to_dot",
                                                 "theta_graph.to_json",
                                                 "cli._emit"),
        "cli.output_bytes": c.get("output_bytes", 0),
        "report.checks": c.get("checks", 0),
        "report.checks_failed": c.get("checks_failed", 0),
    })
    return m


def traced_run(argv: list[str], spool_dir: str) -> dict:
    from thetamap import cli, gf2_arith

    out = io.StringIO()
    with Tracer(spool_dir) as tracer:
        config = cli.build_config(cli._build_parser().parse_args(argv))
        with redirect_stdout(out):
            code = cli.run(config)
    rec = tracer.collect()
    absent = [f"{target}: not found, its metrics read 0"
              for target in tracer.missing] + sorted(set(rec.notes))
    if rec.counts.get("jobs_submitted", 0) > len(rec.jobs):
        absent.append("pool jobs ran untraced (workers not forked); "
                      "their layers read 0")
    text = out.getvalue().encode()
    return {
        "exit_code": code,
        "sha256": hashlib.sha256(text).hexdigest(),
        "bytes": len(text),
        "fail_lines": sum(line.startswith(b"FAIL") for line in text.splitlines()),
        "leftover_wrappers": tracer.leftovers(),
        "absent": absent,
        "metrics": layer_metrics(rec),
        "table_max_t": getattr(gf2_arith, "TABLE_MAX_T", None),
        "setup": rec.setup,
        "spans": rec.spans,
    }


def main() -> int:
    spool_dir, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: tracer.py SPOOL_DIR -- CLI_ARG...", file=sys.stderr)
        return 2
    os.makedirs(spool_dir, exist_ok=True)
    json.dump(traced_run(argv, spool_dir), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
