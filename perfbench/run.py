"""Benchmark of the thetamap command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --compare PARENT_RESULTS CHANGE_RESULTS
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Each workload runs the real CLI
(``python -m thetamap.cli ...``) in a fresh interpreter, closed loop, one
invocation at a time, for S seconds.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it adds one traced in-process run
(``tracer.py``) and reports the per-layer metrics.  Every invocation is
gated on its exit status, on having no ``FAIL`` line and on the sha256 of
its stdout matching ``reference.json``.  The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run also writes its full record (environment, every sample, quartiles,
all per-layer numbers) under ``.perfbench/results``; ``--compare`` reads two
such directories.  See README.md beside this file for why each workload and
metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

MIN_SAMPLES = 3            # timed invocations per run, whatever --seconds says
SETUP_REPEATS = 3          # fresh set-up processes per run, at least ...
SETUP_BUDGET_S = 2.0       # ... and until this much set-up time is measured
SETUP_MAX_REPEATS = 15


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    workers: int
    seeded: bool           # passes the workload seed to the CLI as --seed

    def cli_args(self, seed: int) -> list[str]:
        return list(self.argv) + (["--seed", str(seed)] if self.seeded else [])


WORKLOADS = {
    "structure-t18": Workload(("verify-structure", "--t", "18"), 1, False),
    "orders-n5": Workload(("verify-orders", "--n", "5", "--format", "json"),
                          1, False),
    "dickson-sweep": Workload(("verify-dickson", "--range", "1..12",
                               "--workers", "2"), 2, True),
    "graph-export-t18": Workload(("graph", "--t", "18", "--format", "dot"),
                                 1, False),
}


class Refused(Exception):
    """The run cannot be measured here; exit 2 without a result."""


def load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def check_environment(workload: Workload | None = None) -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "thetamap", "cli.py")):
        raise Refused(f"no thetamap sources under {ROOT}/src")
    if "THETA_MAX_T" in os.environ:
        raise Refused("THETA_MAX_T is set; the workloads use the default cap")
    if workload is not None and workload.workers > nproc():
        raise Refused(f"workload needs {workload.workers} workers, "
                      f"nproc is {nproc()}")


# -- one invocation -----------------------------------------------------------

def run_child(argv: list[str]) -> dict:
    """Run ``python3 ARGV`` through launch.py; its stdout, stderr and rusage."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        result = os.path.join(tmp, "result.json")
        with open(os.path.join(tmp, "stderr"), "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "launch.py"), result, "--",
                 sys.executable] + argv,
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err,
                start_new_session=True)
            try:
                with proc.stdout:
                    out = proc.stdout.read()
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)    # the CLI and its pool
                raise
            finally:
                proc.wait()
            err.seek(0)
            stderr = err.read()[-2000:].decode(errors="replace")
        if proc.returncode != 0:
            raise RuntimeError(f"launch.py failed ({proc.returncode}):\n{stderr}")
        r = load_json(result)
    r["stdout"] = out
    r["stderr"] = stderr
    return r


def gate(exit_code: int, sha256: str, fail_lines: int,
         ref: dict | None) -> list[str]:
    """Why an invocation's output is not the reference (empty when it is).

    With no reference only the exit status and FAIL lines are checked.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit status {exit_code}")
    if fail_lines:
        problems.append(f"{fail_lines} FAIL lines")
    if ref is not None and sha256 != ref["sha256"]:
        problems.append(f"stdout sha256 {sha256[:16]} != reference "
                        f"{ref['sha256'][:16]}")
    return problems


def invoke_cli(args: list[str], ref: dict | None) -> dict:
    r = run_child(["-m", "thetamap.cli"] + args)
    out = r.pop("stdout")
    r["sha256"] = hashlib.sha256(out).hexdigest()
    r["bytes"] = len(out)
    r["problems"] = gate(r["exit_code"], r["sha256"],
                         sum(line.startswith(b"FAIL")
                             for line in out.splitlines()), ref)
    if not r["problems"]:
        r.pop("stderr")
    return r


def traced(args: list[str], ref: dict) -> dict:
    """One traced in-process run in its own interpreter."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as spool:
        r = run_child([os.path.join(HERE, "tracer.py"), spool, "--"] + args)
    if r["exit_code"] != 0:
        return {"wall_s": r["wall_s"],
                "problems": [f"tracer exit status {r['exit_code']}"],
                "stderr": r["stderr"]}
    doc = json.loads(r["stdout"])
    doc["wall_s"] = r["wall_s"]
    doc["problems"] = gate(doc["exit_code"], doc["sha256"], doc["fail_lines"],
                           ref)
    if doc["leftover_wrappers"]:
        doc["problems"].append("wrappers left installed: "
                               + ", ".join(doc["leftover_wrappers"]))
    return doc


def setup_times(entries: list[dict]) -> list[float]:
    argv = [os.path.join(HERE, "setup_fields.py"), json.dumps(entries)]
    times: list[float] = []
    while len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_REPEATS or sum(times) < SETUP_BUDGET_S):
        r = run_child(argv)
        if r["exit_code"] != 0:
            raise RuntimeError("field set-up failed:\n" + r["stderr"])
        times.append(float(r["stdout"]))
    return times


# -- statistics ---------------------------------------------------------------

def summary(values: list[float]) -> dict:
    """Median and quartiles (Python's exclusive method), with the count."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# -- one run ------------------------------------------------------------------

def environment(seed: int, table_max_t) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    return {"python": platform.python_version(), "nproc": nproc(),
            "commit": commit, "seed": seed, "TABLE_MAX_T": table_max_t}


def timed_loop(args: list[str], ref: dict, seconds: float) -> list[dict]:
    samples: list[dict] = []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        samples.append(invoke_cli(args, ref))
    return samples


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> dict:
    workload = WORKLOADS[name]
    check_environment(workload)
    ref = load_json(os.path.join(HERE, "reference.json"))["workloads"][name]
    args = workload.cli_args(seed)
    started = time.time()

    if trace:
        invoke_cli(args, ref)                       # warm-up, discarded
        samples = timed_loop(args, ref, seconds)
        tr = traced(args, ref)
    else:
        tr = traced(args, ref)                      # warm-up and field list
        samples = timed_loop(args, ref, seconds)

    attempted = len(samples) + 1
    problems = [p for s in samples for p in s["problems"]] + tr["problems"]
    failed = sum(bool(s["problems"]) for s in samples) + bool(tr["problems"])
    record = {
        "workload": name, "trace": int(trace), "started": started,
        "seconds": seconds, "cli_args": args,
        "env": environment(seed, tr.get("table_max_t")),
        "samples": samples, "traced_run": {k: v for k, v in tr.items()
                                           if k != "spans"},
        "problems": problems,
        "fail_ratio": failed / attempted,
    }
    stats = {key: summary([s[key] for s in samples])
             for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    if trace:
        layer = dict(tr.get("metrics", {}))
        if "metrics" in tr:
            layer["trace.overhead_s"] = tr["wall_s"] - stats["wall_s"]["median"]
        record["per_layer"] = layer
        record["absent"] = tr.get("absent", [])
        wanted = spec["per_layer"]
        values = {m["name"]: layer.get(m["name"], 0) for m in wanted}
        if "spans" in tr:
            record["spans_file"] = write_json(
                "traces", f"{name}-seed{seed}-{time.time_ns()}.json",
                tr["spans"])
    else:
        if "setup" not in tr:
            raise RuntimeError("traced run failed; no field list for set-up:\n"
                               + tr.get("stderr", ""))
        stats["setup_s"] = summary(setup_times(tr["setup"]))
        wanted = spec["end_to_end"]
        values = {m["name"]: stats[m["name"]]["median"] for m in wanted}
    record["stats"] = stats
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    record["result_file"] = write_json(
        os.path.join("results", name),
        f"trace{int(trace)}-seed{seed}-{time.time_ns()}.json", record)
    return record


def write_json(subdir: str, filename: str, doc) -> str:
    path = os.path.join(OUT_DIR, subdir, filename)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return os.path.relpath(path, ROOT)


def report(record: dict, spec: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    name = record["workload"]
    env = record["env"]
    print(f"== {name} (trace {record['trace']}): "
          f"thetamap {' '.join(record['cli_args'])}")
    print(f"   python {env['python']}, nproc {env['nproc']}, "
          f"commit {env['commit'] or 'unknown'}, seed {env['seed']}, "
          f"TABLE_MAX_T {env['TABLE_MAX_T']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for key, st in record["stats"].items():
        print(f"   {key:<44} {st['median']:>12.4f} {units.get(key, '')}"
              f"   q1 {st['q1']:.4f}  q3 {st['q3']:.4f}  n={st['n']}")
    print(f"   {'fail_ratio':<44} {record['fail_ratio']:>12.4f} ratio"
          f"   ({record['result']['failed']} of "
          f"{record['result']['attempted']} invocations)")
    if record["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for key, value in record["per_layer"].items():
            unit = units.get(key) or (
                "s" if any(p.endswith("_s") for p in key.split(".")) else "count")
            print(f"   {key:<44} {value:>12.4f} {unit}"
                  + ("" if key in units else "   (not in BENCHMARK.json)"))
        for note in record["absent"]:
            print(f"   absent: {note}")
    for problem in sorted(set(record["problems"])):
        print(f"   FAILED: {problem}")
    print(f"   record: {record['result_file']}")


# -- compare mode -------------------------------------------------------------

def load_results(directory: str) -> dict[str, list[dict]]:
    """trace-0 result records by workload, oldest first."""
    runs: dict[str, list[dict]] = {}
    for base, _, files in os.walk(directory):
        for fn in files:
            if fn.endswith(".json"):
                with open(os.path.join(base, fn)) as fh:
                    doc = json.load(fh)
                if doc.get("trace") == 0 and "result" in doc:
                    runs.setdefault(doc["workload"], []).append(doc)
    for docs in runs.values():
        docs.sort(key=lambda d: d["started"])
    return runs


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Verdict of one metric on one workload, as the gain rule defines it."""
    sign = 1 if better == "lower" else -1
    p, c = summary(parent), summary(change)
    pairs = list(zip(parent, change))
    wins = sum(sign * (a - b) > 0 for a, b in pairs)
    improvement = sign * (p["median"] - c["median"])
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (p, c))
    if len(parent) < 2 or len(change) < 2:
        word = "unresolved"
    elif (wins >= 0.9 * len(pairs) and improvement > 0
          and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        word = "better"
    elif spread > bound:
        if all(sign * (b - a) < 0 for a in parent for b in change):
            word = "better"
        elif all(sign * (b - a) > 0 for a in parent for b in change):
            word = "worse"
        else:
            word = "unresolved"
    elif -improvement / p["median"] > bound:
        word = "worse"
    else:
        word = "unchanged"
    return {"parent": p, "change": c, "wins": wins, "pairs": len(pairs),
            "spread": spread, "verdict": word}


def compare(parent_dir: str, change_dir: str, spec: dict) -> dict:
    parent, change = load_results(parent_dir), load_results(change_dir)
    out: dict[str, dict] = {}
    for name in sorted(set(parent) & set(change)):
        print(f"== {name}: {len(parent[name])} parent runs, "
              f"{len(change[name])} change runs")
        for m in spec["end_to_end"]:
            key = m["name"]
            v = verdict([d["result"]["metrics"][key]["value"] for d in parent[name]],
                        [d["result"]["metrics"][key]["value"] for d in change[name]],
                        m["better"], m["bound"])
            out[f"{name}/{key}"] = v
            p, c = v["parent"], v["change"]
            delta = (c["median"] - p["median"]) / p["median"]
            print(f"   {key:<12} parent {p['median']:.4f} [{p['q1']:.4f}, "
                  f"{p['q3']:.4f}]  change {c['median']:.4f} [{c['q1']:.4f}, "
                  f"{c['q3']:.4f}] {m['unit']}  {delta:+.1%}  "
                  f"wins {v['wins']}/{v['pairs']}  bound {m['bound']:.0%}  "
                  f"{v['verdict']}")
    for name in sorted(set(parent) ^ set(change)):
        print(f"== {name}: results on one side only, not compared")
    return out


# -- self-test ----------------------------------------------------------------

SELF_TEST = (
    ("graph", "--t", "6", "--format", "dot"),
    ("verify-structure", "--t", "8"),
    ("verify-orders", "--n", "2", "--format", "json"),
    ("verify-dickson", "--range", "1..5", "--workers", "2"),
)


def self_test() -> bool:
    """Traced output equals untraced output; no wrapper outlives the run."""
    ok = True
    for args in SELF_TEST:
        plain = invoke_cli(list(args), None)
        tr = traced(list(args), {"sha256": plain["sha256"]})
        problems = plain["problems"] + tr["problems"] + tr.get("absent", [])
        ok = ok and not problems
        print(f"{'FAIL' if problems else 'PASS'} self-test "
              f"[{' '.join(args)}]" + "".join(f"  {p}" for p in problems))
    return ok


# -- entry point --------------------------------------------------------------

def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: per-layer metrics from a traced run")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                   help="compare two directories of result records")
    p.add_argument("--self-test", action="store_true")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    # SIGTERM unwinds like Ctrl-C, so run_child stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    args = parse_args(argv, spec)
    if args.compare:
        out = compare(*args.compare, spec)
        print(json.dumps({k: v["verdict"] for k, v in out.items()}))
        return 0
    try:
        check_environment()
        os.makedirs(OUT_DIR, exist_ok=True)
        if args.self_test:
            return 0 if self_test() else 1
        if args.workload != "all":
            record = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), spec)
            report(record, spec)
            print(json.dumps(record["result"]))
            return 0
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for trace in (False, True):
                record = run_workload(name, args.seed, args.seconds, trace,
                                      spec)
                report(record, spec)
                res = record["result"]
                total["correct"] = total["correct"] and res["correct"]
                total["attempted"] += res["attempted"]
                total["failed"] += res["failed"]
                for key, val in res["metrics"].items():
                    total["metrics"][f"{name}/{key}"] = val
        print(json.dumps(total))
        return 0
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
