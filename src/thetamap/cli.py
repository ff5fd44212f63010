"""Command-line harness: graph exports and the verification batteries.

Commands
  graph             build the graph over GF(2^t), export DOT or JSON
  verify-structure  the six structural checks, one t or a range
  verify-orders     order/trace classification battery, one n or a range
  verify-dickson    Dickson / Kloosterman / curve battery, one n or a range
  sweep             verify-dickson over a range, one CSV row per field

Which sizes a command admits is decided here, from one table, `COMMANDS`:
each command's degree flag, and its formats with the largest degree each
admits.  The field a command names is also capped by THETA_MAX_T (default
24); the larger fields a battery builds for itself are not.  A refused
size or a malformed THETA_MAX_T exits 2 before any job runs.  The
library's constructors (`make_field`, `make_tower`) take any degree and
read no environment.

Exit status: 0 when every check passes, 1 when at least one verification
fails (the report is still written), 2 on usage or configuration errors,
and 2 when a forked worker dies before its jobs are done (one `error:`
line names its pid and the signal or status, and nothing is written).

Identical arguments and seed produce byte-identical output regardless of
the worker count: jobs are distributed per field size over forked workers
and reassembled in submission order.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NamedTuple

from thetamap.dickson_curve import dickson_report
from thetamap.gf2_arith import FieldError, field_to_record, make_field
from thetamap.order_dynamics import make_tower, orders_report
from thetamap.report import json_pieces
from thetamap.theta_graph import (
    GRAPH_MAX_T,
    build_graph,
    to_dot,
    to_json,
    verify_structure,
)

__all__ = ["COMMANDS", "RunConfig", "run", "main"]

DEFAULT_MAX_T = 24


class Command(NamedTuple):
    help: str
    flag: str                   # the degree flag: --t or --n
    largest: dict[str, int]     # format -> its largest degree, before
                                # THETA_MAX_T; the default format first


# The graph's 4-byte successors hold t <= GRAPH_MAX_T under any THETA_MAX_T.
# verify-orders json writes every seed's record, 120 MB at n = 8 and 313 MB
# at n = 9; n = 9 json and n = 10 text take about the README's 5 s.
COMMANDS = {
    "graph": Command("build one graph and export it", "t",
                     {"dot": GRAPH_MAX_T, "json": GRAPH_MAX_T}),
    "verify-structure": Command("structural checks over t", "t",
                                {"text": GRAPH_MAX_T, "json": GRAPH_MAX_T}),
    "verify-orders": Command("order/trace battery over n", "n",
                             {"text": 9, "json": 8}),
    "verify-dickson": Command("Dickson/Kloosterman battery (verify-dickson)",
                              "n", {"text": 16, "json": 16}),
    "sweep": Command("Dickson/Kloosterman battery (sweep)", "n",
                     {"csv": 16, "json": 16}),
}


def max_t_cap() -> int:
    """The largest degree of a command's named field: THETA_MAX_T, else 24.

    A cap below 1 would admit no degree, so it is refused as malformed.
    """
    raw = os.environ.get("THETA_MAX_T", str(DEFAULT_MAX_T))
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"THETA_MAX_T={raw!r} is not an integer") from None
    if cap < 1:
        raise ValueError(f"THETA_MAX_T={raw!r} is below 1")
    return cap


class RunConfig(NamedTuple):
    command: str
    values: list[int]          # field degrees to process, ascending
    format: str
    out: str | None
    workers: int = 1
    seed: int = 0


def _parse_values(text: str) -> list[int] | range:
    """An int or an inclusive range `A..B`, kept lazy so that the degree
    check refuses a huge B before anything is allocated."""
    lo, sep, hi = text.partition("..")
    try:
        if not sep:
            return [int(text)]
        values = range(int(lo), int(hi) + 1)
    except ValueError as exc:
        raise ValueError(f"{text!r} is not an integer or a range A..B") from exc
    if not values:
        raise ValueError(f"empty range {text!r}")
    return values


def build_config(args) -> RunConfig:
    """The run the arguments ask for, refused with ValueError when a degree
    lies beyond what the command's row of COMMANDS admits in the asked
    format, or beyond THETA_MAX_T, or when --workers is below 1."""
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise ValueError(f"--workers={workers} is below 1")
    command = COMMANDS[args.command]
    fmt = args.format or next(iter(command.largest))
    cap = min(command.largest[fmt], max_t_cap())
    flag = command.flag
    if args.command == "graph":
        values = [args.t]
    else:
        single = getattr(args, flag)
        if (single is None) == (args.range is None):
            raise ValueError(f"give exactly one of --{flag} or --range")
        values = _parse_values(single if single is not None else args.range)
    for v in values:
        if not 1 <= v <= cap:
            raise ValueError(f"{flag}={v} outside [1, {cap}]")
    return RunConfig(args.command, list(values), fmt, args.out, workers,
                     getattr(args, "seed", 0))


# -- jobs run in worker processes: plain ints in, plain dicts out ------------

def _structure_job(t: int) -> dict:
    field = make_field(t)
    g = build_graph(field)
    rep = verify_structure(g)
    return {
        "t": t,
        "field": field_to_record(field),
        "vertices": len(g.succ),
        "components": len(g.components),
        "passed": rep.passed,
        "checks": rep.records(),
    }


def _orders_job(args: tuple[int, bool]) -> dict:
    n, records = args
    return orders_report(make_tower(n), records)


def _dickson_job(args: tuple[int, int]) -> dict:
    n, seed = args
    return dickson_report(make_field(n), seed=seed)


def _map_jobs(fn, inputs, workers: int) -> list[dict]:
    # Never fork more workers than there are jobs or usable CPUs.  CPython
    # has no sched_getaffinity on macOS or Windows, and no fork on Windows.
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(workers, len(inputs), cpus)
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(x) for x in inputs]
    # imported here: a one-worker run never needs them
    import pickle
    import select
    import signal
    # one byte per job index: bytes() refuses an index past 255, and the
    # degree caps keep every run under 31 jobs
    jobs, w = os.pipe()
    os.write(w, bytes(range(len(inputs))))
    os.close(w)
    pipes = {}                  # result pipe -> (its worker's pid, unread bytes)
    results = [None] * len(inputs)      # (ok, value or exception) per job
    try:
        for _ in range(workers):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(fn, inputs, jobs, w)
            os.close(w)
            pipes[r] = pid, bytearray()
        while pipes:
            for r in select.select(list(pipes), [], [])[0]:
                pid, buf = pipes[r]
                if chunk := os.read(r, 1 << 16):
                    buf += chunk
                    while len(buf) >= 8 and len(buf) >= (
                            end := 8 + int.from_bytes(buf[:8], "little")):
                        index, ok, value = pickle.loads(buf[8:end])
                        results[index] = ok, value
                        del buf[:end]
                    continue
                # the pipe's only writer has closed it: the worker is gone
                os.close(r)
                del pipes[r]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if code:
                    how = (f"ended by signal {-code}" if code < 0 else
                           f"exited with status {code}")
                    raise ChildProcessError(f"worker process {pid} {how}")
    finally:
        os.close(jobs)
        for r, (pid, _) in pipes.items():
            os.close(r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for ok, value in results:
        if not ok:
            raise value             # the first failed job in submission order
    return [value for _, value in results]


def _serve(fn, inputs, jobs: int, out: int) -> None:
    """A forked worker's life: run the job of each index it reads from
    `jobs`, write `(index, ok, value or exception)` to `out` as a pickle
    after its 8-byte length, and leave through os._exit, never returning
    into the caller's stack."""
    code = 1
    try:
        import pickle
        with open(out, "wb") as fh:
            while index := os.read(jobs, 1):
                i = index[0]
                try:
                    frame = (i, True, fn(inputs[i]))
                except Exception as exc:
                    frame = (i, False, exc)
                data = pickle.dumps(frame, pickle.HIGHEST_PROTOCOL)
                fh.write(len(data).to_bytes(8, "little"))
                fh.write(data)
                fh.flush()
        code = 0
    finally:
        os._exit(code)


# -- assembly -----------------------------------------------------------------

def _checks_passed(doc: dict) -> bool:
    return all(c["pass"] for c in doc.get("checks", []))


def _text_pieces(docs: list[dict], scope_key: str, ok: bool):
    for doc in docs:
        scope = f"{scope_key}={doc[scope_key]}"
        for c in doc["checks"]:
            mark = "PASS" if c["pass"] else "FAIL"
            detail = f"  {c['detail']}" if c["detail"] else ""
            yield f"{mark} [{scope}] {c['name']}{detail}\n"
    yield f"result: {'all checks passed' if ok else 'FAILURES present'}\n"


def _csv_pieces(docs: list[dict]):
    cols = ["n", "q", "m", "K", "N_pred", "S_size", "T_size", "E_count",
            "passed"]
    yield ",".join(cols) + "\n"
    for d in docs:
        yield ",".join(str(d[c]).lower() if c == "passed" else str(d[c])
                       for c in cols) + "\n"


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code.

    The output is written a piece at a time, as it is rendered, to stdout
    or to --out, which is opened once every job is done.
    """
    if config.command == "graph":
        g = build_graph(make_field(config.values[0]))
        pieces = to_dot(g) if config.format == "dot" else to_json(g)
        code = 0
    else:
        # the jobs are looked up here, at call time, so a caller can wrap them
        if config.command == "verify-structure":
            docs = _map_jobs(_structure_job, config.values, config.workers)
        elif config.command == "verify-orders":
            docs = _map_jobs(_orders_job, [(n, config.format == "json")
                                           for n in config.values],
                             config.workers)
        else:                              # verify-dickson and sweep
            docs = _map_jobs(_dickson_job,
                             [(n, config.seed) for n in config.values],
                             config.workers)
        ok = all(_checks_passed(d) for d in docs)
        code = 0 if ok else 1
        if config.format == "json":
            pieces = json_pieces(docs if len(docs) > 1 else docs[0])
        elif config.format == "csv":
            pieces = _csv_pieces(docs)
        else:
            pieces = _text_pieces(docs, COMMANDS[config.command].flag, ok)

    out = config.out
    try:
        fh = sys.stdout if out is None else open(out, "w")
        try:
            for piece in pieces:
                _emit(piece, fh)
        finally:
            if out is not None:
                fh.close()
    except OSError as exc:
        if out is None:
            raise
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    return code


def _emit(piece: str, fh) -> None:
    # every piece of output passes here: perfbench/tracer.py counts its bytes
    fh.write(piece)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetamap",
        description="graphs and verification for x -> x + 1/x over GF(2^t)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name == "graph":
            p.add_argument("--t", type=int, required=True,
                           help="extension degree")
        else:
            p.add_argument(f"--{command.flag}", help="degree or range A..B")
            p.add_argument("--range", help="A..B")
        p.add_argument("--format", choices=list(command.largest))
        p.add_argument("--out")
        if name != "graph":
            p.add_argument("--workers", type=int, default=1)
        if name in ("verify-dickson", "sweep"):
            p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = build_config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (FieldError, ChildProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
