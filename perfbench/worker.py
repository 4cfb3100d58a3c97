"""One benchmark process: set up a workload, run its cycles, report.

Started by run.py in a fresh interpreter.  It imports qg4 from the
checkout's src/ only, builds the shared inputs and the first cycle's input
files, prints "ready" (the parent times set-up up to that line), then runs
whole cycles and writes a JSON result file.

    python3 perfbench/worker.py --workload trees --seed 0 --workdir W \
        --result R.json [--setup-only] [--start C] [--stop C] [--seconds S]
        [--trace] [--spans P.npz] [--golden G.json]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_qg4():
    """Import the program from this checkout, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "qg4", "__init__.py")):
        raise SystemExit(f"error: no qg4 sources under {SRC}")
    sys.path.insert(0, SRC)
    import qg4
    import qg4.cli
    import qg4.construct

    if not os.path.abspath(qg4.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported qg4 from {qg4.__file__}, not {SRC}")
    return qg4


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--stop", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--golden", default=None)
    args = ap.parse_args()

    qg4 = import_qg4()
    sys.path.insert(0, HERE)
    import workloads
    from workloads import answer_digest, table_digest

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.patch()

    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](qg4, args.seed, args.workdir)
    wl.setup()
    pending = wl.prepare(args.start)
    wl.check_format(pending[0].tables[0])
    print("ready", flush=True)
    if tracer:
        tracer.idle()
    if args.setup_only:
        shutil.rmtree(args.workdir, ignore_errors=True)
        return 0

    golden = None
    if args.golden:
        with open(args.golden) as fh:
            golden = json.load(fh)["digests"]

    ops = []
    consumed: set[str] = set()
    run_failures: list[str] = []
    cycle = args.start
    stop_reason = "time"
    loop_start = time.perf_counter()
    while True:
        for j, op in enumerate(pending):
            index = cycle * wl.ops_per_cycle + j
            digests = [table_digest(q) for q in op.tables]
            if consumed.intersection(digests) or len(set(digests)) < len(digests):
                raise RuntimeError(f"op {index} reuses a table seen earlier in this process")
            consumed.update(digests)

            t0 = time.perf_counter()
            if tracer:
                tracer.begin_op(len(ops))
            try:
                result, error = op.call(), None
            except Exception:
                result, error = None, traceback.format_exc(limit=3)
            if tracer:
                tracer.end_op()
            latency = time.perf_counter() - t0

            failures = []
            digest = None
            if error is not None:
                failures.append("raised: " + error.strip().splitlines()[-1])
            else:
                try:
                    digest = answer_digest(op.kind, op.answer(result))
                    failures += op.check(result)
                except Exception:
                    failures.append("check raised: " + traceback.format_exc(limit=3))
            if golden is not None and index < len(golden) and digest != golden[index]:
                failures.append(f"answer differs from the golden answer ({digest} != {golden[index]})")
            ops.append({"index": index, "kind": op.kind, "latency_s": latency,
                        "arity": max(q.arity for q in op.tables),
                        "digest": digest, "failures": failures})
        cycle += 1
        done = cycle - args.start
        if done == 1:
            # Memory after one cycle: later cycles only add LRU-cache entries, and
            # how many cycles fit depends on speed.
            first_cycle_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.stop is not None and cycle >= args.stop:
            stop_reason = "stop"
            break
        if wl.cycles_per_process and cycle % wl.cycles_per_process == 0:
            stop_reason = "pass_end"
            break
        elapsed = time.perf_counter() - loop_start
        if args.seconds is not None and elapsed + elapsed / done > args.seconds:
            break
        pending = wl.prepare(cycle)
    loop_wall = time.perf_counter() - loop_start
    try:
        run_failures += wl.finish()
    except Exception:
        run_failures.append("finish raised: " + traceback.format_exc(limit=3))

    import numpy

    out = {
        "start": args.start,
        "next": cycle,
        "stop_reason": stop_reason,
        "loop_wall_s": loop_wall,
        "ops": ops,
        "run_failures": run_failures,
        "peak_rss_mb": first_cycle_rss,
        "peak_rss_end_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "largest_cells": wl.largest_cells,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "qg4": qg4.__version__,
    }
    if tracer:
        import tracing

        arrays = tracer.arrays()
        lat = [o["latency_s"] for o in ops]
        out["layers"] = tracing.layer_metrics(tracer.names, arrays, len(ops))
        out["span_check"] = tracing.span_check(arrays, lat)
        if args.spans:
            tracer.save(args.spans)
    shutil.rmtree(args.workdir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
