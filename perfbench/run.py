"""qg4 benchmark driver: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze-compose --seed 0 --seconds 55 --trace 0

Workloads: analyze-compose, transitive, small-arity, trees (see README.md).
All load comes from one worker process at a time, running ops in a closed
loop with one caller.  The last line of standard output is a JSON object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The lines before it give
the conditions of the run and every end-to-end metric by name and unit,
including those not in the final line (latency_p90_s, failed_ops_share).
Records, answer digests and spans go to perfbench/_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOAD_NAMES  # noqa: E402

WORKERS = 1            # processes running ops at once; the CLI default --threads 1
SETUP_SAMPLES = 5      # fresh interpreters timed through set-up; setup_s is their median
P90_MIN_OPS = 100      # latency_p90_s needs at least 10 samples beyond p90
HARD_LIMIT_S = 170.0   # the whole run, set-up and workers included
END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_s": "s", "latency_p90_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "failed_ops_share": "1"}
GATED = ("ops_per_s", "latency_p50_s", "setup_s", "peak_rss_mb")


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    # numpy's BLAS would otherwise start one thread per core at import.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(WORKERS)
    env.pop("PYTHONPATH", None)
    return env


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.t_start = time.perf_counter()
        self.count = 0
        os.makedirs(WORK, exist_ok=True)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.t_start)

    def spawn(self, extra: list[str]) -> tuple[float, dict | None]:
        """Start a worker; return (seconds from spawn to "ready", its result)."""
        self.count += 1
        tag = f"{self.workload}-{self.seed}-{self.count}"
        workdir = os.path.join(WORK, "in-" + tag)
        result = os.path.join(WORK, "result-" + tag + ".json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", workdir, "--result", result] + extra
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=max(1.0, self.remaining()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError(f"worker exited with code {proc.returncode}")
        if "--setup-only" in extra:
            return ready, None
        with open(result) as fh:
            out = json.load(fh)
        os.remove(result)
        return ready, out

    def run_ops(self, seconds: float | None, stop: int | None, extra: list[str]) -> dict:
        """Run cycles in as many processes as the workload needs (passes)."""
        start, parts, setups = 0, [], []
        while True:
            args = ["--start", str(start)] + extra
            if stop is not None:
                args += ["--stop", str(stop)]
            if seconds is not None:
                used = sum(p["loop_wall_s"] for p in parts)
                args += ["--seconds", str(max(0.0, seconds - used))]
            ready, part = self.spawn(args)
            setups.append(ready)
            parts.append(part)
            start = part["next"]
            if part["stop_reason"] != "pass_end":
                break
            if seconds is not None and sum(p["loop_wall_s"] for p in parts) >= seconds:
                break
        return {"parts": parts, "setups": setups, "cycles": start,
                "ops": [o for p in parts for o in p["ops"]]}


def conditions(runner: Runner, parts: list[dict], load_start) -> dict:
    def read(path: str) -> str | None:
        try:
            with open(path) as fh:
                return fh.read().strip()
        except OSError:
            return None

    def cache_kib(level: int) -> int | None:
        for index in range(8):
            base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
            if read(base + "level") == str(level) and read(base + "type") in ("Unified", "Data"):
                size = read(base + "size") or ""
                mult = {"K": 1, "M": 1024}.get(size[-1:], None)
                return int(size[:-1]) * mult if mult else None
        return None

    cpu = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    src = os.path.join(ROOT, "src", "qg4")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    l2 = cache_kib(2)
    largest = max(p["largest_cells"] for p in parts)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "l2_kib": l2,
        "l3_kib": cache_kib(3),
        "python": parts[0]["python"],
        "numpy": parts[0]["numpy"],
        "qg4_version": parts[0]["qg4"],
        "commit": git_commit(),
        "src_sha256": h.hexdigest(),
        "seed": runner.seed,
        "workload": runner.workload,
        "workers": WORKERS,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "largest_table_bytes": largest,
        "largest_table_to_l2": largest / (l2 * 1024) if l2 else None,
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout; see src_sha256)"


def end_to_end(run: dict, setups: list[float]) -> tuple[dict, dict]:
    ops = run["ops"]
    lat = [o["latency_s"] for o in ops]
    failed = sum(1 for o in ops if o["failures"])
    metrics = {
        "ops_per_s": len(ops) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["parts"][0]["peak_rss_mb"],
        "failed_ops_share": failed / len(ops),
    }
    notes = {"ops": len(ops), "setup_samples": setups,
             "peak_rss_end_mb": max(p["peak_rss_end_mb"] for p in run["parts"])}
    if len(ops) >= P90_MIN_OPS:
        metrics["latency_p90_s"] = statistics.quantiles(lat, n=10)[8]
    else:
        notes["latency_p90_s"] = f"not reported: {len(ops)} ops < {P90_MIN_OPS}"
    return metrics, notes


def write_answers(runner: Runner, ops: list[dict], traced: bool) -> str:
    digests = [o["digest"] or "failed" for o in ops]
    combined = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    name = f"answers-{runner.workload}-seed{runner.seed}{'-traced' if traced else ''}.json"
    with open(os.path.join(WORK, name), "w") as fh:
        json.dump({"workload": runner.workload, "seed": runner.seed, "ops": len(digests),
                   "digest": combined, "digests": digests}, fh)
    return combined


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    nproc = os.cpu_count() or 1
    if WORKERS > nproc:
        raise BenchError(f"refusing to run {WORKERS} workers on {nproc} cores")
    if not os.path.isfile(os.path.join(ROOT, "src", "qg4", "__init__.py")):
        raise BenchError("no qg4 sources in this checkout (src/qg4 is missing)")

    runner = Runner(args.workload, args.seed)
    load_start = list(os.getloadavg())
    golden = os.path.join(HERE, "golden", f"{args.workload}.json")
    extra = ["--golden", golden] if args.seed == DEFAULT_SEED and os.path.exists(golden) else []

    if args.trace == 0:
        setups = [runner.spawn(["--setup-only"])[0] for _ in range(SETUP_SAMPLES - 1)]
        run = runner.run_ops(args.seconds, None, extra)
        setups.append(run["setups"][0])
        metrics, notes = end_to_end(run, setups)
        parts = run["parts"]
        run_failures = [f for p in parts for f in p["run_failures"]]
        ops = run["ops"]
        extra_record = {}
    else:
        plain = runner.run_ops(args.seconds / 2, None, extra)
        spans = os.path.join(WORK, f"spans-{args.workload}.npz")
        traced = runner.run_ops(None, plain["cycles"], extra + ["--trace", "--spans", spans])
        parts = plain["parts"] + traced["parts"]
        ops = traced["ops"]
        run_failures = [f for p in parts for f in p["run_failures"]]
        if [o["digest"] for o in plain["ops"]] != [o["digest"] for o in ops]:
            run_failures.append("tracing changed an answer")
        layers = dict(traced["parts"][0]["layers"])
        if len(traced["parts"]) > 1:   # several passes: weight each by its ops
            n = len(ops)
            for key in layers:
                if key != "construct.gen_s":
                    layers[key] = sum(p["layers"][key] * len(p["ops"]) for p in traced["parts"]) / n
            tracing.with_ratios(layers)
        layers["trace_overhead"] = (sum(o["latency_s"] for o in plain["ops"])
                                    / sum(o["latency_s"] for o in ops))
        not_applicable = [k for k, base in tracing.RATIOS.items() if layers[base] == 0]
        predictions = tracing.prediction_check(args.workload, layers)
        span_checks = [p["span_check"] for p in traced["parts"]]
        if not all(s["ok"] for s in span_checks):
            run_failures.append(f"span self times do not add up to op latency: {span_checks}")
        metrics = layers
        notes = {"ops": len(ops), "not_applicable": not_applicable,
                 "prediction_failures": predictions, "span_check": span_checks}
        extra_record = {"untraced_ops_per_s": len(plain["ops"]) / sum(o["latency_s"] for o in plain["ops"])}
        if predictions:
            print("warning: per-layer predictions not met: " + "; ".join(predictions),
                  file=sys.stderr)

    cond = conditions(runner, parts, load_start)
    digest = write_answers(runner, ops, args.trace == 1)
    failed = sum(1 for o in ops if o["failures"])
    correct = failed == 0 and not run_failures
    record = {"conditions": cond, "notes": notes, "answer_digest": digest,
              "golden_checked": bool(extra), "run_failures": run_failures,
              "failures": [(o["index"], o["kind"], o["failures"]) for o in ops if o["failures"]][:20],
              "metrics": metrics, **extra_record}
    with open(os.path.join(WORK, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print("conditions: " + json.dumps(cond, sort_keys=True))
    for f in record["failures"] + run_failures:
        print(f"failure: {f}")
    print(f"answers: {len(ops)} ops, digest {digest}, golden answers "
          f"{'checked' if extra else 'not checked'}")
    if args.trace == 0:
        for name, unit in END_TO_END_UNITS.items():
            value = metrics.get(name)
            shown = notes.get(name) if value is None else f"{value:.6g} {unit}"
            print(f"metric {name}: {shown}")
        final = {k: {"value": metrics[k], "unit": END_TO_END_UNITS[k]} for k in GATED}
    else:
        units = tracing.UNITS
        for name in units:
            na = " (not applicable)" if name in notes["not_applicable"] else ""
            print(f"layer {name}: {metrics[name]:.6g} {units[name]}{na}")
        final = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
