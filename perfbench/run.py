"""Benchmark harness for spaceform.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each round of the workload runs in a
fresh interpreter (worker.py); rounds repeat while the next one is expected to
end within S seconds, and every round's outputs are checked against
computations made apart from the program (checks.py).  The last line of
standard output is one JSON object: correctness, operations attempted and
failed, and the metrics, each the median over the run's rounds.  --trace 0 reports the end-to-end metrics;
--trace 1 alternates plain and traced rounds and reports the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "out")
TRACE_DIR = os.path.join(HERE, "trace")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# wall_cal and cpu_cal are a round's wall and CPU time in units of the
# calibration loop timed in the same process (worker.calibrate).
END_TO_END = {"setup_s": "s", "wall_cal": "cal", "cpu_cal": "cal", "peak_rss_mb": "MB"}

PER_LAYER = {
    "search.enumerate_canonical.calls": "count",
    "search.enumerate_canonical.s": "s",
    "search.groups": "count",
    "search.buckets_multi": "count",
    "search.prefilter.calls": "count",
    "search.prefilter.s": "s",
    "search.full.calls": "count",
    "search.full.s": "s",
    "search.full.points": "count",
    "search.full_yield": "pairs/call",
    "search.certify_pair.calls": "count",
    "search.certify_pair.s": "s",
    "search.write_results.s": "s",
    "search.artifact_bytes": "B",
    "search.pool_busy_ratio": "ratio",
    "spectra.det_classes.calls": "count",
    "spectra.det_classes.s": "s",
    "spectra.det_classes.classes": "count",
    "spectra.det_classes.elements": "count",
    "spectra.evaluate_f_values.calls": "count",
    "spectra.evaluate_f_values.s": "s",
    "spectra.evaluate_f_values.points": "count",
    "spectra.evaluate_f_values.class_points": "count",
    "spectra.shared_fingerprints.calls": "count",
    "spectra.shared_fingerprints.s": "s",
    "spectra.almost_conjugate.calls": "count",
    "spectra.almost_conjugate.s": "s",
    "spectra.molien_coefficients.calls": "count",
    "spectra.molien_coefficients.s": "s",
    "groups.is_canonical.calls": "count",
    "groups.is_canonical.s": "s",
    "groups.is_isomorphic.calls": "count",
    "groups.is_isomorphic.s": "s",
    "numtheory.next_prime_in_progression.calls": "count",
    "numtheory.next_prime_in_progression.s": "s",
    "numtheory.torsion_elements.calls": "count",
    "numtheory.torsion_elements.s": "s",
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

SETUP_PROBES = 9         # set-up-only interpreters per run, besides every round's own
ROUND_TIMEOUT_S = 150


def spawn(workload: str, seed: int, work_dir: str, *flags: str) -> tuple[float, dict]:
    """Run worker.py in its own process group; returns (set-up seconds, result)."""
    os.makedirs(work_dir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--work-dir", work_dir, *flags]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} round exited with {proc.returncode}:\n{out}{err}")
    with open(os.path.join(work_dir, "result.json")) as fh:
        result = json.load(fh)
    return result["ready"] - start, result


def artifact_bytes(result: dict) -> int:
    for op in result["ops"]:
        if op["ok"] and "artifact_dir" in op["value"]:
            folder = op["value"]["artifact_dir"]
            return sum(os.path.getsize(os.path.join(folder, f)) for f in os.listdir(folder))
    return 0


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    plan = workloads.plan(workload, seed)
    refs = checks.References(plan)
    run_dir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    setups, plain, traced = [], [], []
    attempted = failed = 0
    failures: list[str] = []
    try:
        # The first interpreter also compiles the package; it is not timed.
        spawn(workload, seed, os.path.join(run_dir, "warmup"), "--setup-only")
        for i in range(SETUP_PROBES):
            setups.append(spawn(workload, seed, os.path.join(run_dir, f"setup{i}"), "--setup-only")[0])
        # Start a round only while it is expected to end within the window, so
        # a run takes `seconds` however long its rounds are.
        start, durations = time.monotonic(), []
        i = 0
        while (not plain or (trace and not traced)
               or time.monotonic() - start + statistics.median(durations) <= seconds):
            round_start = time.monotonic()
            is_traced = trace and i % 2 == 1
            work_dir = os.path.join(run_dir, f"round{i}")
            setup, result = spawn(workload, seed, work_dir, *(["--trace"] if is_traced else []))
            setups.append(setup)
            result["artifact_bytes"] = artifact_bytes(result)
            n_failed, fails = checks.check_round(plan, result["ops"], refs)
            attempted += len(result["ops"])
            failed += n_failed
            failures.extend(fails)
            (traced if is_traced else plain).append(result)
            if is_traced:
                os.makedirs(TRACE_DIR, exist_ok=True)
                shutil.copy(os.path.join(work_dir, "spans.json"),
                            os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json"))
            shutil.rmtree(work_dir)
            durations.append(time.monotonic() - round_start)
            i += 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)

    for line in failures:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for r in plain + traced:
        for op in r["ops"]:
            if not op["ok"]:
                print(f"OPERATION FAILED: {op['name']}\n{op['error']}", file=sys.stderr)

    def med(rounds, key):
        return statistics.median(r[key] for r in rounds)

    if trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["search.artifact_bytes"] = med(plain, "artifact_bytes")
        layers["search.pool_busy_ratio"] = statistics.median(
            r["cpu_s"] / (plan.get("jobs", 1) * r["wall_s"]) for r in plain)
        layers["trace.overhead_s"] = med(traced, "wall_s") - med(plain, "wall_s")
        layers["trace.coverage"] = med(traced, "coverage")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_cal": statistics.median(r["wall_s"] / r["cal_s"] for r in plain),
                  "cpu_cal": statistics.median(r["cpu_s"] / r["cal_s"] for r in plain),
                  "peak_rss_mb": med(plain, "peak_rss_mb")}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"# {workload} seed={seed}: {len(setups)} set-ups; plain rounds wall_s "
          f"{[round(r['wall_s'], 3) for r in plain]}, cpu_s {[round(r['cpu_s'], 3) for r in plain]}, "
          f"calibration s {[round(r['cal_s'], 4) for r in plain]}; "
          f"traced rounds wall_s {[round(r['wall_s'], 3) for r in traced]}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spaceform", "__init__.py")):
        print(f"no spaceform source under {ROOT}/src: run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
