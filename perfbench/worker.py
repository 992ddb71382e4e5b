"""One round of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --work-dir DIR [--trace] [--setup-only]

Set-up is the interpreter start, `import spaceform` and building the
workload's inputs from its plan; the timed phase is every call into the
package.  The round writes DIR/result.json: the monotonic time at which
set-up ended, wall and CPU time of the timed phase (pool children
included), the calibration time measured around it, the peak RSS of the
largest process, and the outputs the harness checks.  With --trace the package's public functions are wrapped
(see tracing.py) and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import tracing  # noqa: E402
import workloads  # noqa: E402


def _cpu(who) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop, best of three: 60-bit modular
    multiply-adds as in the evaluator's Horner steps, with a pow and a dict
    insert every 64 steps.  The host's speed drifts by up to 2x over minutes
    on shared machines; dividing a round's times by this, measured in the
    same process just before and after, cancels that drift."""
    best = float("inf")
    for _ in range(3):
        p, x, acc, table = 1_000_000_000_000_002_961, 123_456_789_123, 1, {}
        start = time.perf_counter()
        for i in range(150_000):
            acc = (acc * x + i) % p
            if i % 64 == 0:
                table[i, acc & 1023] = pow(x, i, p)
        best = min(best, time.perf_counter() - start)
    return best


def build_inputs(plan: dict, sf) -> dict:
    """The package objects a round calls with; built during set-up."""
    if plan["kind"] == "search":
        return {}

    def pair(m, n, r1, r2):
        return sf.validate_type1(m, n, r1), sf.validate_type1(m, n, r2)

    return {
        "table": [(row, *pair(*row[1:3], *row[4:6])) for row in plan["table"]],
        "isomorphic": pair(*plan["isomorphic"]),
        "comparators": [pair(*cmp) for cmp in plan["comparators"]],
        "sums": (*pair(*plan["sums"]["pair"]), tuple(tuple(kl) for kl in plan["sums"]["summands"])),
        "molien": {name: sf.SumRep.rho11(sf.validate_type1(*mnr)) for name, mnr in plan["molien_groups"].items()},
        "cli": [[str(a) for a in q["argv"]] for q in plan["cli"]],
    }


def attempt(ops: list, name: str, fn) -> None:
    """Run one operation; an exception fails it and the round goes on."""
    try:
        ops.append({"name": name, "ok": True, "value": fn()})
    except Exception:
        ops.append({"name": name, "ok": False, "error": traceback.format_exc()})


def run_search(plan: dict, sf, work_dir: str) -> list[dict]:
    out_dir = os.path.join(work_dir, "artifacts")

    def search():
        certs = sf.run_search(sf.SearchConfig(n_max=plan["n_max"], jobs=plan["jobs"], output_path=out_dir))
        return {"certs": [c.to_dict() for c in certs], "artifact_dir": out_dir}

    ops = []
    attempt(ops, "search", search)
    return ops


def run_queries(inputs: dict, sf) -> list[dict]:
    """Every query is one operation.  A refutation that raises
    CertificationFailed succeeded; any other exception fails the operation."""
    ops = []

    def certify(g1, g2, rep_pairs=None):
        try:
            return {"certificate": sf.certify_pair(g1, g2, rep_pairs=rep_pairs).to_dict()}
        except sf.CertificationFailed as exc:
            return {"failed_check": exc.check}

    def cli(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = sf.cli.main(argv)
        return {"exit": code, "stdout": json.loads(buf.getvalue())}

    for row, g1, g2 in inputs["table"]:
        attempt(ops, f"certify:{row[0]}", lambda: certify(g1, g2))
    attempt(ops, "refute:isomorphic", lambda: certify(*inputs["isomorphic"]))
    for g, comp in inputs["comparators"]:
        attempt(ops, f"refute:comparator:{g.order}", lambda: certify(g, comp))
    g1, g2, summands = inputs["sums"]
    attempt(ops, "certify:sums", lambda: certify(g1, g2, summands))
    for name, rep in inputs["molien"].items():
        attempt(ops, f"molien:{name}", lambda: list(sf.molien_coefficients(rep, workloads.MOLIEN_K).coefficients))
    for i, argv in enumerate(inputs["cli"]):
        attempt(ops, f"cli:{i}", lambda: cli(argv))
    return ops


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    plan = workloads.plan(args.workload, args.seed)
    # In a search the seed shifts the evaluation prime and the pairs must not
    # change; the queries use the default prime whatever the caller's setting.
    os.environ.pop("SPACEFORM_PRIME_SEED", None)
    if plan["kind"] == "search":
        os.environ["SPACEFORM_PRIME_SEED"] = str(plan["prime_seed"])
    import spaceform as sf
    import spaceform.cli  # noqa: F401  (the queries call sf.cli.main)

    if not os.path.abspath(sf.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported spaceform from {sf.__file__}, not from {SRC}")
    inputs = build_inputs(plan, sf)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        cal_before = calibrate()
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(args.work_dir)
            tracer.install(sf)
        cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        if plan["kind"] == "search":
            ops = run_search(plan, sf, args.work_dir)
        else:
            ops = run_queries(inputs, sf)
        wall = time.perf_counter() - t0
        cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        if tracer is not None:
            tracer.uninstall()
        cal = (cal_before + calibrate()) / 2
        result.update(wall_s=wall, cpu_s=cpu, cal_s=cal, peak_rss_mb=rss_kb / 1024, ops=ops)
        if tracer is not None:
            spans = tracer.collect()
            result["layers"] = tracing.layer_metrics(spans)
            result["coverage"] = tracing.coverage(spans, tracer.pid, wall)
            tracing.write_spans(os.path.join(args.work_dir, "spans.json"), spans, t0)
    with open(os.path.join(args.work_dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
