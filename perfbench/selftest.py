"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs a small search (N <= 1400, one published pair) and one round of
pair-queries, shows that the real outputs pass the checks, then corrupts
copies and shows that each corruption is caught:

- search: a pair dropped, r2 altered, a certificate's point count cut below
  2*degree_bound+1.  Each copy keeps pairs.csv, the certificate files and the
  returned pairs consistent, so the check that catches it is the one aimed
  at the corruption;
- pair-queries: one Molien coefficient of a pair member changed, the
  isomorphic pair reported refuted at another check, one point dropped from
  the `fingerprint` CLI record.

Exits 0 when every verdict is as expected.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

N_MAX = 1400


def write_copy(folder: str, certs: list[dict]) -> None:
    os.makedirs(folder)
    with open(os.path.join(folder, "pairs.csv"), "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(checks.CSV_HEADER)
        for c in certs:
            out.writerow([c[k] for k in ("N", "m", "n", "d", "r1", "r2")] + [str(c["theorem42_applicable"]).lower()])
    for c in certs:
        with open(os.path.join(folder, checks.certificate_name(c)), "wb") as fh:
            fh.write(json.dumps(c, sort_keys=True, separators=(",", ":")).encode() + b"\n")


def drop_pair(certs):
    return certs[:-1]


def alter_r2(certs):
    c = certs[-1]
    taken = {checks.generators(c["r1"], c["m"], c["d"]), checks.generators(c["r2"], c["m"], c["d"])}
    c["r2"] = next(r for r in checks.canonical_groups(c["m"], c["n"], c["d"])
                   if r > c["r1"] and checks.generators(r, c["m"], c["d"]) not in taken)
    return certs


def cut_points(certs):
    fm = certs[-1]["fingerprint_match"]
    fm["num_points"] = 2 * fm["degree_bound"]
    return certs


def change_molien(values):
    values["molien:Q"][8] += 1


def misname_refutation(values):
    values["refute:isomorphic"]["failed_check"] = "fingerprint"


def drop_fingerprint_point(values):
    values["cli:3"]["stdout"]["payload"]["points"].pop()


def verdict(expect_caught: bool, what: str, fails: list[str]) -> bool:
    ok = bool(fails) == expect_caught
    print(f"{'PASS' if ok else 'FAIL'}: {what}", *fails, sep="\n  ")
    return ok


def main() -> int:
    import spaceform as sf
    import spaceform.cli  # noqa: F401  (the queries call sf.cli.main)

    base = os.path.join(HERE, "out", f"selftest-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    ok = True
    try:
        ops = worker.run_search({"n_max": N_MAX, "jobs": 1}, sf, base)
        if not ops[0]["ok"]:
            print(ops[0]["error"])
            return 1
        real = ops[0]["value"]
        ok &= verdict(False, f"real output of a search to {N_MAX} passes",
                      checks.check_search(N_MAX, real["certs"], real["artifact_dir"]))
        for corrupt in (drop_pair, alter_r2, cut_points):
            certs = corrupt(copy.deepcopy(real["certs"]))
            folder = os.path.join(base, corrupt.__name__)
            write_copy(folder, certs)
            ok &= verdict(True, f"{corrupt.__name__} is caught", checks.check_search(N_MAX, certs, folder))

        plan = workloads.plan("pair-queries", 1)
        refs = checks.References(plan)
        ops = worker.run_queries(worker.build_inputs(plan, sf), sf)
        failed, fails = checks.check_round(plan, ops, refs)
        errors = [f"{op['name']} failed:\n{op['error']}" for op in ops if not op["ok"]]
        ok &= verdict(False, "real output of pair-queries passes", fails + errors)
        if failed:
            return 1
        for corrupt in (change_molien, misname_refutation, drop_fingerprint_point):
            bad = copy.deepcopy(ops)
            corrupt({op["name"]: op["value"] for op in bad})
            ok &= verdict(True, f"{corrupt.__name__} is caught", checks.check_round(plan, bad, refs)[1])
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if not os.listdir(os.path.dirname(base)):
            os.rmdir(os.path.dirname(base))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
