"""Time two whole searches and record them as one row of BENCH_search.json.

    python3 tools/bench_search.py --label <name> [--src DIR] [--out FILE]
    python3 tools/bench_search.py --label <name> --base CHECKOUT [--src DIR] [--out FILE]

Runs `python -m spaceform search --nmax 8000 --jobs 1 --out ...` 10 times
and `search --nmax 30000 --jobs 2 --out ...` 3 times (the counts in
SEARCHES), each time in its own interpreter, with the package taken from
--src (default: this checkout's src/), after one discarded warm-up run of
each search.  The short search gets more runs, as a drift of the host's
speed outlasts 3 runs of one second.  For each run it takes wall time, CPU
time (the search and its pool children), and both divided by perfbench's
calibration loop (`worker.calibrate`, timed in this process right before and
right after the search; the mean of the two is the unit), so that rows taken
while the host runs at another speed stay comparable.  The row holds the
median of each of these over the runs, and the run count.  It also records
the number of files written and the sha256 of their `sha256sum`-style
listing in byte order of the names, which shows the output bytes did not
change; runs whose listings differ stop the script.  The row goes into --out (default:
BENCH_search.json at the root of the checkout) under its label, replacing a
row of the same label; the host's core count and Python version go with it.
The 30000 search takes tens of seconds; the whole script a few minutes.

With --base, the runs are paired: after one discarded warm-up run per
side, each search alternates a run of CHECKOUT/src (the base) and a run of
--src (the change), its count of times each (ABAB), so a drift of the
host's speed hits both sides alike.  The row then holds each side's medians
and digest under "base" and "change", and the median, least and largest
over the pairs of change/base wall and CPU seconds, and of wall and CPU time
in calibration units, which leave out a change of the host's speed between
the two runs of a pair.  It is printed,
and written only to an explicit --out.  Then the script exits 1, naming the
search, if the base and the change wrote different bytes for any search.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from worker import calibrate  # noqa: E402

# (row name, n_max, jobs, runs or pairs)
SEARCHES = (("search_8000_jobs1", 8000, 1, 10), ("search_30000_jobs2", 30000, 2, 3))


def listing_digest(directory: str) -> str:
    lines = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            lines.append(f"{hashlib.sha256(f.read()).hexdigest()}  {name}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def time_search(src: str, n_max: int, jobs: int) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("SPACEFORM_PRIME_SEED", None)
    with tempfile.TemporaryDirectory() as out:
        cal_before = calibrate()
        cpu_before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "spaceform", "search", "--nmax", str(n_max),
                        "--jobs", str(jobs), "--out", out], env=env, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        cpu_after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cal_after = calibrate()
        cpu = (cpu_after.ru_utime - cpu_before.ru_utime) + (cpu_after.ru_stime - cpu_before.ru_stime)
        cal = (cal_before + cal_after) / 2
        return {"wall_s": wall, "cpu_s": cpu, "cal_s": cal, "wall_cal": wall / cal, "cpu_cal": cpu / cal,
                "files": len(os.listdir(out)), "digest": listing_digest(out)}


def summarize(what: str, runs: list) -> dict:
    """The medians of runs of one search; every run must write the same bytes."""
    if len({(run["files"], run["digest"]) for run in runs}) != 1:
        raise RuntimeError(f"{what}: runs wrote different files: {runs}")
    row = {"runs": len(runs)}
    for key, digits in (("wall_s", 2), ("cpu_s", 2), ("cal_s", 4), ("wall_cal", 1), ("cpu_cal", 1)):
        row[key] = round(statistics.median(run[key] for run in runs), digits)
    return {**row, "files": runs[0]["files"], "digest": runs[0]["digest"]}


def median_row(src: str, n_max: int, jobs: int, count: int) -> dict:
    time_search(src, n_max, jobs)  # warm-up, discarded
    runs = [time_search(src, n_max, jobs) for _ in range(count)]
    return {"n_max": n_max, "jobs": jobs, **summarize(f"search --nmax {n_max} --jobs {jobs}", runs)}


def paired_row(base_src: str, src: str, n_max: int, jobs: int, count: int) -> dict:
    """count alternating (base, change) runs of one search after one discarded
    run of each: each side's medians and the median, least and largest
    per-pair ratio change/base of wall and CPU seconds and of wall_cal and
    cpu_cal."""
    time_search(base_src, n_max, jobs), time_search(src, n_max, jobs)  # warm-up, discarded
    pairs = [(time_search(base_src, n_max, jobs), time_search(src, n_max, jobs)) for _ in range(count)]
    what = f"search --nmax {n_max} --jobs {jobs}"
    row = {"n_max": n_max, "jobs": jobs, "base": summarize(f"{what} (base)", [a for a, _ in pairs]),
           "change": summarize(f"{what} (change)", [b for _, b in pairs])}
    for key in ("wall_s", "cpu_s", "wall_cal", "cpu_cal"):
        ratios = [b[key] / a[key] for a, b in pairs]
        row[f"{key}_ratio"] = round(statistics.median(ratios), 3)
        row[f"{key}_ratio_min"], row[f"{key}_ratio_max"] = round(min(ratios), 3), round(max(ratios), 3)
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="row name, e.g. a commit and what it holds")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory that holds the spaceform package")
    ap.add_argument("--base", help="a checkout whose src/ runs alternately with --src (paired mode)")
    ap.add_argument("--out", help="JSON file for the row (default: BENCH_search.json, "
                                  "or none in paired mode)")
    args = ap.parse_args()
    src = os.path.abspath(args.src)
    row = {"label": args.label, "cores": os.cpu_count(), "python": platform.python_version()}
    if args.base:
        base_src = os.path.join(os.path.abspath(args.base), "src")
        row.update({name: paired_row(base_src, src, *search) for name, *search in SEARCHES})
    else:
        row.update({name: median_row(src, *search) for name, *search in SEARCHES})
    print(json.dumps(row, indent=1))
    out = args.out or (None if args.base else os.path.join(ROOT, "BENCH_search.json"))
    if out:
        write_row(out, row)
    if args.base:
        differ = [name for name, *_ in SEARCHES if row[name]["base"]["digest"] != row[name]["change"]["digest"]]
        if differ:
            sys.exit(f"base and change wrote different bytes: {', '.join(differ)}")


def write_row(out: str, row: dict) -> None:
    """Put row into out, replacing a row of the same label."""
    rows = []
    if os.path.exists(out):
        with open(out) as f:
            rows = [r for r in json.load(f)["rows"] if r["label"] != row["label"]]
    with open(out, "w") as f:
        json.dump({"about": "tools/bench_search.py: whole searches through the CLI, wall and CPU seconds "
                            "and the same in units of perfbench's calibration loop; "
                            "rows with \"runs\" hold the medians of that many runs; paired rows "
                            "(--base) hold them under \"base\" and \"change\", with the median, "
                            "least and largest per-pair ratios",
                   "rows": rows + [row]}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
