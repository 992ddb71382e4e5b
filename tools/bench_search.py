"""Time two whole searches and record them as one row of BENCH_search.json.

    python3 tools/bench_search.py --label <name> [--src DIR] [--out FILE]

Runs `python -m spaceform search --nmax 8000 --jobs 1 --out ...` and
`search --nmax 30000 --jobs 2 --out ...`, each RUNS = 3 times and each time
in its own interpreter, with the package taken from --src (default: this
checkout's src/).  For each run it takes wall time, CPU time (the search and
its pool children), and both divided by perfbench's calibration loop
(`worker.calibrate`, timed in this process right before and right after the
search; the mean of the two is the unit), so that rows taken while the host
runs at another speed stay comparable.  The row holds the median of each of
these over the runs, and the run count.  It also records the number of files
written and the sha256 of their `sha256sum`-style listing in byte order of
the names, which shows the output bytes did not change; runs whose listings
differ stop the script.  The row goes into --out (default:
BENCH_search.json at the root of the checkout) under its label, replacing a
row of the same label; the host's core count and Python version go with it.
The 30000 search takes tens of seconds; the whole script a few minutes.
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

SEARCHES = (("search_8000_jobs1", 8000, 1), ("search_30000_jobs2", 30000, 2))
RUNS = 3


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


def median_row(src: str, n_max: int, jobs: int) -> dict:
    """The medians of RUNS runs of one search; every run must write the same bytes."""
    runs = [time_search(src, n_max, jobs) for _ in range(RUNS)]
    if len({(run["files"], run["digest"]) for run in runs}) != 1:
        raise RuntimeError(f"search --nmax {n_max} --jobs {jobs}: runs wrote different files: {runs}")
    row = {"n_max": n_max, "jobs": jobs, "runs": RUNS}
    for key, digits in (("wall_s", 2), ("cpu_s", 2), ("cal_s", 4), ("wall_cal", 1), ("cpu_cal", 1)):
        row[key] = round(statistics.median(run[key] for run in runs), digits)
    return {**row, "files": runs[0]["files"], "digest": runs[0]["digest"]}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="row name, e.g. a commit and what it holds")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory that holds the spaceform package")
    ap.add_argument("--out", default=os.path.join(ROOT, "BENCH_search.json"))
    args = ap.parse_args()
    row = {"label": args.label, "cores": os.cpu_count(), "python": platform.python_version(),
           **{name: median_row(os.path.abspath(args.src), n_max, jobs) for name, n_max, jobs in SEARCHES}}
    rows = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            rows = [r for r in json.load(f)["rows"] if r["label"] != args.label]
    with open(args.out, "w") as f:
        json.dump({"about": "tools/bench_search.py: whole searches through the CLI, wall and CPU seconds "
                            "and the same in units of perfbench's calibration loop; "
                            "rows with \"runs\" hold the medians of that many runs",
                   "rows": rows + [row]}, f, indent=1)
        f.write("\n")
    print(json.dumps(row, indent=1))


if __name__ == "__main__":
    main()
