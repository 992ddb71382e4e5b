"""Spans around the package's public functions, and the per-layer metrics
computed from them.

Each traced function is wrapped once per spaceform namespace that binds it,
so a call is seen where its caller looks the name up: `search` imports
`det_classes`, `evaluate_f_values`, `shared_fingerprints` and
`almost_conjugate` by name, and a span records that site.  A span is
[name, site, start, end, parent index, extra]; spans stay in memory and are
written out when the round ends.

Pool workers of a parallel search are forked with the wrappers in place.
Their spans are collected per process: `search._search_worker`, the function
the pool runs for each order, is replaced by `traced_search_worker`, which
appends the spans of each task to a spool file named after the worker's pid.
The pool terminates its workers without running exit hooks, so the spans
leave the worker with each task rather than at exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict

clock = time.perf_counter

# (defining module, function).  Names of spans and metrics are "module.function".
TARGETS = (
    ("search", "run_search"),
    ("search", "enumerate_canonical"),
    ("search", "audible_invariants"),
    ("search", "certify_pair"),
    ("search", "write_results"),
    ("spectra", "det_classes"),
    ("spectra", "evaluate_f_values"),
    ("spectra", "shared_fingerprints"),
    ("spectra", "almost_conjugate"),
    ("spectra", "molien_coefficients"),
    ("groups", "is_canonical"),
    ("groups", "is_isomorphic"),
    ("numtheory", "next_prime_in_progression"),
    ("numtheory", "torsion_elements"),
    ("cli", "main"),
)

# What a span records about its call besides time, by span name.
EXTRAS = {
    "search.enumerate_canonical": lambda args, out: len(out),
    "search.audible_invariants": lambda args, out: repr(out),
    "spectra.det_classes": lambda args, out: [len(out), args[0].group.order],
    "spectra.evaluate_f_values": lambda args, out: [len(out), len(args[0])],
}

# The tracer of this process.  A pool pickles its task function by module and
# name, so the function that ships worker spans has to find its tracer here.
_ACTIVE = None


class Tracer:
    def __init__(self, spool_dir: str):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.pool_task = None
        self._undo: list[tuple] = []

    def wrap(self, name: str, site: str, fn):
        spans, stack, extra = self.spans, self.stack, EXTRAS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, site, start, end, parent, None]
            if extra is not None:
                spans[idx][5] = extra(args, out)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap every TARGETS function in every spaceform module that binds it."""
        global _ACTIVE
        modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))}
        for home, fname in TARGETS:
            fn = getattr(modules[home], fname)
            for site, mod in modules.items():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, self.wrap(f"{home}.{fname}", site, fn))
        search = modules["search"]
        worker = getattr(search, "_search_worker", None)
        if worker is not None:
            self.pool_task = self.wrap("search.pool_task", "search", worker)
            self._undo.append((search, "_search_worker", worker))
            search._search_worker = traced_search_worker
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()
        _ACTIVE = None

    def collect(self) -> list[list]:
        """This process's spans followed by those spooled by pool workers,
        each with its pid; parent indices are rebased to the merged list."""
        merged = [span + [self.pid] for span in self.spans]
        for fname in sorted(os.listdir(self.spool_dir)):
            if not fname.startswith("worker-"):
                continue
            pid = int(fname[len("worker-"):].split(".")[0])
            with open(os.path.join(self.spool_dir, fname)) as fh:
                for line in fh:
                    base = len(merged)
                    for name, site, start, end, parent, extra in json.loads(line):
                        merged.append([name, site, start, end, parent + base if parent >= 0 else -1, extra, pid])
        return merged


def traced_search_worker(args):
    """The pool's task function while tracing: run the original and append
    this task's spans, rebased to the task, to the worker's spool file."""
    tracer = _ACTIVE
    if tracer is None:
        # A worker started by spawn or forkserver imports spaceform afresh,
        # without wrappers: run the task untraced.
        from spaceform.search import _search_worker
        return _search_worker(args)
    tracer.stack.clear()
    base = len(tracer.spans)
    out = tracer.pool_task(args)
    batch = [[n, s, a, b, p - base if p >= base else -1, x] for n, s, a, b, p, x in tracer.spans[base:]]
    del tracer.spans[base:]
    path = os.path.join(tracer.spool_dir, f"worker-{os.getpid()}.jsonl")
    with open(path, "a") as fh:
        fh.write(json.dumps(batch) + "\n")
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times (seconds) from merged spans."""
    child = [0.0] * len(spans)
    for name, site, start, end, parent, extra, pid in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, site, start, end, parent, extra, pid) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child[i]
    out: dict[str, float] = {}
    for name in sorted({home + "." + fname for home, fname in TARGETS}):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = self_s[name]

    def spans_of(name, site=None):
        return [s for s in spans if s[0] == name and (site is None or s[1] == site)]

    out["search.groups"] = sum(s[5] for s in spans_of("search.enumerate_canonical"))
    keys = Counter(s[5] for s in spans_of("search.audible_invariants"))
    out["search.buckets_multi"] = sum(1 for c in keys.values() if c >= 2)
    # evaluate_f_values looked up in `search` is the search's own bucketing:
    # the 16-point prefilter, then the full 2*degree_bound+1 points.
    from_search = spans_of("spectra.evaluate_f_values", "search")
    for stage, chosen in (("prefilter", [s for s in from_search if s[5][0] <= 16]),
                          ("full", [s for s in from_search if s[5][0] > 16])):
        out[f"search.{stage}.calls"] = len(chosen)
        out[f"search.{stage}.s"] = sum(s[3] - s[2] for s in chosen)
        out[f"search.{stage}.points"] = sum(s[5][0] for s in chosen)
    searched_pairs = len(spans_of("search.certify_pair", "search"))
    out["search.full_yield"] = searched_pairs / out["search.full.calls"] if out["search.full.calls"] else 0.0
    det = spans_of("spectra.det_classes")
    out["spectra.det_classes.classes"] = sum(s[5][0] for s in det)
    out["spectra.det_classes.elements"] = sum(s[5][1] for s in det)
    ev = spans_of("spectra.evaluate_f_values")
    out["spectra.evaluate_f_values.points"] = sum(s[5][0] for s in ev)
    out["spectra.evaluate_f_values.class_points"] = sum(s[5][0] * s[5][1] for s in ev)
    return out


def coverage(spans: list[list], pid: int, wall_s: float) -> float:
    """Share of wall_s inside top-level spans of the timing process."""
    return sum(s[3] - s[2] for s in spans if s[4] < 0 and s[6] == pid) / wall_s


def write_spans(path: str, spans: list[list], origin: float) -> None:
    """Spans as [name, site, start_s, end_s, parent, pid], times from origin."""
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "site", "start_s", "end_s", "parent", "pid"],
                   "spans": [[n, s, round(a - origin, 7), round(b - origin, 7), p, pid]
                             for n, s, a, b, p, x, pid in spans]}, fh)

