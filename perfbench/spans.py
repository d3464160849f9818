"""Span tracing for one sievelab CLI run, installed from outside the package.

Run as a script, it wraps each layer's public entry points, then calls
``sievelab.cli.main`` with the remaining arguments:

    PYTHONPATH=src python3 perfbench/spans.py SPANS_FILE verify --theorem thm2.5 --n 6 --k 2

Each wrapper opens a span named after its layer.  Spans nest on a stack;
when one closes, its duration is added to its parent's child time, and its
self time (duration minus child time) to its layer's totals.  Totals stay in
memory and are written as JSON lines to ``SPANS_FILE`` (main process) and
``SPANS_FILE.<pid>`` (pool workers).  Pool workers are forked from the traced
process, so they inherit the wrappers; they exit without running ``atexit``,
so every worker flushes its totals after each task.

The modules import each other with ``from .x import y``, so a wrapper is
bound under every name, in every ``sievelab`` module, that refers to the
original function.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

# (layer, module, attribute names); an attribute "Class.method" is
# rebound on the class.
LAYERS = (
    ("polygons.enumerate", "sievelab.polygons",
     ("enumerate_multidissections", "edge_universe")),
    ("polygons.to_json", "sievelab.polygons", ("Multidissection.to_json_dict",)),
    ("actions.count_fixed", "sievelab.actions", ("count_fixed",)),
    ("actions.rotate", "sievelab.actions", ("rotate_multidissection",)),
    ("tableaux.ssyt", "sievelab.tableaux",
     ("enumerate_ssyt", "ssyt_content_counts")),
    ("symfunc.schur", "sievelab.symfunc", ("schur_eval",)),
    ("symfunc.homog", "sievelab.symfunc", ("homog_eval",)),
    ("symfunc.build", "sievelab.symfunc",
     ("build_X_typeA", "build_X_typeC", "build_X_typeD", "build_X_thm11")),
    ("qseries.eval_root", "sievelab.qseries", ("eval_at_unity_root",)),
    ("qseries.q_binomial", "sievelab.qseries", ("q_binomial",)),
    ("cspverify.verify", "sievelab.cspverify", ("verify",)),
    ("cspverify.orbit_polynomial", "sievelab.cspverify", ("orbit_polynomial",)),
    ("cspverify.folding", "sievelab.cspverify", ("verify_folding_consistency",)),
    ("clusterlab.monomials", "sievelab.clusterlab", ("z_A", "z_C", "z_D")),
    ("clusterlab.rank", "sievelab.clusterlab", ("rank",)),
    ("clusterlab.equivariance", "sievelab.clusterlab",
     ("verify_equivariance", "equivariance_discrepancy",
      "rotation_substitution")),
    ("clusterlab.j_reduce", "sievelab.clusterlab", ("j_reduce",)),
    ("clusterlab.characters", "sievelab.clusterlab",
     ("character_check_A", "character_check_D")),
    ("clusterlab.witness", "sievelab.clusterlab", ("dependency_witness",)),
    ("cli.run_all", "sievelab.cli", ("_run_all",)),
    ("cli.task", "sievelab.cli", ("_run_task",)),
)


class Tracer:
    """Per-process span totals: calls, summed duration and self time per
    layer, plus the counters the layers' results yield."""

    def __init__(self, path: str):
        self.path = path
        self.main_pid = os.getpid()
        self._stack: list[list] = []  # [layer, child seconds]
        self._reset()

    def _reset(self):
        self.totals: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}
        self.enumerated: dict[str, int] = {}

    def count(self, name: str, value: float):
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, layer: str, fn, after=None):
        """`fn` inside a span of `layer`; `after(args, result, seconds,
        parent_layer)` turns the call into counters."""
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                agg = self.totals.setdefault(layer, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += seconds
                agg[2] += seconds - frame[1]
            if after is not None:
                after(args, result, seconds, stack[-1][0] if stack else None)
            return result

        return wrapper

    def flush(self):
        """Append this process's totals since the last flush to its file."""
        path = self.path if os.getpid() == self.main_pid \
            else "%s.%d" % (self.path, os.getpid())
        with open(path, "a") as fh:
            fh.write(json.dumps({"totals": self.totals, "counts": self.counts,
                                 "enumerated": self.enumerated}) + "\n")
        self._reset()

    # -- counters --------------------------------------------------------

    def _after_enumerate(self, args, result, seconds, parent):
        if not isinstance(result, list):  # edge_universe
            return
        family, n, k = args
        self.enumerated["%s/%d/%d" % (family, n, k)] = len(result)
        if parent == "actions.count_fixed":
            self.count("actions.count_fixed.scanned", len(result))

    def _after_orbit_polynomial(self, args, result, seconds, parent):
        # coefficient a_0 of the orbit polynomial counts all orbits
        self.count("cspverify.orbits", result.coefficient(0))

    def _after_rank(self, args, result, seconds, parent):
        self.count("clusterlab.rank.rows", len(args[0]))

    def _after_run_all(self, args, result, seconds, parent):
        tasks, workers = args
        in_pool = workers > 1 and len(tasks) > 1
        self.count("cli.pool.capacity_s",
                   seconds * (min(workers, len(tasks)) if in_pool else 1))

    def _after_task(self, args, result, seconds, parent):
        if os.getpid() != self.main_pid:
            self.flush()

    def install(self):
        """Rebind every entry point in LAYERS in every loaded sievelab
        module."""
        import sievelab.cli  # noqa: F401  (loads every layer module)

        # a forked pool worker starts with empty totals, not a copy of
        # the parent's
        os.register_at_fork(after_in_child=self._reset)
        after = {
            "polygons.enumerate": self._after_enumerate,
            "cspverify.orbit_polynomial": self._after_orbit_polynomial,
            "clusterlab.rank": self._after_rank,
            "cli.run_all": self._after_run_all,
            "cli.task": self._after_task,
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "sievelab" or name.startswith("sievelab.")]
        for layer, module_name, attrs in LAYERS:
            module = sys.modules[module_name]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(layer, getattr(cls, meth),
                                                 after.get(layer)))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(layer, original, after.get(layer))
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, name, wrapped)


def load_spans(path: str) -> dict:
    """Merge the span files one traced run left at `path` and `path.<pid>`.

    Returns totals per layer ([calls, seconds, self seconds]), counters,
    the sizes of the distinct enumerations, and the number of worker
    processes that reported."""
    directory, base = os.path.split(path)
    files = sorted(f for f in os.listdir(directory)
                   if f == base or f.startswith(base + "."))
    merged = {"totals": {}, "counts": {}, "enumerated": {},
              "worker_files": sum(f != base for f in files)}
    for f in files:
        with open(os.path.join(directory, f)) as fh:
            for line in fh:
                part = json.loads(line)
                for layer, agg in part["totals"].items():
                    into = merged["totals"].setdefault(layer, [0, 0.0, 0.0])
                    for i, v in enumerate(agg):
                        into[i] += v
                for name, v in part["counts"].items():
                    merged["counts"][name] = merged["counts"].get(name, 0) + v
                merged["enumerated"].update(part["enumerated"])
    return merged


def main(argv: list[str]) -> int:
    tracer = Tracer(argv[0])
    tracer.install()
    import sievelab.cli
    try:
        return tracer.wrap("cli.main", sievelab.cli.main)(argv[1:])
    finally:
        sys.stdout.flush()
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
