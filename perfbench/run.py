"""Whole-CLI benchmark for sievelab.

Each case is a fresh ``python -m sievelab.cli ...`` process, as users run
it; a fresh process also starts with empty ``lru_cache``s.  A workload is
a closed loop over its cases: one process at a time, the next started when
the previous one exits.  Every case's exit code and the sha256 of its
default (JSON) output must match ``expected.json``, recorded by
``record.py`` at commit 33638b3; verify and audit cases must also report
``"all_pass": true``.

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --workload verify-grid --seed 3 --seconds 35 --trace 1

``--seed`` sets the order of the cases in each pass and each case's
PYTHONHASHSEED.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes (see
spans.py) and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
EXPECTED_FILE = BENCH_DIR / "expected.json"

# Why each workload: see the "why" lines in BENCHMARK.json.  The cases
# are the paper's theorem instances, sized so that one pass takes about
# 5 s and a run repeats every case several times (see run_workload).
WORKLOADS = {
    # enumeration, the fixed-point filter and the Schur polynomial;
    # clusterlab is never called
    "verify-grid": (
        "verify --theorem thm2.5 --n-range 7:8 --k 4 --workers 1",
        "verify --theorem thm3.4 --n 6 --k 4 --workers 1",
        "verify --theorem thm4.6 --n 5 --k 5 --workers 1",
        "verify --theorem thm1.1-1 --n 9 --k 5 --workers 1",
        "verify --theorem thm1.1-3 --n 6 --k 4 --workers 1",
    ),
    # cluster monomials, rank and the rotation substitution; enumeration
    # is a small share
    "audit-grid": (
        "audit basis-A --n 7 --k 3 --workers 1",
        "audit basis-C --n 5 --k 3 --workers 1",
        "audit conjecture-D --n 5 --k 3 --workers 1",
        "audit equivariance --family C --n 5 --k 2 --workers 1",
        "audit equivariance --family D --n 4 --k 3 --workers 1",
        "audit characters --n 5 --k 4 --workers 1",
    ),
    # the orbit walk in place of count_fixed, many small tasks through the
    # process pool, and building and rendering an 8 MB listing
    "pool-sweep": (
        "verify --theorem orbit-poly --family classicalBC --n-range 5:8 "
        "--k-range 2:3 --workers 2",
        "verify --theorem orbit-poly --family C --n-range 4:5 --k-range 3:4 "
        "--workers 2",
        "audit folding --n-range 3:6 --k-range 2:5 --workers 2",
        "enumerate --family A --n 8 --k 4 --workers 2",
    ),
}

SELF_TIME_LAYERS = tuple(layer for layer, _, _ in spans.LAYERS
                         if not layer.startswith("cli."))
SETUP_PROBES_PER_PASS = 3


@dataclass
class CaseResult:
    case: str
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    output: bytes
    failure: str | None = None
    spans: dict | None = None


def case_env(hashseed: int) -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                PYTHONHASHSEED=str(hashseed))


def run_process(cmd: list[str], env: dict) -> tuple[int, float, float, int, bytes]:
    """Run `cmd` from the repository root with stdout captured.

    Returns exit code, wall seconds, CPU seconds and max RSS (KiB) of the
    process and every child it waited for (pool workers), and stdout."""
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with open(WORK_DIR / "stderr.txt", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=err)
        try:
            output = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss, output)


def run_case(case: str, expected: dict, hashseed: int,
             traced: bool = False) -> CaseResult:
    """One fresh CLI process for `case`, checked against `expected`
    (``{"exit": int, "sha256": str}``); traced runs also cross-check the
    spans against the output."""
    argv = case.split()
    if traced:
        spans_path = WORK_DIR / "spans" / "case"
        shutil.rmtree(spans_path.parent, ignore_errors=True)
        spans_path.parent.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH_DIR / "spans.py"), str(spans_path)] + argv
    else:
        cmd = [sys.executable, "-m", "sievelab.cli"] + argv
    code, wall, cpu, rss, output = run_process(cmd, case_env(hashseed))
    result = CaseResult(case, code, wall, cpu, rss, output)
    result.failure = check_output(argv, expected, code, output)
    if traced:
        result.spans = spans.load_spans(str(spans_path))
        if result.failure is None:
            result.failure = cross_check(argv, output, result.spans)
    if result.failure is not None:
        err = (WORK_DIR / "stderr.txt").read_text(errors="replace").strip()
        if err:
            result.failure += " (stderr: %s)" % err.splitlines()[-1]
    return result


def check_output(argv: list[str], expected: dict, code: int,
                 output: bytes) -> str | None:
    if code != expected["exit"]:
        return "exit code %d, expected %d" % (code, expected["exit"])
    if hashlib.sha256(output).hexdigest() != expected["sha256"]:
        return "output differs from the recorded digest"
    if argv[0] in ("verify", "audit"):
        try:
            all_pass = json.loads(output).get("all_pass")
        except ValueError:
            return "output is not JSON"
        if all_pass is not True:
            return "all_pass is not true"
    return None


def _expected_monomials(selector: str, report: dict) -> int:
    """cluster monomials an audit builds, from its own report"""
    if selector in ("basis-A", "basis-C"):
        return report["count"]
    if selector == "conjecture-D":  # z_D per object, z_A per lemma basis element
        return report["count"] + report["lemma_count"]
    if selector == "equivariance":  # z(f) and z(rotate(f))
        return 2 * report["total"]
    return 0


def cross_check(argv: list[str], output: bytes, traced: dict) -> str | None:
    """The spans must have seen the work the output reports, including
    work done in pool workers."""
    objects = sum(traced["enumerated"].values())
    totals = traced["totals"]
    if argv[0] == "enumerate":
        count = int(re.search(rb'"count": (\d+)', output).group(1))
        if objects != count or totals.get("polygons.to_json", [0])[0] != count:
            return "traced %d objects, output lists %d" % (objects, count)
        return None
    reports = json.loads(output)["reports"]
    if totals.get("cli.task", [0])[0] != len(reports):
        return "traced %d tasks, output has %d reports" \
            % (totals.get("cli.task", [0])[0], len(reports))
    if argv[0] == "verify":
        fixed = sum(c["fixed"] for r in reports for c in r["checks"]
                    if c["d"] == r["group_order"])
        if objects != fixed:
            return "traced %d objects, fixed count at d = group order is %d" \
                % (objects, fixed)
        return None
    want = sum(_expected_monomials(argv[1], r) for r in reports)
    got = totals.get("clusterlab.monomials", [0])[0]
    if got != want:
        return "traced %d cluster monomials, reports imply %d" % (got, want)
    return None


def run_pass(cases: list[str], expected: dict, rng: random.Random,
             traced: bool) -> list[CaseResult]:
    return [run_case(c, expected[c], rng.randrange(2 ** 32), traced)
            for c in rng.sample(cases, len(cases))]


def measure_setup(rng: random.Random) -> list[float]:
    """Seconds for fresh interpreters to import sievelab.cli."""
    cmd = [sys.executable, "-c", "import sievelab.cli"]
    times = []
    for _ in range(SETUP_PROBES_PER_PASS):
        code, wall, _, _, _ = run_process(cmd, case_env(rng.randrange(2 ** 32)))
        if code != 0:
            raise RuntimeError("importing sievelab.cli failed")
        times.append(wall)
    return times


def layer_metrics(untraced_wall: float, traced_wall: float,
                  results: list[CaseResult]) -> dict:
    totals: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    objects = 0
    for r in results:
        for layer, agg in r.spans["totals"].items():
            into = totals.setdefault(layer, [0, 0.0, 0.0])
            for i, v in enumerate(agg):
                into[i] += v
        for name, v in r.spans["counts"].items():
            counts[name] = counts.get(name, 0) + v
        objects += sum(r.spans["enumerated"].values())

    def calls(layer):
        return totals.get(layer, [0, 0.0, 0.0])[0]

    out = {"%s.self_s" % layer: (totals.get(layer, [0, 0.0, 0.0])[2], "s")
           for layer in SELF_TIME_LAYERS}
    out.update({
        "polygons.objects": (objects, "count"),
        "actions.scans_per_object": (
            counts.get("actions.count_fixed.scanned", 0) / objects
            if objects else 0.0, "ratio"),
        "actions.rotate.calls": (calls("actions.rotate"), "count"),
        "qseries.eval_root.calls": (calls("qseries.eval_root"), "count"),
        "cspverify.orbits": (counts.get("cspverify.orbits", 0), "count"),
        "clusterlab.monomials.count": (calls("clusterlab.monomials"), "count"),
        "clusterlab.rank.rows": (counts.get("clusterlab.rank.rows", 0), "count"),
        "cli.self_s": (totals.get("cli.main", [0, 0.0, 0.0])[2], "s"),
        "cli.pool.utilization": (
            totals.get("cli.task", [0, 0.0, 0.0])[1]
            / counts["cli.pool.capacity_s"]
            if counts.get("cli.pool.capacity_s") else 0.0, "ratio"),
        "cli.output_bytes": (sum(len(r.output) for r in results), "count"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    return out


def source_lines() -> int:
    total = 0
    for path in sorted((ROOT / "src" / "sievelab").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, env=dict(os.environ,
                                GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"git_commit": commit, "workload": workload, "seed": seed,
            "seconds": seconds, "trace": trace,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "src_lines": source_lines()}


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 expected: dict) -> tuple[list[CaseResult], dict]:
    """Repeat passes over the workload's cases while `seconds` allow (at
    least one pass; with `trace`, at least one untraced and one traced).

    Times are per-case minimums over the passes, summed over the cases.
    Other processes on a shared host slow every case by up to 1.5x, in
    phases that last from a few seconds to half a minute; a case's fastest
    repeat measures its own cost, where the median of a few repeats would
    measure the host's load."""
    rng = random.Random("%s/%d" % (name, seed))
    cases = list(WORKLOADS[name])
    # the first import compiles bytecode; it is not timed
    run_process([sys.executable, "-c", "import sievelab.cli"], case_env(0))
    setup: list[float] = []
    passes: list[tuple[bool, float, list[CaseResult]]] = []
    start = perf_counter()
    while len(passes) < 1 + trace or \
            perf_counter() - start + passes[-1][1] <= seconds:
        pass_start = perf_counter()
        traced = trace and len(passes) % 2 == 1
        if not trace:
            setup += measure_setup(rng)
        results = run_pass(cases, expected, rng, traced)
        passes.append((traced, perf_counter() - pass_start, results))
    results = [r for _, _, rs in passes for r in rs]

    def fastest(traced: bool, attr: str) -> float:
        best: dict[str, float] = {}
        for was_traced, _, rs in passes:
            if was_traced == traced:
                for r in rs:
                    best[r.case] = min(best.get(r.case, float("inf")),
                                       getattr(r, attr))
        return sum(best.values())

    print("%s: %d passes of %s s" % (name, len(passes), " ".join(
        "%.2f%s" % (w, "t" if t else "") for t, w, _ in passes)),
        file=sys.stderr)
    if trace:
        fastest_traced = min((rs for t, _, rs in passes if t),
                             key=lambda rs: sum(r.wall_s for r in rs))
        return results, layer_metrics(fastest(False, "wall_s"),
                                      fastest(True, "wall_s"), fastest_traced)
    return results, {
        "wall_s": (fastest(False, "wall_s"), "s"),
        "cpu_s": (fastest(False, "cpu_s"), "s"),
        "peak_rss_mb": (max(r.maxrss_kb for r in results) / 1024, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "cases_ok_frac": (sum(r.failure is None for r in results)
                          / len(results), "frac"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS) + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35,
                        help="measuring time; a run makes at least one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sievelab" / "cli.py").is_file():
        print("error: no sievelab sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    with open(EXPECTED_FILE) as fh:
        expected = json.load(fh)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        results, values = run_workload(name, args.seed, args.seconds,
                                       bool(args.trace), expected)
        print(json.dumps({"provenance": provenance(
            name, args.seed, args.seconds, args.trace)}))
        for r in results:
            if r.failure is not None:
                print("FAILED %s: %s" % (r.case, r.failure), file=sys.stderr)
        attempted += len(results)
        failed += sum(r.failure is not None for r in results)
        for metric, (value, unit) in values.items():
            key = metric if len(names) == 1 else "%s.%s" % (name, metric)
            metrics[key] = {"value": value, "unit": unit}
            print("%-12s %-34s %14.6g %s" % (name, metric, value, unit),
                  file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
