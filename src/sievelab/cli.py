"""Command-line front end: enumeration listings, sieving verification
batches, and algebra audits with JSON / CSV / text reports.

Exit codes: 0 all requested checks hold (or --exploratory), 1 at least
one check failed, 2 usage or configuration error, 3 a failed internal
invariant (an ArithmeticError, such as a non-exact division or an orbit
size that does not divide the group order).
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from functools import partial
from typing import Callable, NamedTuple

from .clusterlab import (
    character_check_A, character_check_D, check_basis_A, check_basis_C,
    check_conjecture_D, verify_equivariance,
)
from .cspverify import (
    THEOREM_SELECTORS, theorem_instance, verify, verify_folding_consistency,
)
from .polygons import FAMILIES, enumerate_multidissections, family_rules
from .qseries import IntLaurentPoly
from .symfunc import ones_point, principal_point


class UsageError(Exception):
    pass


def _parse_span(single, span, flag):
    if single is not None and span is not None:
        raise UsageError("give either --%s or --%s-range, not both" % (flag, flag))
    if single is not None:
        return (single,)
    if span is not None:
        bits = span.split(":")
        if len(bits) != 2:
            raise UsageError("--%s-range wants LO:HI" % flag)
        try:
            lo, hi = int(bits[0]), int(bits[1])
        except ValueError:
            raise UsageError("--%s-range wants integer bounds" % flag)
        if hi < lo:
            raise UsageError("--%s-range is empty" % flag)
        return tuple(range(lo, hi + 1))
    raise UsageError("missing --%s or --%s-range" % (flag, flag))


# ---------------------------------------------------------------------------
# Task execution (top-level functions so worker pools can pickle them)
# ---------------------------------------------------------------------------


def _first_primes(n: int) -> tuple[IntLaurentPoly, ...]:
    """The first n primes, found by trial division."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return tuple(IntLaurentPoly(p) for p in primes)


def _character_probes(family: str, n: int):
    if family_rules(family).base == "A":
        return [
            ("ones", ones_point(n), None),
            ("principal", principal_point(n), None),
            ("primes", _first_primes(n), None),
        ]
    return [
        ("ones", ones_point(n), ones_point(2)),
        ("principal", principal_point(n, step=2),
         (IntLaurentPoly(1), IntLaurentPoly.monomial(n))),
        ("primes", _first_primes(n),
         (IntLaurentPoly(31), IntLaurentPoly(37))),
    ]


def _character_report(family: str, n: int, k: int) -> dict:
    points = []
    for name, y, z in _character_probes(family, n):
        entry = {"point": name, "y": [str(v) for v in y]}
        if z is None:
            entry["pass"] = character_check_A(n, k, y)
        else:
            entry["z"] = [str(v) for v in z]
            entry["pass"] = character_check_D(n, k, y, z)
        points.append(entry)
    return {"family": family, "n": n, "k": k, "points": points,
            "pass": all(p["pass"] for p in points)}


def _verify_report(family, n, k, theorem, variant, step) -> dict:
    report = verify(theorem_instance(theorem, n, k, variant=variant,
                                     generator_step=step, family=family))
    return {**report.to_json_dict(), "pass": report.csp_holds}


class Report(NamedTuple):
    """One kind of sweep task.  `run(family, n, k, *extra)` returns the
    report dict; it looks library functions up by name when called, so
    they can be rebound.  csv writes a report's `columns`, then a row per
    item of its list `entries` with `entry_columns`; text writes
    `line % report`, then `mismatch % item` per failing item."""
    run: Callable[..., dict]
    columns: tuple[str, ...]
    line: str
    entries: str | None = None
    entry_columns: tuple[str, ...] = ()
    mismatch: str | None = None


_BASIS_COLUMNS = ("family", "n", "k", "count", "rank", "expected_dim", "pass")
_BASIS_LINE = (" family=%(family)s n=%(n)d k=%(k)d count=%(count)d"
               " rank=%(rank)d expected=%(expected_dim)d pass=%(pass)s")

REPORTS = {
    "verify": Report(
        _verify_report,
        ("family", "n", "k", "variant", "group_order", "label"),
        "%(label)s family=%(family)s n=%(n)d k=%(k)d%(variant=)s"
        " group_order=%(group_order)d csp_holds=%(csp_holds)s",
        "checks", ("d", "fixed", "eval", "pass"),
        "  d=%(d)d fixed=%(fixed)d eval=%(eval)s MISMATCH"),
    "basis-A": Report(lambda family, n, k: check_basis_A(n, k).to_json_dict(),
                      _BASIS_COLUMNS, "basis-A" + _BASIS_LINE),
    "basis-C": Report(lambda family, n, k: check_basis_C(n, k).to_json_dict(),
                      _BASIS_COLUMNS, "basis-C" + _BASIS_LINE),
    "conjecture-D": Report(
        lambda family, n, k: check_conjecture_D(n, k).to_json_dict(),
        ("n", "k", "count", "rank", "expected_dim", "lemma_count",
         "independent_mod_J", "spans", "pass"),
        "conjecture-D n=%(n)d k=%(k)d count=%(count)d rank=%(rank)d"
        " expected=%(expected_dim)d independent=%(independent_mod_J)s"
        " spans=%(spans)s pass=%(pass)s  (%(note)s)"),
    "equivariance": Report(
        lambda family, n, k: verify_equivariance(family, n, k).to_json_dict(),
        ("family", "n", "k", "mode", "total", "failures", "pass"),
        "equivariance family=%(family)s n=%(n)d k=%(k)d mode=%(mode)s"
        " total=%(total)d pass=%(pass)s"),
    "characters": Report(
        _character_report, ("family", "n", "k"),
        "characters family=%(family)s n=%(n)d k=%(k)d pass=%(pass)s",
        "points", ("point", "pass")),
    "folding": Report(
        lambda family, n, k: verify_folding_consistency(n, k).to_json_dict(),
        ("n", "k"), "folding n=%(n)d k=%(k)d pass=%(pass)s",
        "entries", ("d", "parity", "fixed", "expected", "pass"),
        "  d=%(d)d %(parity)s fixed=%(fixed)d expected=%(expected)d MISMATCH"),
}
AUDIT_SELECTORS = tuple(kind for kind in REPORTS if kind != "verify")

# Selectors that read --family: the families swept when it is left out
# (None: it is required) and the usage error.  Others reject it.
_FAMILY_RULES = {
    "orbit-poly": (None, "orbit-poly needs --family"),
    "equivariance": (None, "audit equivariance needs --family"),
    "characters": (("A", "D"), "character audits cover families A and D"),
}


def _run_task(task: tuple) -> dict:
    return REPORTS[task[0]].run(*task[1:])


def _run_all(tasks: list[tuple], workers: int) -> list[dict]:
    if workers == 1 or len(tasks) <= 1:
        return [_run_task(t) for t in tasks]
    # imported here: a run that starts no pool never loads multiprocessing
    from multiprocessing import Pool
    with Pool(processes=min(workers, len(tasks))) as pool:
        return pool.map(_run_task, tasks, chunksize=1)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


class _Fields(dict):
    """A report's values as csv cells and %-format fields: a dict as
    sorted JSON, a list by its length.  `%(name=)s` formats as
    ` name=value`, or as nothing when the value is empty."""

    def __getitem__(self, key):
        if key.endswith("="):
            value = self[key[:-1]]
            return " %s%s" % (key, value) if value else ""
        value = super().__getitem__(key)
        if isinstance(value, dict):
            return json.dumps(value, sort_keys=True)
        return len(value) if isinstance(value, list) else value


def _csv(report: Report, payload: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(report.columns + report.entry_columns)
    for r in payload["reports"]:
        cells = _Fields(r)
        head = [cells[c] for c in report.columns]
        for e in r[report.entries] if report.entries else [{}]:
            cells = _Fields(e)
            w.writerow(head + [cells[c] for c in report.entry_columns])
    return buf.getvalue()


def _text(report: Report, payload: dict) -> str:
    lines = []
    for r in payload["reports"]:
        lines.append(report.line % _Fields(r))
        if report.mismatch:
            lines.extend(report.mismatch % _Fields(e)
                         for e in r[report.entries] if not e["pass"])
    return "\n".join(lines) + "\n"


def _csv_enumerate(payload: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["family", "n", "k", "index", "multidissection"])
    for i, item in enumerate(payload["items"]):
        w.writerow([payload["family"], payload["n"], payload["k"], i,
                    json.dumps(item, sort_keys=True)])
    return buf.getvalue()


def _text_enumerate(payload: dict) -> str:
    lines = ["%s n=%d k=%d count=%d%s"
             % (payload["family"], payload["n"], payload["k"], payload["count"],
                " (listing truncated)" if payload["truncated"] else "")]
    for item in payload["items"]:
        lines.append("  " + json.dumps(item, sort_keys=True))
    return "\n".join(lines) + "\n"


def _check_out(path: str | None):
    """Fail before any work is done where writing --out would fail: on a
    directory, in a missing or unwritable directory, or on an unwritable
    file.  Nothing is created or truncated."""
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError("cannot write %s: %s" % (path, os.strerror(code)))


def _emit(config: argparse.Namespace, payload: dict, to_csv, to_text):
    """Write `payload` to --out or stdout: as JSON, or through `to_csv` or
    `to_text`."""
    if config.fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = (to_csv if config.fmt == "csv" else to_text)(payload)
    if not config.out:
        sys.stdout.write(text)
        return
    try:
        with open(config.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write %s: %s" % (config.out, exc.strerror))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_enumerate(config: argparse.Namespace) -> int:
    if config.family is None:
        raise UsageError("enumerate needs --family")
    if len(config.n_values) != 1 or len(config.k_values) != 1:
        raise UsageError("enumerate works on a single --n and --k")
    n, k = config.n_values[0], config.k_values[0]
    _check_out(config.out)
    mds = enumerate_multidissections(config.family, n, k)
    shown = mds if config.limit is None else mds[:config.limit]
    payload = {
        "command": "enumerate",
        "family": config.family,
        "n": n,
        "k": k,
        "count": len(mds),
        "truncated": len(shown) < len(mds),
        "items": [m.to_json_dict() for m in shown],
    }
    _emit(config, payload, _csv_enumerate, _text_enumerate)
    return 0


def _families(config: argparse.Namespace, selector: str) -> tuple:
    """The families a sweep of `selector` runs through, innermost."""
    if selector not in _FAMILY_RULES:
        if config.family is not None:
            raise UsageError("--family applies to orbit-poly only"
                             if config.theorem else
                             "audit %s does not take --family" % selector)
        return (None,)
    default, error = _FAMILY_RULES[selector]
    if config.family is None:
        if default is None:
            raise UsageError(error)
        return default
    if default is not None and config.family not in default:
        raise UsageError(error)
    return (config.family,)


def cmd_sweep(config: argparse.Namespace) -> int:
    """verify and audit: one report per (n, k, family); 1 if any fails."""
    selector = config.theorem or config.audit
    kind = "verify" if config.theorem else selector
    extra = (selector, config.variant, config.generator_step) \
        if config.theorem else ()
    families = _families(config, selector)
    tasks = [(kind, f, n, k) + extra for n in config.n_values
             for k in config.k_values for f in families]
    _check_out(config.out)
    reports = _run_all(tasks, config.workers)
    all_pass = all(r["pass"] for r in reports)
    payload = {"command": config.command, "reports": reports,
               "theorem" if config.theorem else "selector": selector,
               "all_pass": all_pass}
    _emit(config, payload, partial(_csv, REPORTS[kind]),
          partial(_text, REPORTS[kind]))
    return 0 if all_pass or config.exploratory else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sievelab",
        description="Exact cyclic sieving verification for polygon "
                    "multidissections.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--family", choices=FAMILIES)
        p.add_argument("--n", type=int)
        p.add_argument("--n-range", metavar="LO:HI")
        p.add_argument("--k", type=int)
        p.add_argument("--k-range", metavar="LO:HI")
        p.add_argument("--variant", choices=("printed", "shifted"))
        p.add_argument("--generator-step", type=int, choices=(1, 2))
        p.add_argument("--format", dest="fmt",
                       choices=("json", "csv", "text"), default="json")
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--out")
        p.add_argument("--exploratory", action="store_true")
        p.add_argument("--limit", type=int)

    pe = sub.add_parser("enumerate", help="list multidissections")
    common(pe)

    pv = sub.add_parser("verify", help="check sieving statements")
    pv.add_argument("--theorem", choices=THEOREM_SELECTORS, required=True)
    common(pv)

    pa = sub.add_parser("audit", help="run algebra audits")
    pa.add_argument("selector", choices=AUDIT_SELECTORS)
    common(pa)

    return parser


def _config_from_args(args) -> argparse.Namespace:
    """`args`, checked, with the swept values and the selectors filled
    in."""
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must be >= 0")
    args.theorem = getattr(args, "theorem", None)
    args.audit = getattr(args, "selector", None)
    if args.generator_step is not None and not (
            args.theorem == "thm1.1-2"
            or (args.theorem == "orbit-poly" and args.family == "classicalBC")):
        raise UsageError("--generator-step applies to verify --theorem "
                         "thm1.1-2 and orbit-poly --family classicalBC only")
    if args.variant is not None and args.theorem != "thm1.1-2":
        raise UsageError("--variant applies to verify --theorem thm1.1-2 only")
    if args.limit is not None and args.command != "enumerate":
        raise UsageError("--limit applies to enumerate only")
    if args.exploratory and args.command == "enumerate":
        raise UsageError("--exploratory applies to verify and audit only")
    args.n_values = _parse_span(args.n, args.n_range, "n")
    args.k_values = _parse_span(args.k, args.k_range, "k")
    if args.workers < 1:
        raise UsageError("worker count must be >= 1")
    return args


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if config.command == "enumerate":
            return cmd_enumerate(config)
        return cmd_sweep(config)
    except (UsageError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
