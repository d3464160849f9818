"""Command-line front end: enumeration listings, sieving verification
batches, and algebra audits with JSON / CSV / text reports.

Exit codes: 0 all requested checks hold (or --exploratory), 1 at least
one check failed, 2 usage or configuration error, 3 an internal error: a
failed internal invariant (an ArithmeticError, such as a non-exact
division or an orbit size that does not divide the group order), or any
other exception, whose traceback goes to stderr.
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
    THEOREM_SELECTORS, VARIANTS, theorem_instance, theorem_rules, verify,
    verify_folding_consistency,
)
from .polygons import (
    FAMILIES, check_size, edge_count, enumerate_multidissections, family_rules,
)
from .qseries import IntLaurentPoly
from .symfunc import ones_point, principal_point


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
    `line % report`, then `mismatch % item` per failing item.  An audit
    declares `--family` with the keyword arguments `family_option`, or
    not at all where that is None; left out, it sweeps the choices.  An
    audit without `--family` reads the one `family` its n must fit."""
    run: Callable[..., dict]
    columns: tuple[str, ...]
    line: str
    entries: str | None = None
    entry_columns: tuple[str, ...] = ()
    mismatch: str | None = None
    family_option: dict | None = None
    family: str | None = None


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
                      _BASIS_COLUMNS, "basis-A" + _BASIS_LINE, family="A"),
    "basis-C": Report(lambda family, n, k: check_basis_C(n, k).to_json_dict(),
                      _BASIS_COLUMNS, "basis-C" + _BASIS_LINE, family="C"),
    "conjecture-D": Report(
        lambda family, n, k: check_conjecture_D(n, k).to_json_dict(),
        ("n", "k", "count", "rank", "expected_dim", "lemma_count",
         "independent_mod_J", "spans", "pass"),
        "conjecture-D n=%(n)d k=%(k)d count=%(count)d rank=%(rank)d"
        " expected=%(expected_dim)d independent=%(independent_mod_J)s"
        " spans=%(spans)s pass=%(pass)s  (%(note)s)", family="D"),
    "equivariance": Report(
        lambda family, n, k: verify_equivariance(family, n, k).to_json_dict(),
        ("family", "n", "k", "mode", "total", "failures", "pass"),
        "equivariance family=%(family)s n=%(n)d k=%(k)d mode=%(mode)s"
        " total=%(total)d pass=%(pass)s",
        family_option={"choices": FAMILIES, "required": True}),
    "characters": Report(
        _character_report, ("family", "n", "k"),
        "characters family=%(family)s n=%(n)d k=%(k)d pass=%(pass)s",
        "points", ("point", "pass"), family_option={"choices": ("A", "D")}),
    "folding": Report(
        lambda family, n, k: verify_folding_consistency(n, k).to_json_dict(),
        ("n", "k"), "folding n=%(n)d k=%(k)d pass=%(pass)s",
        "entries", ("d", "parity", "fixed", "expected", "pass"),
        "  d=%(d)d %(parity)s fixed=%(fixed)d expected=%(expected)d MISMATCH",
        family="C"),
}
AUDIT_SELECTORS = tuple(kind for kind in REPORTS if kind != "verify")


def _run_task(task: tuple) -> dict:
    return REPORTS[task[0]].run(*task[1:])


def _run_all(tasks: list[tuple], workers: int) -> list[dict]:
    if workers == 1 or len(tasks) <= 1:
        return [_run_task(t) for t in tasks]
    # imported here: a run that starts no pool never loads multiprocessing
    from multiprocessing import Pool
    # in order, so the first failing task ends the sweep without waiting
    with Pool(processes=min(workers, len(tasks))) as pool:
        return list(pool.imap(_run_task, tasks))


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
    raise ValueError("cannot write %s: %s" % (path, os.strerror(code)))


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
        raise ValueError("cannot write %s: %s" % (config.out, exc.strerror))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_enumerate(config: argparse.Namespace) -> int:
    if config.limit is not None and config.limit < 0:
        raise ValueError("--limit must be >= 0")
    _check_out(config.out)
    mds = enumerate_multidissections(config.family, config.n, config.k)
    shown = mds if config.limit is None else mds[:config.limit]
    payload = {
        "command": "enumerate",
        "family": config.family,
        "n": config.n,
        "k": config.k,
        "count": len(mds),
        "truncated": len(shown) < len(mds),
        "items": [m.to_json_dict() for m in shown],
    }
    _emit(config, payload, _csv_enumerate, _text_enumerate)
    return 0


def cmd_sweep(config: argparse.Namespace) -> int:
    """verify and audit: one report per (n, k, family); 1 if any fails."""
    verifying = config.command == "verify"
    kind = "verify" if verifying else config.selector
    extra = (config.selector, config.variant, config.generator_step) \
        if verifying else ()
    ns, ks = config.n_range or (config.n,), config.k_range or (config.k,)
    row = REPORTS[kind]
    families = (config.family,) if config.family \
        else (row.family_option or {}).get("choices", (row.family,))
    # theorem rules, each n per family read, each k, before any task
    for family in (theorem_rules(*extra, config.family)[0],) if verifying \
            else families:
        for n in ns:
            check_size(family, n)
    for k in ks:
        edge_count(k)
    tasks = [(kind, f, n, k) + extra for n in ns for k in ks for f in families]
    _check_out(config.out)
    reports = _run_all(tasks, config.workers)
    all_pass = all(r["pass"] for r in reports)
    payload = {"command": config.command, "reports": reports,
               "theorem" if verifying else "selector": config.selector,
               "all_pass": all_pass}
    _emit(config, payload, partial(_csv, row), partial(_text, row))
    return 0 if all_pass or config.exploratory else 1


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _span(text: str) -> tuple[int, ...]:
    """`LO:HI` as the ints from LO to HI, both included."""
    try:
        lo, hi = map(int, text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError("wants LO:HI with integer bounds")
    if hi < lo:
        raise argparse.ArgumentTypeError("%s is empty" % text)
    return tuple(range(lo, hi + 1))


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand declares the options it reads; argparse rejects the
    rest."""
    parser = argparse.ArgumentParser(
        prog="sievelab",
        description="Exact cyclic sieving verification for polygon "
                    "multidissections.")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p, run):
        p.add_argument("--format", dest="fmt",
                       choices=("json", "csv", "text"), default="json")
        p.add_argument("--out")
        p.add_argument("--workers", type=int, default=1)
        p.set_defaults(run=run)

    def sweep(p):
        p.set_defaults(family=None)  # where --family is not declared
        for name in ("n", "k"):
            span = p.add_mutually_exclusive_group(required=True)
            span.add_argument("--" + name, type=int)
            span.add_argument("--%s-range" % name, type=_span, metavar="LO:HI")
        output(p, cmd_sweep)
        p.add_argument("--exploratory", action="store_true")
        return p

    pe = sub.add_parser("enumerate", help="list multidissections")
    pe.add_argument("--family", choices=FAMILIES, required=True)
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--k", type=int, required=True)
    pe.add_argument("--limit", type=int)
    output(pe, cmd_enumerate)  # --workers is accepted here, and unread

    pv = sub.add_parser("verify", help="check sieving statements")
    pv.add_argument("--theorem", dest="selector", choices=THEOREM_SELECTORS,
                    required=True)
    pv.add_argument("--variant", choices=VARIANTS)
    pv.add_argument("--generator-step", type=int)
    pv.add_argument("--family", choices=FAMILIES)
    sweep(pv)

    pa = sub.add_parser("audit", help="run algebra audits")
    audits = pa.add_subparsers(dest="selector", required=True)
    # built once; each audit's parser copies it, cheaper than six builds
    shared = sweep(argparse.ArgumentParser(add_help=False))
    for selector in AUDIT_SELECTORS:
        p = audits.add_parser(selector, parents=[shared])
        if REPORTS[selector].family_option:
            p.add_argument("--family", **REPORTS[selector].family_option)

    return parser


def main(argv=None) -> int:
    config = _build_parser().parse_args(argv)
    try:
        if config.workers < 1:
            raise ValueError("worker count must be >= 1")
        return config.run(config)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:
        # a crash is not a failed check; imported here, off the start-up path
        import traceback
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
