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
import io
import json
import os
import sys
from dataclasses import dataclass
from multiprocessing import Pool

from .clusterlab import (
    character_check_A, character_check_D, check_basis_A, check_basis_C,
    check_conjecture_D, verify_equivariance,
)
from .cspverify import (
    THEOREM_SELECTORS, theorem_instance, verify, verify_folding_consistency,
)
from .polygons import FAMILIES, enumerate_multidissections
from .qseries import IntLaurentPoly
from .symfunc import ones_point, principal_point

AUDIT_SELECTORS = ("basis-A", "basis-C", "conjecture-D", "equivariance",
                   "characters", "folding")

class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    family: str | None
    n_values: tuple[int, ...]
    k_values: tuple[int, ...]
    theorem: str | None
    audit: str | None
    variant: str | None
    generator_step: int | None
    fmt: str
    workers: int
    out: str | None
    exploratory: bool
    limit: int | None


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


def _resolve_workers(flag_value: int) -> int:
    env = os.environ.get("SIEVE_LAB_WORKERS")
    if env is not None:
        try:
            flag_value = int(env)
        except ValueError:
            raise UsageError("SIEVE_LAB_WORKERS must be an integer")
    if flag_value < 1:
        raise UsageError("worker count must be >= 1")
    return flag_value


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
    if family == "A":
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
        if family == "A":
            ok = character_check_A(n, k, y)
            entry = {"point": name, "y": [str(v) for v in y], "pass": ok}
        else:
            ok = character_check_D(n, k, y, z)
            entry = {"point": name, "y": [str(v) for v in y],
                     "z": [str(v) for v in z], "pass": ok}
        points.append(entry)
    return {"family": family, "n": n, "k": k, "points": points,
            "pass": all(p["pass"] for p in points)}


def _run_task(task: tuple) -> dict:
    kind = task[0]
    if kind == "verify":
        _, selector, family, n, k, variant, step = task
        instance = theorem_instance(selector, n, k, variant=variant,
                                    generator_step=step, family=family)
        report = verify(instance)
        out = report.to_json_dict()
        out["pass"] = report.csp_holds
        return out
    if kind == "basis-A":
        return check_basis_A(task[1], task[2]).to_json_dict()
    if kind == "basis-C":
        return check_basis_C(task[1], task[2]).to_json_dict()
    if kind == "conjecture-D":
        return check_conjecture_D(task[1], task[2]).to_json_dict()
    if kind == "equivariance":
        return verify_equivariance(task[1], task[2], task[3]).to_json_dict()
    if kind == "characters":
        return _character_report(task[1], task[2], task[3])
    if kind == "folding":
        rep = verify_folding_consistency(task[1], task[2]).to_json_dict()
        return rep
    raise ValueError("unknown task %r" % (kind,))


def _run_all(tasks: list[tuple], workers: int) -> list[dict]:
    if workers == 1 or len(tasks) <= 1:
        return [_run_task(t) for t in tasks]
    with Pool(processes=min(workers, len(tasks))) as pool:
        return pool.map(_run_task, tasks, chunksize=1)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _eval_cell(value) -> str:
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def _csv_verify(reports: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["family", "n", "k", "variant", "group_order", "label",
                "d", "fixed", "eval", "pass"])
    for r in reports:
        for c in r["checks"]:
            w.writerow([r["family"], r["n"], r["k"], r["variant"] or "",
                        r["group_order"], r["label"], c["d"], c["fixed"],
                        _eval_cell(c["eval"]), c["pass"]])
    return buf.getvalue()


def _csv_audit(selector: str, reports: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if selector == "folding":
        w.writerow(["n", "k", "d", "parity", "fixed", "expected", "pass"])
        for r in reports:
            for e in r["entries"]:
                w.writerow([r["n"], r["k"], e["d"], e["parity"], e["fixed"],
                            e["expected"], e["pass"]])
    elif selector == "characters":
        w.writerow(["family", "n", "k", "point", "pass"])
        for r in reports:
            for p in r["points"]:
                w.writerow([r["family"], r["n"], r["k"], p["point"], p["pass"]])
    elif selector == "equivariance":
        w.writerow(["family", "n", "k", "mode", "total", "failures", "pass"])
        for r in reports:
            w.writerow([r["family"], r["n"], r["k"], r["mode"], r["total"],
                        len(r["failures"]), r["pass"]])
    elif selector == "conjecture-D":
        w.writerow(["n", "k", "count", "rank", "expected_dim", "lemma_count",
                    "independent_mod_J", "spans", "pass"])
        for r in reports:
            w.writerow([r["n"], r["k"], r["count"], r["rank"],
                        r["expected_dim"], r["lemma_count"],
                        r["independent_mod_J"], r["spans"], r["pass"]])
    else:
        w.writerow(["family", "n", "k", "count", "rank", "expected_dim", "pass"])
        for r in reports:
            w.writerow([r["family"], r["n"], r["k"], r["count"], r["rank"],
                        r["expected_dim"], r["pass"]])
    return buf.getvalue()


def _csv_enumerate(payload: dict) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["family", "n", "k", "index", "multidissection"])
    for i, item in enumerate(payload["items"]):
        w.writerow([payload["family"], payload["n"], payload["k"], i,
                    json.dumps(item, sort_keys=True)])
    return buf.getvalue()


def _text_verify(reports: list[dict]) -> str:
    lines = []
    for r in reports:
        head = "%s family=%s n=%d k=%d" % (r["label"], r["family"], r["n"], r["k"])
        if r["variant"]:
            head += " variant=%s" % r["variant"]
        lines.append("%s group_order=%d csp_holds=%s"
                     % (head, r["group_order"], r["csp_holds"]))
        for c in r["checks"]:
            if not c["pass"]:
                lines.append("  d=%d fixed=%d eval=%s MISMATCH"
                             % (c["d"], c["fixed"], _eval_cell(c["eval"])))
    return "\n".join(lines) + "\n"


def _text_audit(selector: str, reports: list[dict]) -> str:
    lines = []
    for r in reports:
        if selector == "folding":
            lines.append("folding n=%d k=%d pass=%s" % (r["n"], r["k"], r["pass"]))
            for e in r["entries"]:
                if not e["pass"]:
                    lines.append("  d=%d %s fixed=%d expected=%d MISMATCH"
                                 % (e["d"], e["parity"], e["fixed"], e["expected"]))
        elif selector == "characters":
            lines.append("characters family=%s n=%d k=%d pass=%s"
                         % (r["family"], r["n"], r["k"], r["pass"]))
        elif selector == "equivariance":
            lines.append("equivariance family=%s n=%d k=%d mode=%s total=%d pass=%s"
                         % (r["family"], r["n"], r["k"], r["mode"], r["total"],
                            r["pass"]))
        elif selector == "conjecture-D":
            lines.append("conjecture-D n=%d k=%d count=%d rank=%d expected=%d "
                         "independent=%s spans=%s pass=%s  (%s)"
                         % (r["n"], r["k"], r["count"], r["rank"],
                            r["expected_dim"], r["independent_mod_J"],
                            r["spans"], r["pass"], r["note"]))
        else:
            lines.append("%s family=%s n=%d k=%d count=%d rank=%d expected=%d pass=%s"
                         % (selector, r["family"], r["n"], r["k"], r["count"],
                            r["rank"], r["expected_dim"], r["pass"]))
    return "\n".join(lines) + "\n"


def _text_enumerate(payload: dict) -> str:
    lines = ["%s n=%d k=%d count=%d%s"
             % (payload["family"], payload["n"], payload["k"], payload["count"],
                " (listing truncated)" if payload["truncated"] else "")]
    for item in payload["items"]:
        lines.append("  " + json.dumps(item, sort_keys=True))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(config: RunConfig, payload, reports) -> str:
    if config.fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.command == "enumerate":
        return _csv_enumerate(payload) if config.fmt == "csv" \
            else _text_enumerate(payload)
    if config.command == "verify":
        return _csv_verify(reports) if config.fmt == "csv" \
            else _text_verify(reports)
    return _csv_audit(config.audit, reports) if config.fmt == "csv" \
        else _text_audit(config.audit, reports)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_enumerate(config: RunConfig) -> int:
    if config.family is None:
        raise UsageError("enumerate needs --family")
    if len(config.n_values) != 1 or len(config.k_values) != 1:
        raise UsageError("enumerate works on a single --n and --k")
    n, k = config.n_values[0], config.k_values[0]
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
    _emit(_render(config, payload, None), config.out)
    return 0


def cmd_verify(config: RunConfig) -> int:
    if config.theorem is None:
        raise UsageError("verify needs --theorem")
    if config.theorem == "orbit-poly" and config.family is None:
        raise UsageError("orbit-poly needs --family")
    if config.theorem != "orbit-poly" and config.family is not None:
        raise UsageError("--family applies to orbit-poly only")
    tasks = [("verify", config.theorem, config.family, n, k, config.variant,
              config.generator_step)
             for n in config.n_values for k in config.k_values]
    reports = _run_all(tasks, config.workers)
    all_pass = all(r["csp_holds"] for r in reports)
    payload = {"command": "verify", "theorem": config.theorem,
               "reports": reports, "all_pass": all_pass}
    _emit(_render(config, payload, reports), config.out)
    if all_pass or config.exploratory:
        return 0
    return 1


_AUDIT_PASS_KEY = "pass"


def cmd_audit(config: RunConfig) -> int:
    selector = config.audit
    family = config.family
    if selector == "equivariance":
        if family is None:
            raise UsageError("audit equivariance needs --family")
        tasks = [("equivariance", family, n, k)
                 for n in config.n_values for k in config.k_values]
    elif selector == "characters":
        fams = [family] if family else ["A", "D"]
        if any(f not in ("A", "D") for f in fams):
            raise UsageError("character audits cover families A and D")
        tasks = [("characters", f, n, k)
                 for n in config.n_values for k in config.k_values for f in fams]
    elif selector in ("basis-A", "basis-C", "conjecture-D", "folding"):
        if family is not None:
            raise UsageError("audit %s does not take --family" % selector)
        tasks = [(selector, n, k)
                 for n in config.n_values for k in config.k_values]
    else:
        raise UsageError("unknown audit selector %r" % selector)
    reports = _run_all(tasks, config.workers)
    all_pass = all(r[_AUDIT_PASS_KEY] for r in reports)
    payload = {"command": "audit", "selector": selector,
               "reports": reports, "all_pass": all_pass}
    _emit(_render(config, payload, reports), config.out)
    if all_pass or config.exploratory:
        return 0
    return 1


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


def _config_from_args(args) -> RunConfig:
    if args.limit is not None and args.limit < 0:
        raise UsageError("--limit must be >= 0")
    theorem = getattr(args, "theorem", None)
    if args.generator_step is not None and not (
            theorem == "thm1.1-2"
            or (theorem == "orbit-poly" and args.family == "classicalBC")):
        raise UsageError("--generator-step applies to verify --theorem "
                         "thm1.1-2 and orbit-poly --family classicalBC only")
    if args.variant is not None and theorem != "thm1.1-2":
        raise UsageError("--variant applies to verify --theorem thm1.1-2 only")
    if args.limit is not None and args.command != "enumerate":
        raise UsageError("--limit applies to enumerate only")
    if args.exploratory and args.command == "enumerate":
        raise UsageError("--exploratory applies to verify and audit only")
    return RunConfig(
        command=args.command,
        family=args.family,
        n_values=_parse_span(args.n, args.n_range, "n"),
        k_values=_parse_span(args.k, args.k_range, "k"),
        theorem=theorem,
        audit=getattr(args, "selector", None),
        variant=args.variant,
        generator_step=args.generator_step,
        fmt=args.fmt,
        workers=_resolve_workers(args.workers),
        out=args.out,
        exploratory=args.exploratory,
        limit=args.limit,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if config.command == "enumerate":
            return cmd_enumerate(config)
        if config.command == "verify":
            return cmd_verify(config)
        return cmd_audit(config)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
