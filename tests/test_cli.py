"""Command line interface: exit codes, output formats, determinism."""

import contextlib
import io
import json
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievelab import cli, clusterlab
from sievelab.cli import main
from sievelab.cspverify import (
    theorem_instance, theorem_rules, verify_folding_consistency,
)
from sievelab.polygons import FAMILIES, min_n


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as e:  # argparse rejects unknown flags or choices
        code = e.code
    out = capsys.readouterr().out
    return code, out


# --- enumerate ------------------------------------------------------------------

def test_enumerate_A_square(capsys):
    code, out = run(capsys, ["enumerate", "--family", "A", "--n", "4", "--k", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 6
    assert len(payload["items"]) == 6
    assert payload["truncated"] is False


def test_enumerate_digon(capsys):
    code, out = run(capsys, ["enumerate", "--family", "D", "--n", "1", "--k", "3"])
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_enumerate_hexagon_triangulations(capsys):
    code, out = run(capsys, ["enumerate", "--family", "classicalA",
                             "--n", "6", "--k", "3"])
    assert code == 0
    assert json.loads(out)["count"] == 14


def test_enumerate_limit(capsys):
    code, out = run(capsys, ["enumerate", "--family", "A", "--n", "5",
                             "--k", "2", "--limit", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["truncated"] is True
    assert len(payload["items"]) == 3
    assert payload["count"] > 3


def test_enumerate_rejects_negative_limit(capsys):
    code, out = run(capsys, ["enumerate", "--family", "A", "--n", "5",
                             "--k", "2", "--limit", "-2"])
    assert code == 2
    assert out == ""


def test_enumerate_text_format(capsys):
    code, out = run(capsys, ["enumerate", "--family", "A", "--n", "4",
                             "--k", "1", "--format", "text"])
    assert code == 0
    assert "6" in out


def test_enumerate_csv_format(capsys):
    code, out = run(capsys, ["enumerate", "--family", "A", "--n", "4",
                             "--k", "1", "--format", "csv"])
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 7  # header plus six rows


# --- verify ---------------------------------------------------------------------

def test_verify_passing_theorem(capsys):
    code, out = run(capsys, ["verify", "--theorem", "thm2.5",
                             "--n", "4", "--k", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["reports"][0]["csp_holds"] is True


def test_verify_range_grid(capsys):
    code, out = run(capsys, ["verify", "--theorem", "thm3.4",
                             "--n-range", "2:3", "--k-range", "0:2"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["reports"]) == 6


def test_verify_failing_variant_exit_code(capsys):
    code, out = run(capsys, ["verify", "--theorem", "thm1.1-2",
                             "--n", "2", "--k", "1"])
    assert code == 1
    assert json.loads(out)["all_pass"] is False


def test_verify_exploratory_forces_success(capsys):
    code, out = run(capsys, ["verify", "--theorem", "thm1.1-2",
                             "--n", "2", "--k", "1", "--exploratory"])
    assert code == 0
    assert json.loads(out)["all_pass"] is False


def test_verify_shifted_variant_passes(capsys):
    code, out = run(capsys, ["verify", "--theorem", "thm1.1-2",
                             "--n", "2", "--k", "1", "--variant", "shifted"])
    assert code == 0


def test_verify_orbit_poly_needs_family(capsys):
    code, _ = run(capsys, ["verify", "--theorem", "orbit-poly",
                           "--n", "3", "--k", "1"])
    assert code == 2
    code, out = run(capsys, ["verify", "--theorem", "orbit-poly",
                             "--family", "C", "--n", "3", "--k", "1"])
    assert code == 0


def test_verify_family_rejected_for_fixed_theorems(capsys):
    code, _ = run(capsys, ["verify", "--theorem", "thm2.5", "--family", "C",
                           "--n", "4", "--k", "1"])
    assert code == 2


def test_verify_csv(capsys):
    code, out = run(capsys, ["verify", "--theorem", "thm2.5",
                             "--n", "4", "--k", "1", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,n,k,variant,group_order,label")
    assert len(lines) == 5


def test_verify_text(capsys):
    code, out = run(capsys, ["verify", "--theorem", "thm2.5",
                             "--n", "4", "--k", "1", "--format", "text"])
    assert code == 0
    assert "csp_holds=True" in out


# --- audit -----------------------------------------------------------------------

def test_audit_basis_A(capsys):
    code, out = run(capsys, ["audit", "basis-A", "--n", "4", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    rep = payload["reports"][0]
    assert rep["count"] == 20 and rep["rank"] == 20


def test_audit_conjecture_D(capsys):
    code, out = run(capsys, ["audit", "conjecture-D", "--n", "2", "--k", "2"])
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["count"] == 10 and rep["rank"] == 11
    assert "evidence" in rep["note"]


def test_audit_equivariance_requires_family(capsys):
    code, _ = run(capsys, ["audit", "equivariance", "--n", "3", "--k", "1"])
    assert code == 2
    code, out = run(capsys, ["audit", "equivariance", "--family", "D", "--n", "3", "--k", "1"])
    assert code == 0
    assert json.loads(out)["reports"][0]["mode"] == "mod_J"


def test_audit_basis_rejects_family_flag(capsys):
    code, _ = run(capsys, ["audit", "basis-A", "--family", "A", "--n", "4", "--k", "1"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["basis-C", "--family", "C", "--n", "3", "--k", "1"],
    ["conjecture-D", "--family", "D", "--n", "3", "--k", "1"],
    ["folding", "--family", "D", "--n", "3", "--k", "1"],
    # the character audits cover families A and D only
    ["characters", "--family", "C", "--n", "3", "--k", "1"],
], ids=["basis-C", "conjecture-D", "folding", "characters-C"])
def test_audit_rejects_family_where_unread(capsys, argv):
    # an argparse usage error, before any audit runs
    with pytest.raises(SystemExit) as stop:
        main(["audit"] + argv)
    captured = capsys.readouterr()
    assert (stop.value.code, captured.out) == (2, "")
    assert "--family" in captured.err


def test_only_equivariance_and_characters_declare_family():
    # argparse and the REPORTS rows agree on which audits take --family
    declared = {s for s in cli.AUDIT_SELECTORS
                if cli.REPORTS[s].family_option}
    parsed = set()
    for selector in cli.AUDIT_SELECTORS:
        try:
            cli._build_parser().parse_args(
                ["audit", selector, "--family", "A", "--n", "4", "--k", "1"])
        except SystemExit:
            continue
        parsed.add(selector)
    assert declared == parsed == {"equivariance", "characters"}


def test_audit_characters(capsys):
    code, out = run(capsys, ["audit", "characters", "--n", "3", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    families = {r["family"] for r in payload["reports"]}
    assert families == {"A", "D"}
    assert payload["all_pass"] is True


def test_audit_characters_lists_no_objects(capsys, monkeypatch):
    # the character sums are taken without listing a single object
    import sievelab.polygons as polygons

    def fail(*args):
        raise AssertionError("the character audit listed objects")

    for module in (cli, clusterlab, polygons):
        for name in ("enumerate_multidissections",
                     "lemma_basis_multidissections",
                     "iter_weighted_assignments"):
            monkeypatch.setattr(module, name, fail, raising=False)
    code, out = run(capsys, ["audit", "characters", "--n", "6", "--k", "3"])
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_audit_characters_beyond_twelve_primes(capsys):
    # the primes probe needs n values, the first n primes
    code, out = run(capsys, ["audit", "characters", "--n", "13", "--k", "1"])
    assert code == 0
    payload = json.loads(out)
    assert {r["family"] for r in payload["reports"]} == {"A", "D"}
    want = ["2", "3", "5", "7", "11", "13", "17", "19", "23", "29", "31",
            "37", "41"]
    for rep in payload["reports"]:
        primes = [p for p in rep["points"] if p["point"] == "primes"][0]
        assert primes["y"] == want
    assert payload["all_pass"] is True


def test_audit_characters_D_below_its_least_n(capsys):
    code = main(["audit", "characters", "--family", "D", "--n", "0",
                 "--k", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: family D needs n >= 1\n"


def test_audit_folding(capsys):
    code, out = run(capsys, ["audit", "folding", "--n", "3", "--k", "2"])
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["pass"] is True
    assert [e["d"] for e in rep["entries"]] == [1, 2, 3, 6]


# Audit output in csv and text, for every selector.  The files under
# tests/golden/ were recorded before the renderers were refactored and
# must not be regenerated from the code they check.
GOLDEN = Path(__file__).parent / "golden"
AUDIT_GOLDEN_CASES = [
    ("basis-A", ["basis-A", "--n-range", "3:4", "--k-range", "1:2"]),
    ("basis-C", ["basis-C", "--n-range", "2:3", "--k-range", "1:2"]),
    ("conjecture-D", ["conjecture-D", "--n-range", "2:3", "--k-range", "1:2"]),
    ("equivariance-A", ["equivariance", "--family", "A", "--n", "4",
                        "--k-range", "1:2"]),
    ("equivariance-D", ["equivariance", "--family", "D", "--n", "3", "--k", "2"]),
    ("equivariance-classicalBC", ["equivariance", "--family", "classicalBC",
                                  "--n", "3", "--k", "2"]),
    ("characters", ["characters", "--n", "3", "--k-range", "1:2"]),
    ("folding", ["folding", "--n-range", "2:3", "--k-range", "1:2"]),
]


@pytest.mark.parametrize("fmt,ext", [("csv", "csv"), ("text", "txt")])
@pytest.mark.parametrize("name,args", AUDIT_GOLDEN_CASES,
                         ids=[name for name, _ in AUDIT_GOLDEN_CASES])
def test_audit_output_matches_golden(capsys, name, args, fmt, ext):
    code, out = run(capsys, ["audit"] + args + ["--format", fmt])
    assert code == 0
    assert out == (GOLDEN / ("audit-%s.%s" % (name, ext))).read_text()


# --- usage errors -------------------------------------------------------------------

def test_unknown_theorem(capsys):
    code, _ = run(capsys, ["verify", "--theorem", "thm9.9", "--n", "3", "--k", "1"])
    assert code == 2


def test_missing_required_n(capsys):
    code, _ = run(capsys, ["verify", "--theorem", "thm2.5", "--k", "1"])
    assert code == 2


def test_conflicting_n_and_range(capsys):
    code, _ = run(capsys, ["verify", "--theorem", "thm2.5", "--n", "3",
                           "--n-range", "3:4", "--k", "1"])
    assert code == 2


def test_bad_range_syntax(capsys):
    code, _ = run(capsys, ["verify", "--theorem", "thm2.5",
                           "--n-range", "4-6", "--k", "1"])
    assert code == 2


def _selector_argv(selector):
    """A sweep of one verify theorem or audit selector at n = 4, with
    --family where the selector needs it."""
    command = (["verify", "--theorem", selector]
               if selector in cli.THEOREM_SELECTORS else ["audit", selector])
    family = ["--family", "A"] if selector in ("orbit-poly", "equivariance") \
        else []
    return command + family + ["--n", "4"]


@pytest.mark.parametrize("selector",
                         cli.THEOREM_SELECTORS + cli.AUDIT_SELECTORS)
def test_negative_edge_count_is_a_usage_error(capsys, selector):
    code = main(_selector_argv(selector) + ["--k", "-1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: edge count must be >= 0\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--family", "classicalBC", "--n", "3", "--k", "1"],
    ["verify", "--theorem", "thm2.5", "--n", "4", "--k", "1"],
    ["verify", "--theorem", "thm1.1-3", "--n", "3", "--k", "1"],
    ["verify", "--theorem", "orbit-poly", "--family", "C", "--n", "3", "--k", "1"],
    ["audit", "basis-A", "--n", "3", "--k", "1"],
    ["audit", "equivariance", "--family", "classicalBC", "--n", "3", "--k", "2"],
    ["verify", "--theorem", "thm2.5", "--n", "4", "--k", "1", "--exploratory"],
])
def test_generator_step_rejected_where_unread(capsys, argv):
    code, out = run(capsys, argv + ["--generator-step", "1"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "thm1.1-2", "--variant", "shifted"],
    ["verify", "--theorem", "orbit-poly", "--family", "classicalBC"],
])
def test_generator_step_accepted_for_classicalBC(capsys, argv):
    for step in ("1", "2"):
        code, out = run(capsys, argv + ["--n", "3", "--k", "1",
                                        "--generator-step", step])
        assert code in (0, 1)
        assert json.loads(out)["reports"][0]["family"] == "classicalBC"


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "thm2.5", "--n", "4", "--k", "1"],
    ["verify", "--theorem", "thm1.1-1", "--n", "5", "--k", "1"],
    ["verify", "--theorem", "orbit-poly", "--family", "classicalBC",
     "--n", "3", "--k", "1"],
    ["enumerate", "--family", "A", "--n", "4", "--k", "1"],
    ["audit", "basis-A", "--n", "3", "--k", "1"],
    ["verify", "--theorem", "thm2.5", "--n", "4", "--k", "1", "--exploratory"],
])
@pytest.mark.parametrize("variant", ["printed", "shifted"])
def test_variant_rejected_where_unread(capsys, argv, variant):
    code, out = run(capsys, argv + ["--variant", variant])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "thm2.5", "--n", "4", "--k", "1"],
    ["audit", "basis-A", "--n", "3", "--k", "1"],
    ["audit", "folding", "--n", "3", "--k", "1"],
])
def test_limit_rejected_where_unread(capsys, argv):
    code, out = run(capsys, argv + ["--limit", "3"])
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    # the ranges that enumerate does not declare, next to a valid --n
    ["enumerate", "--family", "A", "--n", "4", "--k", "1", "--n-range", "3:4"],
    ["enumerate", "--family", "A", "--n", "4", "--k", "1", "--k-range", "1:2"],
    # a declared option with a value the family does not take
    ["verify", "--theorem", "orbit-poly", "--family", "classicalBC",
     "--n", "3", "--k", "1", "--generator-step", "3"],
])
def test_option_rejected_where_unread(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 2
    assert out == ""


def test_exploratory_rejected_for_enumerate(capsys):
    code, out = run(capsys, ["enumerate", "--family", "A", "--n", "4",
                             "--k", "1", "--exploratory"])
    assert code == 2
    assert out == ""


def test_variant_defaults_to_printed_for_thm11_2(capsys):
    # no --variant and --variant printed give the same report
    _, plain = run(capsys, ["verify", "--theorem", "thm1.1-2",
                            "--n", "3", "--k", "1"])
    _, printed = run(capsys, ["verify", "--theorem", "thm1.1-2",
                              "--n", "3", "--k", "1", "--variant", "printed"])
    assert plain == printed
    assert json.loads(plain)["reports"][0]["variant"] == "printed"


def test_enumerate_rejects_ranges(capsys):
    code, _ = run(capsys, ["enumerate", "--family", "A",
                           "--n-range", "3:4", "--k", "1"])
    assert code == 2


def test_failed_invariant_exit_code(capsys, monkeypatch):
    # a failed internal invariant is not a usage error
    def broken(n, k):
        raise ArithmeticError("non-exact division: nonzero remainder")

    monkeypatch.setattr(cli, "check_basis_A", broken)
    assert main(["audit", "basis-A", "--n", "4", "--k", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-exact division" in captured.err


def test_exponent_overflow_exit_code(capsys):
    # a diameter of multiplicity 128 needs x_{a1}^128, one past the
    # largest exponent a packed monomial holds
    assert main(["audit", "basis-C", "--n", "2", "--k", "128"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exponent exceeds 127" in captured.err


# --- determinism ----------------------------------------------------------------------

def test_output_identical_across_worker_counts(tmp_path, capsys):
    args = ["verify", "--theorem", "thm2.5", "--n-range", "3:5",
            "--k-range", "0:2"]
    f1 = tmp_path / "w1.json"
    f2 = tmp_path / "w4.json"
    assert main(args + ["--workers", "1", "--out", str(f1)]) == 0
    assert main(args + ["--workers", "4", "--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_worker_count_comes_from_the_flag_only(tmp_path, capsys, monkeypatch):
    # no environment variable sets or checks the worker count
    args = ["audit", "basis-A", "--n-range", "3:4", "--k", "1"]
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    assert main(args + ["--out", str(f1)]) == 0
    monkeypatch.setenv("SIEVE_LAB_WORKERS", "x")
    assert main(args + ["--out", str(f2)]) == 0
    assert capsys.readouterr().err == ""
    assert f1.read_bytes() == f2.read_bytes()
    assert main(args + ["--workers", "0"]) == 2
    assert capsys.readouterr().err == "error: worker count must be >= 1\n"


def _must_not_run(*args):
    raise AssertionError("ran before --out was checked")


@pytest.mark.parametrize("target", ["", "missing/r.json", "plain/r.json"])
def test_unwritable_out_is_usage_error(monkeypatch, tmp_path, capsys, target):
    # a directory, a file in a directory that does not exist, or a file
    # under a plain file; the path is checked before any work runs, with
    # the reason that writing it gives
    (tmp_path / "plain").write_text("")
    monkeypatch.setattr(cli, "_run_all", _must_not_run)
    monkeypatch.setattr(cli, "enumerate_multidissections", _must_not_run)
    out = str(tmp_path / target)
    with pytest.raises(OSError) as write_error:
        open(out, "w")
    for argv in (["verify", "--theorem", "thm2.5", "--n", "4", "--k", "1"],
                 ["enumerate", "--family", "C", "--n", "2", "--k", "1"]):
        code = main(argv + ["--out", out])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: cannot write %s: %s\n" % (
            out, write_error.value.strerror)


def test_out_write_error_is_usage_error(monkeypatch, tmp_path, capsys):
    # a path that passes the early check but fails when written
    monkeypatch.setattr(cli, "_check_out", lambda path: None)
    code = main(["enumerate", "--family", "C", "--n", "2", "--k", "1",
                 "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: cannot write %s: Is a directory\n" % tmp_path


def _must_not_start(*args):
    raise AssertionError("tasks ran before the theorem's rules were checked")


@pytest.mark.parametrize("selector, options, rule", [
    ("thm2.5", ["--family", "C"], {"family": "C"}),
    ("thm2.5", ["--variant", "shifted"], {"variant": "shifted"}),
    ("orbit-poly", ["--family", "A", "--generator-step", "1"],
     {"family": "A", "generator_step": 1}),
    ("orbit-poly", [], {}),
], ids=["thm2.5-family", "thm2.5-variant", "orbit-poly-step",
        "orbit-poly-no-family"])
def test_verify_rules_checked_before_any_task(monkeypatch, capsys, selector,
                                              options, rule):
    # a rejected combination exits 2 with the library's message, and no
    # task (nor the pool of --workers 2) is started
    with pytest.raises(ValueError) as library:
        theorem_instance(selector, 4, 1, **rule)
    monkeypatch.setattr(cli, "_run_all", _must_not_start)
    code = main(["verify", "--theorem", selector, "--n-range", "4:6",
                 "--k", "1", "--workers", "2"] + options)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: %s\n" % library.value


def _no_pool(*args, **kwargs):
    # stands in for multiprocessing.Pool, so it raises before any Pool
    # object exists: a half-built Pool would raise again in its __del__
    raise AssertionError("a pool started before every n and k was checked")


@pytest.mark.parametrize("options, message", [
    (["thm2.5", "--n-range", "2:4", "--k", "1"], "family A needs n >= 3"),
    (["thm3.4", "--n-range", "2:4", "--k-range=-1:1"],
     "edge count must be >= 0"),
    (["orbit-poly", "--family", "D", "--n-range", "0:2", "--k", "1"],
     "family D needs n >= 1"),
    # both wrong: the size is checked first, for every selector
    (["thm1.1-1", "--n", "2", "--k", "-1"], "family classicalA needs n >= 3"),
    (["thm1.1-2", "--n", "1", "--k", "-1"], "family classicalBC needs n >= 2"),
    (["orbit-poly", "--family", "A", "--n", "2", "--k", "-1"],
     "family A needs n >= 3"),
], ids=["thm2.5-n", "thm3.4-k", "orbit-poly-n", "thm1.1-1-both",
        "thm1.1-2-both", "orbit-poly-both"])
def test_verify_sizes_checked_before_any_pool(monkeypatch, capsys, options,
                                              message):
    # every n and k of the sweep is checked before --workers 2 starts a pool
    import multiprocessing

    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    code = main(["verify", "--theorem"] + options + ["--workers", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("options, library, message", [
    (["basis-A", "--n-range", "2:4", "--k", "1"],
     lambda: clusterlab.check_basis_A(2, 1), "family A needs n >= 3"),
    (["equivariance", "--family", "A", "--n-range", "2:4", "--k", "1"],
     lambda: clusterlab.verify_equivariance("A", 2, 1),
     "family A needs n >= 3"),
    (["folding", "--n-range", "0:2", "--k", "1"],
     lambda: verify_folding_consistency(0, 1), "family C needs n >= 2"),
    (["basis-C", "--n", "3", "--k-range=-1:1"],
     lambda: clusterlab.check_basis_C(3, -1), "edge count must be >= 0"),
    (["characters", "--n-range", "2:4", "--k", "1"],
     lambda: cli._character_report("A", 2, 1), "family A needs n >= 3"),
], ids=["basis-A-n", "equivariance-n", "folding-n", "basis-C-k",
        "characters-n"])
def test_audit_sizes_checked_before_any_pool(monkeypatch, capsys, options,
                                             library, message):
    # every n and k of an audit sweep is checked against the family it
    # reads before --workers 2 starts a pool, with the library's message
    import multiprocessing

    with pytest.raises(ValueError, match="^%s$" % message):
        library()
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    code = main(["audit"] + options + ["--workers", "2"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: %s\n" % message


def test_every_audit_names_the_family_its_n_must_fit():
    # an audit takes --family, or its row names the one family it reads
    for selector in cli.AUDIT_SELECTORS:
        row = cli.REPORTS[selector]
        assert (row.family_option is None) != (row.family is None), selector
        assert row.family in FAMILIES + (None,)
    assert cli.REPORTS["verify"].family is None


def _sweep_argv(selector, data):
    """A verify or audit sweep of `selector` with --family where it takes
    one, whose n and k ranges start one below, at or one above their
    least values."""
    verifying = selector in cli.THEOREM_SELECTORS
    argv = ["verify", "--theorem", selector] if verifying \
        else ["audit", selector]
    row = None if verifying else cli.REPORTS[selector]
    if verifying and selector != "orbit-poly":
        family = theorem_rules(selector)[0]
    elif row is not None and row.family:
        family = row.family
    else:
        choices = row.family_option["choices"] if row else FAMILIES
        family = data.draw(st.sampled_from(choices))
        if row is None or row.family_option.get("required") \
                or data.draw(st.booleans()):
            argv += ["--family", family]
    n = min_n(family) + data.draw(st.integers(-1, 1))
    k = data.draw(st.integers(-1, 1))
    return argv + ["--n-range=%d:%d" % (n, n + data.draw(st.integers(0, 1))),
                   "--k-range=%d:%d" % (k, k + data.draw(st.integers(0, 1)))]


def _main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("selector",
                         cli.THEOREM_SELECTORS + cli.AUDIT_SELECTORS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_pooled_sweep_fails_as_a_serial_one_does(selector, data):
    # the same exit code, output and message for any worker count, and no
    # pool before a size or edge-count error; only conjecture-D's own
    # n >= 2 rule is found inside a task
    import multiprocessing.pool

    argv = _sweep_argv(selector, data)
    serial = _main_captured(argv + ["--workers", "1"])
    started = []
    real_init = multiprocessing.pool.Pool.__init__

    def spy(self, *args, **kwargs):
        started.append(argv)
        real_init(self, *args, **kwargs)

    with mock.patch.object(multiprocessing.pool.Pool, "__init__", spy):
        pooled = _main_captured(argv + ["--workers", "2"])
    assert pooled == serial
    if serial[0] == 2 and started:
        assert serial[2] == "error: the audit needs n >= 2\n"


def test_pooled_sweep_stops_at_its_first_failing_task(monkeypatch, capsys):
    # the second task fails while the tasks after it would block for 30 s;
    # patched before the pool forks, so the workers run the patch
    real = clusterlab.check_basis_A

    def check(n, k):
        if n == 4:
            raise ArithmeticError("the second task fails")
        if n > 4:
            time.sleep(30)
        return real(n, k)

    monkeypatch.setattr(cli, "check_basis_A", check)
    start = time.perf_counter()
    code = main(["audit", "basis-A", "--n-range", "3:6", "--k", "1",
                 "--workers", "2"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "internal error: the second task fails\n"
    assert elapsed < 10


def test_out_check_neither_creates_nor_truncates(monkeypatch, tmp_path):
    def work(*args):
        raise RuntimeError("the work fails")

    monkeypatch.setattr(cli, "_run_all", work)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text("kept")
    for out in (old, new):
        assert main(["verify", "--theorem", "thm2.5", "--n", "4", "--k", "1",
                     "--out", str(out)]) == 3
    assert old.read_text() == "kept"
    assert not new.exists()


@pytest.mark.parametrize("error", [RuntimeError, MemoryError])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_crash_is_an_internal_error(monkeypatch, error, workers):
    # exit 1 means a check failed, so an exception that is neither a
    # usage error nor a failed invariant exits 3, with its traceback;
    # patched before the pool forks, so the workers run the patch
    def check(n, k):
        raise error("the task crashed")

    monkeypatch.setattr(cli, "check_basis_A", check)
    code, out, err = _main_captured(["audit", "basis-A", "--n-range", "3:4",
                                     "--k", "1", "--workers", workers])
    assert (code, out) == (3, "")
    # under a pool, the task's traceback is printed as the cause of the
    # traceback in the parent process
    assert "Traceback (most recent call last):\n" in err
    assert err.endswith("internal error: %s: the task crashed\n"
                        % error.__name__)


def test_out_file_contains_json(tmp_path, capsys):
    f = tmp_path / "r.json"
    assert main(["enumerate", "--family", "C", "--n", "2", "--k", "1",
                 "--out", str(f)]) == 0
    capsys.readouterr()
    assert json.loads(f.read_text())["count"] == 4


# verify and enumerate output in csv and text: a failing sweep with
# MISMATCH lines, an orbit-poly report with an empty variant cell, and a
# truncated listing.  Recorded before the renderers were merged.
OTHER_GOLDEN_CASES = [
    ("verify-thm1.1-2", ["verify", "--theorem", "thm1.1-2", "--n-range", "2:3",
                         "--k-range", "1:2"], 1),
    ("verify-orbit-poly-classicalBC", ["verify", "--theorem", "orbit-poly",
                                       "--family", "classicalBC", "--n", "3",
                                       "--k", "1", "--generator-step", "1"], 0),
    ("enumerate-D-limit", ["enumerate", "--family", "D", "--n", "2", "--k", "2",
                           "--limit", "3"], 0),
]


@pytest.mark.parametrize("fmt,ext", [("csv", "csv"), ("text", "txt")])
@pytest.mark.parametrize("name,args,exit_code", OTHER_GOLDEN_CASES,
                         ids=[name for name, _, _ in OTHER_GOLDEN_CASES])
def test_output_matches_golden(capsys, name, args, exit_code, fmt, ext):
    code, out = run(capsys, args + ["--format", fmt])
    assert code == exit_code
    assert out == (GOLDEN / ("%s.%s" % (name, ext))).read_text()


def test_failing_folding_and_equivariance_output(capsys, monkeypatch):
    # no real input makes these audits fail, so feed canned failing reports
    from sievelab.clusterlab import EquivarianceReport
    from sievelab.cspverify import FoldingEntry, FoldingReport
    from sievelab.polygons import enumerate_multidissections

    def folding(n, k):
        return FoldingReport(n, k, (FoldingEntry(1, "odd", 3, 3, True),
                                    FoldingEntry(2, "even", 5, 4, False, 1, 1)))

    def equivariance(family, n, k):
        mds = enumerate_multidissections(family, n, k)
        return EquivarianceReport(family, n, k, "exact", len(mds),
                                  tuple(mds[:2]), False)

    monkeypatch.setattr(cli, "verify_folding_consistency", folding)
    monkeypatch.setattr(cli, "verify_equivariance", equivariance)
    cases = [
        (["folding", "--n", "2", "--k", "1"], "csv",
         "n,k,d,parity,fixed,expected,pass\n"
         "2,1,1,odd,3,3,True\n"
         "2,1,2,even,5,4,False\n"),
        (["folding", "--n", "2", "--k", "1"], "text",
         "folding n=2 k=1 pass=False\n"
         "  d=2 even fixed=5 expected=4 MISMATCH\n"),
        (["equivariance", "--family", "A", "--n", "4", "--k", "1"], "csv",
         "family,n,k,mode,total,failures,pass\n"
         "A,4,1,exact,6,2,False\n"),
        (["equivariance", "--family", "A", "--n", "4", "--k", "1"], "text",
         "equivariance family=A n=4 k=1 mode=exact total=6 pass=False\n"),
    ]
    for args, fmt, want in cases:
        code, out = run(capsys, ["audit"] + args + ["--format", fmt])
        assert (code, out) == (1, want)
