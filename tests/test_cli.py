"""Command line interface: exit codes, output formats, determinism."""

import json
from pathlib import Path

import pytest

from sievelab import cli
from sievelab.cli import main


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


def test_audit_characters(capsys):
    code, out = run(capsys, ["audit", "characters", "--n", "3", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    families = {r["family"] for r in payload["reports"]}
    assert families == {"A", "D"}
    assert payload["all_pass"] is True


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


@pytest.mark.parametrize("argv", [
    ["enumerate", "--family", "classicalBC", "--n", "3", "--k", "1"],
    ["verify", "--theorem", "thm2.5", "--n", "4", "--k", "1"],
    ["verify", "--theorem", "thm1.1-3", "--n", "3", "--k", "1"],
    ["verify", "--theorem", "orbit-poly", "--family", "C", "--n", "3", "--k", "1"],
    ["audit", "basis-A", "--n", "3", "--k", "1"],
    ["audit", "equivariance", "--family", "classicalBC", "--n", "3", "--k", "2"],
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


def test_worker_env_override(tmp_path, capsys, monkeypatch):
    args = ["audit", "basis-A", "--n-range", "3:4", "--k", "1"]
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    assert main(args + ["--out", str(f1)]) == 0
    monkeypatch.setenv("SIEVE_LAB_WORKERS", "3")
    assert main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("target", ["", "missing/r.json"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, target):
    # a directory, or a file in a directory that does not exist
    out = str(tmp_path / target)
    code = main(["verify", "--theorem", "thm2.5", "--n", "4", "--k", "1",
                 "--out", out])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: cannot write %s: " % out)


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
