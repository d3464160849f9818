"""The README's Python quick start runs and prints what its comments say,
and its CLI examples print what they show."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from sievelab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start():
    """The code of the Python block under "Quick start (Python)", and the
    prose between that block and the next heading."""
    text = README.read_text()
    section = text.split("## Quick start (Python)", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```(.*)", section, re.S)
    return match.group(1), match.group(2)


def expected_lines(code):
    """For every print line, the comment on that line or, failing that,
    the comment line right under it."""
    lines = code.splitlines()
    out = []
    for i, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        if "#" in line:
            out.append(line.split("#", 1)[1].strip())
        else:
            assert lines[i + 1].startswith("# "), line
            out.append(lines[i + 1][2:].strip())
    return out


def test_quick_start_prints_its_comments():
    code, _ = quick_start()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, str(README), "exec"), {})
    printed = buf.getvalue().splitlines()
    want = expected_lines(code)
    assert want and printed == want


def test_quick_start_prose_names_real_methods():
    code, prose = quick_start()
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, str(README), "exec"), namespace)
    names = re.findall(r"`\.(\w+)\(\)`", prose)
    assert names
    for name in names:
        assert callable(getattr(namespace["report"], name, None)), name


def cli_examples():
    """Every `$ sievelab ...` command in the README's CLI section, with
    the lines shown under it and the exit code a following `$ echo $?`
    shows (None when there is none)."""
    text = README.read_text()
    section = text.split("## CLI", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        lines = iter(block.splitlines())
        for line in lines:
            if line.startswith("$ sievelab "):
                examples.append({"command": line[len("$ sievelab "):],
                                 "shown": [], "exit": None})
            elif line == "$ echo $?":
                examples[-1]["exit"] = int(next(lines))
            else:
                examples[-1]["shown"].append(line)
    return [(e["command"], e["shown"], e["exit"]) for e in examples]


def shown_lines_match(shown, printed):
    """Shown lines match printed lines in order.  A shown line ending in
    `...` matches as a prefix; a bare `...` may stand for any number of
    printed lines; printed lines past the last shown one are elided."""
    at, gap = 0, False
    for want in shown:
        if want == "...":
            gap = True
            continue
        match = (lambda got: got.startswith(want[:-3])) if want.endswith("...") \
            else (lambda got: got == want)
        while at < len(printed) and not match(printed[at]):
            if not gap:
                return False
            at += 1
        if at == len(printed):
            return False
        at, gap = at + 1, False
    return True


EXAMPLES = cli_examples()


def test_readme_cli_examples_found():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("command,shown,exit_code", EXAMPLES,
                         ids=[c for c, _, _ in EXAMPLES])
def test_readme_cli_example(capsys, command, shown, exit_code):
    code = main(shlex.split(command))
    printed = capsys.readouterr().out.splitlines()
    assert shown and shown_lines_match(shown, printed), printed
    if exit_code is not None:
        assert code == exit_code
