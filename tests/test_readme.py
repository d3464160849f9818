"""The README's Python quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

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
