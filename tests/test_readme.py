import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from squeeze_dyn import ChannelKind, Definition, Form, channel_xi2, optimal_alpha
from squeeze_dyn.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title):
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_library_example_runs():
    # the one python block under "## Library", run as written
    blocks = re.findall(r"```python\n(.*?)```", _section("Library"), flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], f"{README}:Library", "exec"), {})


def test_command_line_examples_run(tmp_path, monkeypatch):
    # every squeeze-dyn command of the first block under "## Command line",
    # continuation lines joined, run as written in an empty directory
    block = re.search(r"```\n(.*?)```", _section("Command line"), flags=re.S).group(1)
    commands = [
        shlex.split(line, comments=True)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("squeeze-dyn ")
    ]
    assert len(commands) == 5
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)


def _verdict_rows():
    """The rows of the table of thresholds under "The two closed-form
    families": channel, definition, REFERENCE, EXACT, opposite verdicts."""
    lines = _section("The two closed-form families").splitlines()
    table = [line for line in lines if line.startswith("| ")][1:]
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in table]


def _threshold(alpha, kind, definition, form):
    """The kappa in (0, 1] above which the form is squeezed, to 1e-9;
    0 where every kappa > 0 is."""

    def squeezed(kappa):
        return channel_xi2(10, alpha, kappa, kind, definition, form) < 1.0

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if squeezed(mid) else (mid, hi)
    return lo


def _read_threshold(cell):
    return 0.0 if cell == "every kappa > 0" else float(cell.removeprefix("kappa > "))


@pytest.mark.parametrize("row", _verdict_rows(), ids=lambda row: "-".join(row[:2]))
def test_closed_form_verdict_thresholds_match_the_readme(row):
    alpha, _ = optimal_alpha(10)
    kind, definition = ChannelKind(row[0]), Definition(row[1])
    got = [_threshold(alpha, kind, definition, form) for form in (Form.REFERENCE, Form.EXACT)]
    for value, cell in zip(got, row[2:4]):
        assert abs(value - _read_threshold(cell)) <= 1e-3
    # each form changes its verdict once, at its threshold, so the share of
    # opposite verdicts is the distance between the two thresholds
    kappas = np.linspace(0.0, 1.0, 201)[1:]
    for value, form in zip(got, (Form.REFERENCE, Form.EXACT)):
        squeezed = [channel_xi2(10, alpha, k, kind, definition, form) < 1.0 for k in kappas]
        assert squeezed == [k > value for k in kappas]
    assert round(100 * (got[1] - got[0])) == int(row[4].removesuffix(" %"))
