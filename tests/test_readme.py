import re
import shlex
from pathlib import Path

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
