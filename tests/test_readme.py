"""The README's library example and command lines run as printed."""

import re
import shlex
from pathlib import Path

import numpy as np

from twohop.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) == 1
    names = {}
    exec(compile(blocks[0], str(README), "exec"), names)
    assert 0.0 < names["p"] < 1.0
    assert np.all(np.diff(names["ps"]) > 0)
    # SER falls as the hop-2 mean rises, and 8-PSK errs more often than BPSK
    assert np.all(np.diff(names["bpsk_row"]) < 0)
    assert np.all(names["psk8_row"] > names["bpsk_row"])


def test_readme_command_lines_run(tmp_path, monkeypatch):
    """Each ``twohop`` line of the command-line block exits 0, its output in tmp_path."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, flags=re.M | re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("twohop ")]
    assert len(lines) == 4
    monkeypatch.chdir(REPO_ROOT)  # the lines name their scenarios from the repository root
    for k, (_, *argv) in enumerate(lines):
        if "--out" in argv:
            del argv[argv.index("--out"):argv.index("--out") + 2]
        assert main([*argv, "--out", str(tmp_path / f"{k}.out")]) == 0, argv
