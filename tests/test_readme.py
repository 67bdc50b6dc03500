"""The README's library example runs as printed."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


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
