"""Golden CLI outputs: every shipped scenario, byte for byte.

Each case runs one CLI command with default flags (6-digit format) and
compares the file it writes with the stored copy under ``tests/golden/``.
A refactor that changes no number leaves these bytes alone; a change that
does move a printed digit has to regenerate them and say why.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import csv
import io
import sys
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from twohop.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIOS = sorted(p.stem for p in SCENARIO_DIR.glob("*.scenario"))

CASES = [(f"{command}__{name}.{'txt' if command == 'validate' else 'csv'}",
          [command, "--scenario", str(SCENARIO_DIR / f"{name}.scenario")])
         for command in ("ser-sweep", "cdf", "validate") for name in SCENARIOS]
CASES += [(f"compare-cases__n{n}.csv", ["compare-cases", "--n", str(n)])
          for n in (2, 3, 4)]


def run_case(argv, out: Path) -> int:
    err = io.StringIO()
    with redirect_stderr(err):
        return main(argv + ["--out", str(out)])


@pytest.mark.parametrize("filename, argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(filename, argv, tmp_path):
    out = tmp_path / filename
    assert run_case(argv, out) == 0
    assert out.read_bytes() == (GOLDEN_DIR / filename).read_bytes()


# The benchmark's acceptance band for a Monte-Carlo SER: 4.4 standard errors
MC_BAND_Z = 4.4


def test_golden_mc_columns_agree_with_the_analytic_ser():
    """Each stored ser_mc lies within MC_BAND_Z standard errors of ser_analytical."""
    checked, failures = 0, []
    for path in sorted(GOLDEN_DIR.glob("ser-sweep__*.csv")):
        lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
        for row in csv.DictReader(lines):
            if "ser_mc" not in row:
                break
            analytic, estimate = float(row["ser_analytical"]), float(row["ser_mc"])
            std_err = float(row["mc_halfwidth"]) / 1.96
            checked += 1
            if not abs(estimate - analytic) <= MC_BAND_Z * std_err:
                failures.append(f"{path.name} {row['modulation']} "
                                f"hop1={row['hop1_snr_db']} hop2={row['hop2_snr_db']}")
    assert checked > 0
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for filename, argv in CASES:
        code = run_case(argv, GOLDEN_DIR / filename)
        print(f"{filename}: exit {code}", file=sys.stderr)
