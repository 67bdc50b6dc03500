"""Command-line behaviour: output formats, exit codes, determinism.

pytest runs with capture disabled, so stdout-facing behaviour goes through
subprocesses and everything else writes to --out files; in-process error
paths redirect stderr explicitly.
"""

import io
import math
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohop import cli, montecarlo
from twohop.cli import _fmt_prob, main
from twohop.numerics import DEFAULT_SER_TOL
from twohop.relay import Combiner
from twohop.scenario import (_COMMON_KEYS, _CUSTOM_KEYS, _NAMED_KEYS, MAX_ABS_DB, MAX_ANTENNAS,
                             MAX_FADING_FIGURE, MAX_MC_SAMPLES, link_at, load_scenario)
from twohop.ser import PskModulation, ser_sweep


@pytest.fixture(scope="module")
def mini_path(tmp_path_factory):
    """Small MIMO scenario (3 sweep points, one modulation) for fast runs."""
    path = tmp_path_factory.mktemp("scen") / "mini.scenario"
    path.write_text(
        "case = MIMO_MIMO\nn_s = 2\nn_r = 2\nn_d = 2\n"
        "hop1_snr_db = 3\nhop2_sweep_db = 0:4:2\nmodulations = BPSK\n",
        encoding="utf-8")
    return str(path)


def run_main(argv):
    """main() plus captured stderr, without touching pytest's streams."""
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if any Monte-Carlo chunk starts drawing."""
    def draw(*args):
        raise AssertionError("a Monte-Carlo draw started")
    monkeypatch.setattr(montecarlo, "_chunk_rng", draw)


def read_rows(path):
    """(comment_lines, header, data_rows) from a CSV written by the CLI."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return comments, body[0], body[1:]


def test_probability_formatting():
    assert _fmt_prob(0.0012345678, False) == "0.00123457"
    assert _fmt_prob(0.5, False) == "0.500000"
    assert _fmt_prob(1.0, False) == "1.00000"
    assert _fmt_prob(123.456, False) == "123.456"
    assert _fmt_prob(0.0, False) == "0.000000"
    assert _fmt_prob(float("nan"), False) == "nan"
    assert _fmt_prob(1e-12, False) == "0.00000000000100000"
    assert float(_fmt_prob(0.123456789, full=True)) == 0.123456789


def test_ser_sweep_analytic_table(mini_path, tmp_path):
    out = tmp_path / "sweep.csv"
    code, err = run_main(["ser-sweep", "--scenario", mini_path, "--out", str(out)])
    assert code == 0 and err == ""
    comments, header, rows = read_rows(out)
    assert comments[0].startswith("# twohop ") and comments[0].endswith(" ser-sweep")
    assert any("scenario: mini" in c for c in comments)
    assert any(c.startswith("# tol:") for c in comments)
    assert not any("mc_seed" in c for c in comments)   # no seed source anywhere
    assert header == ("case,modulation,n_s,n_r,n_d,m,"
                      "hop1_snr_db,hop2_snr_db,ser_analytical")
    assert len(rows) == 3
    sers = [float(row.split(",")[8]) for row in rows]
    assert all(0.0 < s < 0.5 for s in sers)
    assert sers[0] > sers[1] > sers[2]


def test_ser_sweep_row_identity(mini_path, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_main(["ser-sweep", "--scenario", mini_path, "--out", str(out)])[0] == 0
    _, _, rows = read_rows(out)
    for row, expected_db in zip(rows, ("0", "2", "4")):
        case, mod, n_s, n_r, n_d, m, hop1, hop2, _ = row.split(",")
        assert (case, mod, n_s, n_r, n_d, m, hop1, hop2) == \
            ("MIMO_MIMO", "BPSK", "2", "2", "2", "1", "3", expected_db)


def test_ser_sweep_monte_carlo_determinism(mini_path, tmp_path):
    argv = ["ser-sweep", "--scenario", mini_path, "--seed", "3",
            "--samples", "30000"]
    outputs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "1")):
        out = tmp_path / f"{name}.csv"
        code, _ = run_main(argv + ["--threads", threads, "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    comments, header, rows = read_rows(tmp_path / "a.csv")
    assert any(c == "# mc_seed: 3  mc_samples: 30000" for c in comments)
    assert header.endswith(",ser_analytical,ser_mc,mc_halfwidth")
    for row in rows:
        fields = row.split(",")
        analytic, estimate, halfwidth = map(float, fields[8:])
        assert abs(estimate - analytic) <= 5.0 * halfwidth + 1e-6


def test_ser_sweep_samples_flag_enables_default_seed(mini_path, tmp_path):
    out = tmp_path / "s.csv"
    code, _ = run_main(["ser-sweep", "--scenario", mini_path,
                        "--samples", "5000", "--out", str(out)])
    assert code == 0
    comments, header, _ = read_rows(out)
    assert any(c == "# mc_seed: 1729  mc_samples: 5000" for c in comments)
    assert "ser_mc" in header


def test_cdf_degenerate_grid(mini_path, tmp_path):
    out = tmp_path / "cdf.csv"
    code, _ = run_main(["cdf", "--scenario", mini_path, "--grid", "0",
                        "--samples", "2000", "--out", str(out)])
    assert code == 0
    comments, header, rows = read_rows(out)
    assert header == "gamma,cdf_analytical,cdf_mc"
    assert rows == ["0,0.000000,0.000000"]
    assert any(c == "# hop1_snr_db: 3  hop2_snr_db: 2" for c in comments)
    assert any(c.startswith("# max_abs_deviation: 0") for c in comments)


def test_cdf_table_against_simulation(mini_path, tmp_path):
    out = tmp_path / "cdf.csv"
    code, _ = run_main(["cdf", "--scenario", mini_path, "--grid", "0:4:5",
                        "--seed", "11", "--samples", "40000", "--out", str(out)])
    assert code == 0
    comments, _, rows = read_rows(out)
    assert len(rows) == 5
    gamma, analytic, mc = (np.array(col) for col in
                           zip(*(map(float, r.split(",")) for r in rows)))
    assert np.allclose(gamma, [0, 1, 2, 3, 4])
    assert np.all(np.diff(analytic) >= 0) and analytic[0] == 0.0
    assert np.all((analytic >= 0) & (analytic <= 1))
    assert np.max(np.abs(analytic - mc)) < 0.02
    trailer = next(c for c in comments if c.startswith("# max_abs_deviation:"))
    assert 0.0 <= float(trailer.split(":")[1]) < 0.02


def test_cdf_default_grid_has_fifty_points(mini_path, tmp_path):
    out = tmp_path / "cdf.csv"
    code, _ = run_main(["cdf", "--scenario", mini_path,
                        "--samples", "3000", "--out", str(out)])
    assert code == 0
    _, _, rows = read_rows(out)
    assert len(rows) == 50
    assert rows[0].startswith("0,")


def test_cdf_analytic_columns_do_not_depend_on_the_sampler(mini_path, tmp_path):
    # the default grid comes from the hop laws, not from the Monte-Carlo draws
    columns = []
    for seed, samples in (("1", "2000"), ("2", "3000")):
        out = tmp_path / f"cdf{seed}.csv"
        code, _ = run_main(["cdf", "--scenario", mini_path, "--seed", seed,
                            "--samples", samples, "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        columns.append([row.rsplit(",", 1)[0] for row in rows])
    assert columns[0] == columns[1]


@pytest.mark.parametrize("spec", ["", "1:2", "2:1:5", "-1:4:3", "0:4:0",
                                  "a,b", "3,2,1", "0:1:10001", "0,inf",
                                  "0:1e400:3", "1:1:3"])
def test_cdf_rejects_bad_grids(mini_path, spec):
    code, err = run_main(["cdf", "--scenario", mini_path, f"--grid={spec}",
                          "--samples", "1000"])
    assert code == 2
    assert "invalid configuration" in err and "grid" in err


def test_cdf_rejects_a_grid_list_over_the_point_cap(mini_path):
    spec = ",".join(str(i) for i in range(10_001))
    code, err = run_main(["cdf", "--scenario", mini_path, f"--grid={spec}",
                          "--samples", "1000"])
    assert code == 2
    assert "10000" in err and "(field: grid)" in err


def test_cdf_below_the_smallest_normal_double_converges(scenario_dir, tmp_path):
    """custom_tas is harmonic: at gamma = 1e-307 the inner threshold's gap underflows."""
    out = tmp_path / "cdf.csv"
    code, err = run_main(["cdf", "--scenario", str(scenario_dir / "custom_tas.scenario"),
                          "--grid", "1e-310,1e-307,1", "--samples", "1000",
                          "--full-precision", "--out", str(out)])
    assert code == 0 and err == ""
    _, _, rows = read_rows(out)
    analytical = [float(row.split(",")[1]) for row in rows]
    assert all(0.0 <= value < 1.0 for value in analytical)  # no NaN cell


def test_cdf_swapping_hops_leaves_the_law_alone(tmp_path):
    """Mirror-image scenarios (hop means exchanged) share one equivalent law."""
    base = ("case = MIMO_MIMO\nn_s = 2\nn_r = 2\nn_d = 2\n"
            "hop2_sweep_db = 0:20:1\nmodulations = BPSK\n")
    files = {}
    for tag, h1, h2 in (("fwd", 2, 7), ("rev", 7, 2)):
        path = tmp_path / f"{tag}.scenario"
        path.write_text(base + f"hop1_snr_db = {h1}\nhop2_snr_db = {h2}\n",
                        encoding="utf-8")
        out = tmp_path / f"{tag}.csv"
        code, _ = run_main(["cdf", "--scenario", str(path), "--grid", "0:6:7",
                            "--samples", "1000", "--full-precision",
                            "--out", str(out)])
        assert code == 0
        _, _, rows = read_rows(out)
        files[tag] = np.array([float(r.split(",")[1]) for r in rows])
    assert np.max(np.abs(files["fwd"] - files["rev"])) <= 2e-8


def test_validate_clean_pass(mini_path, tmp_path):
    out = tmp_path / "report.txt"
    code, err = run_main(["validate", "--scenario", mini_path,
                          "--samples", "60000", "--out", str(out)])
    assert code == 0 and err == ""
    text = out.read_text(encoding="utf-8")
    assert text.startswith("twohop validate: scenario mini")
    assert "seed 1729" in text
    assert "all 4 checks passed" in text
    assert "FAIL" not in text
    for fragment in ("hop1 law KS distance", "hop2 law KS distance",
                     "end-to-end CDF max deviation", "SER rel. err. BPSK"):
        assert fragment in text


def test_validate_reports_failures(mini_path, tmp_path, monkeypatch):
    # a zero DKW limit fails both KS checks and the CDF deviation check
    monkeypatch.setattr(cli, "_dkw", lambda n: 0.0)
    out = tmp_path / "report.txt"
    code, _ = run_main(["validate", "--scenario", mini_path,
                        "--samples", "5000", "--out", str(out)])
    assert code == 1
    text = out.read_text(encoding="utf-8")
    assert text.count("FAIL") == 3
    assert "1 of 4 checks passed" in text


def test_validate_limits_follow_from_the_sample_count():
    # DKW with Massart's constant at ALPHA = 1e-6
    assert f"{cli._dkw(100_000):.6f}" == "0.008517"
    assert f"{cli._dkw(1_000_000):.6f}" == "0.002693"
    # empirical Bernstein on SEPs in [0, 1/2]: sqrt(2 ln 4e6) * 1e-3 + 3.5 ln 4e6 / (3 * 999999)
    assert f"{cli._ser_bound(PskModulation(2), 1.96e-3, 1_000_000):.8f}" == "0.00553168"
    assert cli._ser_bound(PskModulation(8), 0.0, 1) == math.inf


def test_validate_ser_limit_covers_at_its_level(monkeypatch, scenario_dir):
    """At ALPHA = 1e-2, 300 seeded 100-sample runs exceed the SER limit at most 3 times.

    Each run is the draw validate makes for the link (the same streams).  A
    limit of Phi^-1(1 - ALPHA/2) normal halfwidths is exceeded 7 times here.
    """
    monkeypatch.setattr(cli, "ALPHA", 1e-2)
    scenario = load_scenario(scenario_dir / "custom_tas.scenario")
    link, mod = link_at(scenario.link, 3.0, 10.0), PskModulation(2)
    ser = float(ser_sweep([link], [mod], DEFAULT_SER_TOL)[0, 0])
    exceeded = 0
    for seed in range(300):
        estimate, halfwidth = montecarlo.mc_ser(
            mod, montecarlo.simulate_end_to_end(link, montecarlo.McRun(seed, 100)))
        exceeded += abs(estimate - ser) > (cli._ser_bound(mod, halfwidth, 100)
                                           + DEFAULT_SER_TOL * ser)
    assert exceeded <= 3


@pytest.mark.parametrize("samples", ["1", "2"])
def test_validate_passes_at_the_smallest_sample_counts(samples, scenario_dir, tmp_path):
    """One sample bounds no SER (an infinite limit); two give a finite, wide one."""
    out = tmp_path / "report.txt"
    code, err = run_main(["validate", "--scenario", str(scenario_dir / "custom_tas.scenario"),
                          "--samples", samples, "--out", str(out)])
    assert code == 0 and err == ""
    ser_rows = [line for line in out.read_text(encoding="utf-8").splitlines()
                if line.startswith("SER ")]
    assert len(ser_rows) == 2
    assert all(line.endswith("pass") for line in ser_rows)
    assert all(("threshold        inf" in line) == (samples == "1") for line in ser_rows)


def test_validate_columns_stay_aligned_past_a_limit_of_1000(scenario_dir, tmp_path):
    """At two samples a BPSK limit above 1,000 widens the threshold column, not its row."""
    out = tmp_path / "report.txt"
    code, _ = run_main(["validate", "--scenario", str(scenario_dir / "custom_tas.scenario"),
                        "--samples", "2", "--out", str(out)])
    assert code == 0
    rows = out.read_text(encoding="utf-8").splitlines()[1:-1]
    assert len(rows) == 5
    assert max(float(row.split("threshold")[1].split()[0]) for row in rows) >= 1000.0
    # threshold, and the pass/FAIL word after the last space, in one column each
    assert len({(row.index(" threshold "), row.rindex(" ")) for row in rows}) == 1


def test_validate_checks_the_ser_in_the_deep_tail(tmp_path):
    """STBC_MRC 2x2, m = 1, 20/20 dB: a BPSK SER of 4.8e-8 is checked like any other."""
    path = _mini_scenario(tmp_path / "tail.scenario", {
        "hop1_snr_db": "20", "hop2_snr_db": "20", "modulations": "BPSK, PSK8, PSK16"})
    out = tmp_path / "report.txt"
    code, err = run_main(["validate", "--scenario", path, "--out", str(out)])
    assert code == 0 and err == ""
    text = out.read_text(encoding="utf-8")
    assert "all 6 checks passed" in text
    ser_rows = [line for line in text.splitlines() if line.startswith("SER rel. err.")]
    assert len(ser_rows) == 3
    for line in ser_rows:
        threshold = float(line.split("threshold")[1].split()[0])
        assert 0.0 < threshold < math.inf


def test_a_scenario_that_is_not_utf8_exits_two(tmp_path):
    path = tmp_path / "latin1.scenario"
    path.write_bytes(b"name = caf\xe9\ncase = MIMO_MIMO\n")
    code, err = run_main(["validate", "--scenario", str(path)])
    assert code == 2
    assert err.startswith(f"twohop: invalid configuration: {path}: ")


def test_validate_unreachable_tolerance_exits_three(mini_path, tmp_path):
    """cdf and validate write their tables with NaN cells, name each failure and exit 3."""
    out = tmp_path / "cdf.csv"
    code, err = run_main(["cdf", "--grid", "0,0.5,1", "--samples", "2000", "--scenario",
                          mini_path, "--tol", "1e-30", "--out", str(out)])
    assert code == 3
    assert err == "twohop: quadrature did not converge at: gamma=0.5; gamma=1\n"
    _, _, rows = read_rows(out)
    assert [row.split(",")[1] for row in rows] == ["0.000000", "nan", "nan"]
    assert out.read_text(encoding="utf-8").endswith("# max_abs_deviation: nan\n")

    # a failed check outranks a merely failing one: exit 3, not 1
    out = tmp_path / "report.txt"
    code, err = run_main(["validate", "--samples", "2000", "--scenario", mini_path,
                          "--tol", "1e-30", "--out", str(out)])
    assert code == 3
    assert err == ("twohop: quadrature did not converge at: "
                   "end-to-end CDF max deviation (n=2000); "
                   "SER rel. err. BPSK @ hop1 3 dB, hop2 2 dB\n")
    failed = [line for line in out.read_text(encoding="utf-8").splitlines()
              if "FAIL" in line]
    assert len(failed) == 2
    assert all(" observed            nan " in line for line in failed)


def test_ser_sweep_nonconvergence_writes_nan_rows(tmp_path):
    path = tmp_path / "one.scenario"
    path.write_text(
        "case = MIMO_MIMO\nn_s = 2\nn_r = 2\nn_d = 2\nhop1_snr_db = 3\n"
        "hop2_sweep_db = 10:10:1\nmodulations = BPSK\n", encoding="utf-8")
    out = tmp_path / "sweep.csv"
    code, err = run_main(["ser-sweep", "--scenario", str(path),
                          "--tol", "1e-30", "--out", str(out)])
    assert code == 3
    assert "did not converge" in err
    assert "BPSK hop1=3 dB hop2=10 dB" in err
    _, _, rows = read_rows(out)
    assert rows[0].split(",")[8] == "nan"


# The seed-410 op of bench/BASELINE.md, at hop-1 2 dB and hop-2 5 and 26 dB.
# When the 26 dB link's inner CDF elements near gamma = 0.5 ... 1.1 do not
# converge, only its cells are NaN: no integral of the 5 dB link asks for them.
TAS_HARMONIC_SCENARIO = """\
name = paper07
case = CUSTOM
hop1_scheme = TAS_MRC
hop1_n_tx = 2
hop1_n_rx = 2
hop2_scheme = TAS_MRC
hop2_n_tx = 2
hop2_n_rx = 1
m = 0.5
combiner = harmonic
hop1_snr_db = 2.0
hop2_sweep_db = 5:26:21
modulations = BPSK, PSK8, PSK16
"""
TAS_HARMONIC_STDOUT = """\
# twohop 0.1.0 ser-sweep
# scenario: paper07  case: CUSTOM  combiner: harmonic
# tol: 1e-07
case,modulation,n_s,n_r,n_d,m,hop1_snr_db,hop2_snr_db,ser_analytical
CUSTOM,BPSK,2,2,1,0.5,2,5,0.07435167499846311
CUSTOM,BPSK,2,2,1,0.5,2,26,nan
CUSTOM,PSK8,2,2,1,0.5,2,5,0.5178955866394193
CUSTOM,PSK8,2,2,1,0.5,2,26,nan
CUSTOM,PSK16,2,2,1,0.5,2,5,0.7351644947387906
CUSTOM,PSK16,2,2,1,0.5,2,26,nan
"""
TAS_HARMONIC_STDERR = ("twohop: quadrature did not converge at: BPSK hop1=2 dB hop2=26 dB; "
                       "PSK8 hop1=2 dB hop2=26 dB; PSK16 hop1=2 dB hop2=26 dB\n")


def test_ser_sweep_inner_nonconvergence_bytes(tmp_path, fail_inner_quadratures):
    fail_inner_quadratures(lambda mean, gamma: (mean > 100.0) & (0.5 <= gamma) & (gamma <= 1.1))
    path = tmp_path / "tas_harmonic.scenario"
    path.write_text(TAS_HARMONIC_SCENARIO, encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code, err = run_main(["ser-sweep", "--scenario", str(path), "--full-precision"])
    assert code == 3
    assert out.getvalue() == TAS_HARMONIC_STDOUT
    assert err == TAS_HARMONIC_STDERR


def test_compare_cases_single_antenna_is_degenerate(tmp_path):
    out = tmp_path / "cmp.csv"
    code, _ = run_main(["compare-cases", "--n", "1", "--sweep", "0:4:2",
                        "--out", str(out)])
    assert code == 0
    comments, header, rows = read_rows(out)
    assert header == ("modulation,hop1_snr_db,hop2_snr_db,"
                      "ser_mimo_mimo,ser_miso_simo,ser_simo_miso")
    assert len(rows) == 3
    for row in rows:
        fields = row.split(",")
        assert fields[3] == fields[4] == fields[5]
    orderings = [c for c in comments if c.startswith("# ordering")]
    assert orderings == [
        f"# ordering BPSK @ {db} dB: MIMO_MIMO = MISO_SIMO = SIMO_MISO"
        for db in ("0", "2", "4")]


def test_compare_cases_reports_mimo_lowest(tmp_path):
    out = tmp_path / "cmp.csv"
    code, _ = run_main(["compare-cases", "--n", "2", "--sweep", "0:10:5",
                        "--modulations", "BPSK,PSK8", "--out", str(out)])
    assert code == 0
    comments, _, rows = read_rows(out)
    assert len(rows) == 6
    for row in rows:
        mimo, miso, simo = map(float, row.split(",")[3:])
        assert mimo < miso and mimo < simo
    orderings = [c for c in comments if c.startswith("# ordering")]
    assert len(orderings) == 6
    assert all(": MIMO_MIMO <" in c for c in orderings)


@pytest.mark.parametrize("gap,sign", [(1e-9, "="), (1e-6, "<")])
def test_compare_cases_ties_follow_the_tolerance(tmp_path, monkeypatch, gap, sign):
    # Each SER is only good to --tol (1e-7 by default), so values closer
    # than 2*tol relative are tied and listed in column order.  ser_sweep
    # runs once, over the placements' links in column order.
    values = [0.01, 0.1 * (1.0 + gap), 0.1]
    monkeypatch.setattr(cli, "ser_sweep",
                        lambda links, mods, tol: np.tile(np.repeat(values, len(links) // 3),
                                                         (len(mods), 1)))
    out = tmp_path / "cmp.csv"
    code, _ = run_main(["compare-cases", "--n", "2", "--sweep", "0:0:1", "--out", str(out)])
    assert code == 0
    comments, _, _ = read_rows(out)
    want = ("MIMO_MIMO < MISO_SIMO = SIMO_MISO" if sign == "="
            else "MIMO_MIMO < SIMO_MISO < MISO_SIMO")
    assert comments[-1] == f"# ordering BPSK @ 0 dB: {want}"


@pytest.mark.parametrize("argv", [
    ["ser-sweep", "--scenario", "mimo_n3"],
    ["compare-cases", "--n", "3"],
    ["validate", "--scenario", "mimo_n3"],
], ids=lambda argv: argv[0])
def test_each_command_makes_one_ser_batch(monkeypatch, tmp_path, scenario_dir, argv):
    # ser-sweep mimo_n3 has two hop-1 means and compare-cases three placements;
    # each command still runs every SER integral in one ser_from_cdf batch.
    import twohop.ser as ser_module

    batches = []
    real = ser_module.ser_from_cdf

    def counting(*args, **kwargs):
        batches.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(ser_module, "ser_from_cdf", counting)
    if "--scenario" in argv:
        argv = argv[:-1] + [str(scenario_dir / f"{argv[-1]}.scenario")]
    code, _ = run_main(argv + ["--out", str(tmp_path / "out")])
    assert code == 0
    assert len(batches) == 1


def test_compare_cases_work_stays_within_its_counted_budget(monkeypatch, tmp_path):
    # Quadrature rule calls (inner and outer) and intervals evaluated by
    # compare-cases --n 3 with three modulations; they do not vary between
    # machines, and the bounds are the counts at which they stand.
    import twohop.numerics as numerics_module

    calls, intervals = [], []
    real_rule = numerics_module._apply_rule

    def counting_rule(f, a, b, owner):
        calls.append(1)
        intervals.append(a.size)
        return real_rule(f, a, b, owner)

    monkeypatch.setattr(numerics_module, "_apply_rule", counting_rule)
    code, _ = run_main(["compare-cases", "--n", "3", "--modulations", "BPSK,PSK8,PSK16",
                        "--out", str(tmp_path / "cmp.csv")])
    assert code == 0
    assert len(calls) <= 7
    assert sum(intervals) <= 24_788


@pytest.mark.parametrize("argv, field", [
    (["compare-cases", "--n", "0"], "n"),
    (["compare-cases", "--n", "2", "--m", "0.3"], "m"),
    (["compare-cases", "--n", "2", "--sweep", "5"], "sweep"),
    (["compare-cases", "--n", "2", "--sweep", "4:0:1"], "sweep"),
    (["compare-cases", "--n", "2", "--modulations", "QAM64"], "modulations"),
    (["compare-cases", "--n", "2", "--modulations", ","], "modulations"),
    (["compare-cases", "--n", "2", "--modulations", "PSK32"], "modulations"),
    (["compare-cases", "--n", "2", "--modulations", "BPSK,PSK4"], "modulations"),
    (["compare-cases", "--n", "2", "--sweep=-1000:250:0.125"], "sweep"),
])
def test_compare_cases_flag_validation(argv, field):
    code, err = run_main(argv)
    assert code == 2
    assert "invalid configuration" in err and field in err


_MINI = {"case": "MIMO_MIMO", "n_s": "2", "n_r": "2", "n_d": "2",
         "hop1_snr_db": "3", "hop2_sweep_db": "0:4:2", "modulations": "BPSK"}
# TAS_MRC on both hops at the largest antenna counts (overrides of _MINI)
_TAS_64 = {"case": "CUSTOM", "n_s": None, "n_r": None, "n_d": None,
           "hop1_scheme": "TAS_MRC", "hop1_n_tx": "64", "hop1_n_rx": "64",
           "hop2_scheme": "TAS_MRC", "hop2_n_tx": "64", "hop2_n_rx": "64"}


def _mini_scenario(path, overrides):
    """Write _MINI with ``overrides`` applied (a None value drops the key)."""
    pairs = {**_MINI, **overrides}
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items() if v is not None),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("overrides, field", [
    (dict(hop1_snr_db="nan"), "hop1_snr_db"),
    (dict(hop1_snr_db="1e9"), "hop1_snr_db"),
    (dict(hop1_snr_db="3,-1e9"), "hop1_snr_db"),    # second entry out of range
    (dict(m="inf"), "m"),
    (dict(hop1_m="inf"), "hop1_m"),
    (dict(hop2_m="nan"), "hop2_m"),
    (dict(hop2_sweep_db="0:1e9:1e9"), "hop2_sweep_db"),
    (dict(hop2_sweep_db="nan:4:2"), "hop2_sweep_db"),
    (dict(hop2_sweep_db="0:4:inf"), "hop2_sweep_db"),
    (dict(hop2_snr_db="inf"), "hop2_snr_db"),
    (dict(m="1e308"), "m"),                         # above MAX_FADING_FIGURE
    (dict(hop2_m="1e308"), "hop2_m"),
    pytest.param(dict(n_s=str(10 ** 400)), "n_s", id="n_s=1e400"),
    (dict(hop2_sweep_db="3080:3080:1"), "hop2_sweep_db"),  # above MAX_ABS_DB
    (dict(hop1_snr_db="1600", hop2_sweep_db="1600:1600:1"), "hop1_snr_db"),
    # Antenna counts whose hop mean (n_d * 1e100) or Monte-Carlo product
    # g1 * g2 (about 1e320) would overflow at 1000 dB
    pytest.param(dict(n_d=str(10 ** 250), hop1_snr_db="1000", hop2_sweep_db="1000:1000:1"),
                 "n_d", id="n_d=1e250@1000dB"),
    pytest.param(dict(n_s=str(10 ** 60), n_r=str(10 ** 60), n_d=str(10 ** 60),
                      hop1_snr_db="1000", hop2_sweep_db="1000:1000:1"),
                 "n_s", id="n_s=n_r=n_d=1e60@1000dB"),
    pytest.param(dict(_TAS_64, hop1_n_tx=str(MAX_ANTENNAS + 1), mc_seed="1",
                      mc_samples="2000"), "hop1_n_tx", id="tas-hop1_n_tx=max+1"),
    (dict(mc_samples=str(MAX_MC_SAMPLES + 1)), "mc_samples"),
], ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items()) if isinstance(v, dict) else v)
def test_non_finite_scenario_values_exit_two(overrides, field, tmp_path, no_draws):
    path = _mini_scenario(tmp_path / "bad.scenario", overrides)
    for command in ("ser-sweep", "cdf", "validate"):
        code, err = run_main([command, "--scenario", path])
        assert code == 2, command
        assert f"(field: {field})" in err, command


@pytest.mark.parametrize("db", ["-1000", "1000"])
def test_extreme_db_means_run_cleanly(db, tmp_path):
    """Both hops at either end of the dB range keep every derived value finite."""
    path = tmp_path / "edge.scenario"
    path.write_text("".join(f"{k} = {v}\n" for k, v in {
        **_MINI, "hop1_snr_db": db, "hop2_sweep_db": f"{db}:{db}:1"}.items()),
        encoding="utf-8")
    for command in ("ser-sweep", "cdf", "validate"):
        code, err = run_main([command, "--scenario", str(path), "--samples", "2000",
                              "--out", str(tmp_path / f"{command}.csv")])
        assert code == 0 and err == "", command
    # At +1000 dB the SER is a converged 0.0, checked in absolute terms
    report = (tmp_path / "validate.csv").read_text(encoding="utf-8")
    assert ("SER abs. err. BPSK" in report) == (db == "1000")


@pytest.mark.parametrize("db", ["-1000", "1000"])
@pytest.mark.parametrize("corner", [
    dict(n_s="64", n_r="64", n_d="64", m="0.5"),
    dict(n_s="64", n_r="64", n_d="64", m="100"),
    _TAS_64,
], ids=["mimo64-m0.5", "mimo64-m100", "tas64"])
def test_largest_antenna_counts_and_fading_figures_run_cleanly(corner, db, tmp_path):
    """At the ends of the antenna, m and dB ranges every derived value stays finite."""
    path = _mini_scenario(tmp_path / "corner.scenario",
                          {**corner, "hop1_snr_db": db, "hop2_sweep_db": f"{db}:{db}:1"})
    for command in ("ser-sweep", "cdf", "validate"):
        code, err = run_main([command, "--scenario", path, "--samples", "2000",
                              "--out", str(tmp_path / f"{command}.csv")])
        assert code == 0 and err == "", command


@pytest.mark.parametrize("flags", [
    ["--n", "1", "--m", "0.5", "--hop1-snr-db", "-1000", "--sweep=-1000:-1000:1"],
    ["--n", str(MAX_ANTENNAS), "--m", str(MAX_FADING_FIGURE), "--hop1-snr-db", "1000",
     "--sweep", "1000:1000:1"],
], ids=["lower", "upper"])
def test_compare_cases_accepts_the_ends_of_each_range(flags, tmp_path):
    code, err = run_main(["compare-cases", *flags, "--out", str(tmp_path / "cmp.csv")])
    assert code == 0 and err == ""


@pytest.mark.parametrize("flags, field", [
    (["--hop1-snr-db", "nan"], "hop1_snr_db"),
    (["--hop1-snr-db", "1e9"], "hop1_snr_db"),
    (["--m", "inf"], "m"),
    (["--sweep", "0:1e9:1e9"], "sweep"),
    (["--m", "1e308", "--sweep", "0:0:1"], "m"),
    (["--sweep", "3080:3080:1"], "sweep"),
    # the values just outside each range; a repeated --n replaces the first
    (["--n", str(MAX_ANTENNAS + 1)], "n"),
    (["--m", repr(math.nextafter(0.5, 0.0))], "m"),
    (["--m", repr(math.nextafter(MAX_FADING_FIGURE, math.inf))], "m"),
    (["--hop1-snr-db", repr(math.nextafter(-MAX_ABS_DB, -math.inf))], "hop1_snr_db"),
    (["--hop1-snr-db", repr(math.nextafter(MAX_ABS_DB, math.inf))], "hop1_snr_db"),
    ([f"--sweep={math.nextafter(-MAX_ABS_DB, -math.inf)!r}:0:1"], "sweep"),
    ([f"--sweep=0:{math.nextafter(MAX_ABS_DB, math.inf)!r}:1"], "sweep"),
], ids=lambda v: "=".join(v) if isinstance(v, list) else v)
def test_non_finite_compare_cases_flags_exit_two(flags, field):
    code, err = run_main(["compare-cases", "--n", "2"] + flags)
    assert code == 2
    assert f"(field: {field})" in err


def test_compare_cases_links_match_the_scenario_files(scenario_dir):
    """compare-cases and the scenario parser build each placement the same way."""
    links = dict(cli._case_links(3, 1.0, Combiner.EXACT))
    for case, stem in (("MIMO_MIMO", "mimo_n3"), ("MISO_SIMO", "miso_simo_n3")):
        assert links[case] == load_scenario(scenario_dir / f"{stem}.scenario").link
    simo = dict(cli._case_links(2, 1.0, Combiner.EXACT))["SIMO_MISO"]
    assert simo == load_scenario(scenario_dir / "simo_miso_nr2.scenario").link


def test_common_flag_and_file_errors(mini_path, tmp_path, no_draws):
    code, err = run_main(["ser-sweep", "--scenario", "/no/such/file.scenario"])
    assert code == 2 and "twohop:" in err

    bad = tmp_path / "bad.scenario"
    bad.write_text("case = NOPE\n", encoding="utf-8")
    code, err = run_main(["ser-sweep", "--scenario", str(bad)])
    assert code == 2 and "(field: case)" in err

    for argv, field in [
        (["ser-sweep", "--scenario", mini_path, "--tol", "0"], "tol"),
        (["cdf", "--scenario", mini_path, "--tol", "0.5"], "tol"),
        (["ser-sweep", "--scenario", mini_path, "--tol", "0.5"], "tol"),
        (["ser-sweep", "--scenario", mini_path, "--tol", "inf"], "tol"),
        (["compare-cases", "--n", "2", "--tol", "inf"], "tol"),
        (["ser-sweep", "--scenario", mini_path, "--threads", "0"], "threads"),
        (["ser-sweep", "--scenario", mini_path, "--samples", "0"], "samples"),
        (["ser-sweep", "--scenario", mini_path, "--seed", "-1"], "seed"),
        (["validate", "--scenario", mini_path, "--samples", "0"], "samples"),
        *[([command, "--scenario", mini_path, "--samples", str(MAX_MC_SAMPLES + 1)], "samples")
          for command in ("ser-sweep", "cdf", "validate")],
    ]:
        code, err = run_main(argv)
        assert code == 2, argv
        assert f"(field: {field})" in err, argv


COMPARE_ONE_POINT = ["compare-cases", "--n", "1", "--sweep", "0:0:1"]


@pytest.mark.parametrize("argv, flag", [
    (COMPARE_ONE_POINT + ["--seed", "1"], "--seed 1"),
    (COMPARE_ONE_POINT + ["--samples", "1000"], "--samples 1000"),
    (COMPARE_ONE_POINT + ["--threads", "2"], "--threads 2"),
    (["validate", "--scenario", "unread.scenario", "--full-precision"], "--full-precision"),
], ids=["compare-cases-seed", "compare-cases-samples", "compare-cases-threads",
        "validate-full-precision"])
def test_a_command_rejects_the_flags_it_does_not_use(argv, flag):
    # compare-cases draws no samples and validate prints no probabilities
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in err.getvalue()


@pytest.mark.parametrize("command", ["ser-sweep", "cdf", "validate", "compare-cases"])
def test_each_command_prints_its_help(command):
    # argparse %-formats every help string, so a stray % would raise here
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert out.getvalue().startswith(f"usage: twohop {command}")


SCENARIO_TEXTS = {path.stem: path.read_text(encoding="utf-8")
                  for path in sorted((Path(__file__).resolve().parent.parent
                                      / "scenarios").glob("*.scenario"))}
# Malformed and boundary values, none of which makes a slow valid run: no
# long sweep and no large sample count is among them.
FUZZ_VALUES = ["", " ", "x", "nan", "inf", "-inf", "-1", "0", "0.49", "0.5", "1", "2.5",
               "64", "65", "100", "100.1", "1e308", str(10 ** 400), "0x10", "1_0",
               "-1000", "1000", "1000.0001", "3, -1e9", "2,", ",", "0:0:1", "0:4:0",
               "1:0:1", "0:4", "1000:1000:1", "-1000:-1000:1", "nan:4:2", "0:4:inf",
               "BPSK", "BPSK, PSK16", "PSK3", "QAM4", "MIMO_MIMO", "CUSTOM", "SIMO_MISO",
               "TAS_MRC", "STBC", "exact", "harmonic", str(MAX_MC_SAMPLES + 1), "=", "#"]
FUZZ_KEYS = sorted(_COMMON_KEYS | _NAMED_KEYS | _CUSTOM_KEYS) + ["bogus", "N_S", ""]
FUZZ_FLAGS = [[], ["--tol", "1e-3"], ["--tol", "0"], ["--tol", "nan"], ["--tol", "x"],
              ["--seed", "0"], ["--seed", "-1"], ["--seed", str(2 ** 64)],
              ["--threads", "2"], ["--threads", "0"], ["--samples", "0"],
              ["--samples", str(MAX_MC_SAMPLES + 1)], ["--combiner", "harmonic"],
              ["--combiner", "mean"], ["--full-precision"], ["--grid", "0:2:3"],
              ["--grid", "nan"], ["--grid", "1,0"], ["--n", "2"], ["--bogus"]]


def _edit(lines, op, at, key, value):
    """One mutation of a scenario's lines (``at`` wraps round their count)."""
    i = at % len(lines)
    if op == "add":
        lines.append(f"{key} = {value}")
    elif op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "unkey":
        lines[i] = lines[i].replace("=", " ", 1)
    elif op == "truncate":
        lines[i] = lines[i][:len(lines[i]) // 2]
    else:  # "set": keep the key, replace the value
        lines[i] = f"{lines[i].partition('=')[0]}= {value}"


@settings(deadline=None, max_examples=200, derandomize=True)
@given(stem=st.sampled_from(sorted(SCENARIO_TEXTS)),
       edits=st.lists(st.tuples(
           st.sampled_from(["add", "drop", "duplicate", "unkey", "truncate", "set"]),
           st.integers(0, 63), st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES)),
           max_size=3),
       command=st.sampled_from(["ser-sweep", "cdf", "validate"]),
       flag=st.sampled_from(FUZZ_FLAGS))
def test_fuzzed_scenarios_and_flags_exit_cleanly(stem, edits, command, flag):
    # A shipped scenario cut to a three-point sweep, then mutated: whatever
    # the text and flag, the command ends with an exit code, not a traceback.
    lines = SCENARIO_TEXTS[stem].replace("0:20:1", "0:20:10").replace("0:20:2", "0:20:10")
    lines = lines.splitlines()
    for edit in edits:
        _edit(lines, *edit)
    with tempfile.TemporaryDirectory() as tmp:  # Hypothesis rejects function-scoped fixtures
        path = Path(tmp) / f"{stem}.scenario"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([command, "--scenario", str(path), "--samples", "1500", *flag])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (code, lines, command, flag)


def test_executable_module_interface(mini_path):
    base = [sys.executable, "-m", "twohop"]
    run = lambda extra: subprocess.run(base + extra, capture_output=True,
                                       text=True, timeout=300)

    bare = run([])
    assert bare.returncode == 2 and "usage" in bare.stderr

    helped = run(["--help"])
    assert helped.returncode == 0
    for name in ("ser-sweep", "cdf", "validate", "compare-cases"):
        assert name in helped.stdout

    unknown = run(["orbit"])
    assert unknown.returncode == 2

    table = run(["cdf", "--scenario", mini_path, "--grid", "0:2:3",
                 "--samples", "5000"])
    assert table.returncode == 0
    assert table.stdout.startswith("# twohop ")
    assert "gamma,cdf_analytical,cdf_mc" in table.stdout


def test_the_combiner_flag_matches_the_scenario_key(scenario_dir, tmp_path):
    """--combiner harmonic prints what the same scenario with combiner = harmonic prints."""
    keyed = tmp_path / "mimo_n3.scenario"
    keyed.write_text((scenario_dir / "mimo_n3.scenario").read_text(encoding="utf-8")
                     + "combiner = harmonic\n", encoding="utf-8")
    outs = tmp_path / "flag.csv", tmp_path / "key.csv"
    for argv, out in ((["--scenario", str(scenario_dir / "mimo_n3.scenario"),
                        "--combiner", "harmonic"], outs[0]),
                      (["--scenario", str(keyed)], outs[1])):
        assert run_main(["ser-sweep", *argv, "--out", str(out)]) == (0, "")
    assert "combiner: harmonic" in outs[0].read_text(encoding="utf-8")
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_threads_never_change_golden_bytes(tmp_path):
    """200k samples span four chunks, so three workers (or one per CPU) interleave."""
    root = Path(__file__).resolve().parent
    out = tmp_path / "sweep.csv"
    code, _ = run_main(["ser-sweep", "--scenario",
                        str(root.parent / "scenarios" / "mimo_n3.scenario"),
                        "--threads", "3", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (root / "golden" / "ser-sweep__mimo_n3.csv").read_bytes()
