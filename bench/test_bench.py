"""Self-test of the benchmark's generator, reference and output check.

Run from the repository root:  python3 -m pytest bench/test_bench.py
"""

import math

import mpmath as mp
import pytest

import check
from reference import ClosedForm, _bessel_k01
from run import tail
from workloads import WORKLOADS, Hop, Op, generate


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generation_is_deterministic(workload):
    first, again = generate(workload, 7), generate(workload, 7)
    assert [(op.scenario, op.flags) for op in first] == [(op.scenario, op.flags) for op in again]
    other = generate(workload, 8)
    assert [op.scenario for op in first] != [op.scenario for op in other]


def _rayleigh_op() -> Op:
    """Single-antenna Rayleigh link, hop means 3 and 10 dB, BPSK."""
    return Op("selftest", "ser-sweep", "", (), Hop("MRC", 1, 1, 1.0), Hop("STBC", 1, 1, 1.0),
              "exact", 3.0, (10.0,), modulations=("BPSK",), tol=1e-7)


def test_closed_form_reduces_to_hasna_alouini():
    form = ClosedForm(Hop("MRC", 1, 1, 1.0), Hop("STBC", 1, 1, 1.0), 3.0, 10.0, "exact")
    with mp.workdps(40):
        m1, m2 = mp.mpf(10.0 ** 0.3), mp.mpf(10)  # the means as floats, like the CLI
        for g in (mp.mpf("0.01"), mp.mpf(1), mp.mpf(7)):
            z = 2 * mp.sqrt(g * (g + 1) / (m1 * m2))
            hasna = 1 - z * mp.exp(-g * (1 / m1 + 1 / m2)) * mp.besselk(1, z)
            assert abs(form.cdf(g) - hasna) < mp.mpf(10) ** -30


@pytest.mark.parametrize("dps", [40, 50, 60])
def test_fixed_point_bessel_matches_mpmath(dps):
    """K0, K1 from the fixed-point series against mp.besselk, across its range."""
    with mp.workdps(dps):
        for z in ("1e-6", "0.003", "0.25", "1", "2.5", "7", "15", "30", "45", "59.9"):
            z = mp.mpf(z)
            for got, want in zip(_bessel_k01(z), (mp.besselk(0, z), mp.besselk(1, z))):
                assert abs(got / want - 1) < mp.mpf(10) ** (5 - dps), (dps, z)


def test_selection_closed_form_matches_direct_integral():
    """TAS on hop 2, harmonic combiner: against F2(g) + int F1(thr) f2 dy."""
    hop1, hop2 = Hop("STBC_MRC", 2, 2, 1.0), Hop("TAS_MRC", 2, 2, 1.0)
    form = ClosedForm(hop1, hop2, 2.0, 6.0, "harmonic")
    with mp.workdps(25):
        th1 = mp.mpf(10.0 ** 0.2) * 2 / 4
        th2 = mp.mpf(10.0 ** 0.6) * 2 / 2
        big_f1 = lambda t: mp.gammainc(4, 0, t / th1, regularized=True)  # noqa: E731
        base = lambda y: mp.gammainc(2, 0, y / th2, regularized=True)  # noqa: E731
        dens = lambda y: 2 * base(y) * y * mp.exp(-y / th2) / th2 ** 2  # noqa: E731
        g = mp.mpf("1.5")
        direct = base(g) ** 2 + mp.quad(lambda y: big_f1(g * y / (y - g)) * dens(y),
                                        [g, g + 1, g + 10, mp.inf])
        assert abs(form.cdf(g) - direct) < mp.mpf(10) ** -15


def _sweep_output(op, value: float) -> str:
    return ("# twohop selftest\n"
            "case,modulation,n_s,n_r,n_d,m,hop1_snr_db,hop2_snr_db,ser_analytical\n"
            f"SIMO_MISO,BPSK,1,1,1,1,3,{op.hop2_db[0]:g},{value!r}\n")


def test_check_flags_perturbation_nan_and_exit_code():
    op = _rayleigh_op()
    ref = check.expected(op)
    exact = ref["values"]["BPSK|10.0"]["value"]
    assert 0.1 < exact < 0.2
    passed = check.verdict(op, 0, _sweep_output(op, exact), ref)
    assert passed.failure is None and passed.verified == 1
    off = exact * (1 + 10 * op.tol)
    flagged = check.verdict(op, 0, _sweep_output(op, off), ref)
    assert flagged.failure == check.TOLERANCE
    assert flagged.worst_err_over_tol == pytest.approx(10, rel=1e-3)
    assert check.verdict(op, 0, _sweep_output(op, math.nan), ref).failure == check.NAN
    assert check.verdict(op, 3, _sweep_output(op, exact), ref).failure == check.EXIT
    assert check.verdict(op, 0, "", ref).failure == check.TOLERANCE


def test_tail_percentile_keeps_ten_ops_beyond():
    times = [float(i) for i in range(1, 101)]
    assert tail(times) == (90.0, 90.0)
    assert tail(times[:5]) == (5.0, 100.0)


def test_metric_names_match_benchmark_json():
    import json
    from pathlib import Path

    import run
    import tracing

    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.CONTRACT)
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.UNITS)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_traced_counts_repeat_and_cover_every_layer(tmp_path):
    import sys

    import run

    sys.path.insert(0, str(run.SRC))
    import tracing
    from twohop import cli

    text = ("case = SIMO_MISO\nn_s = 1\nn_r = 1\nn_d = 1\nhop1_snr_db = 3\n"
            "hop2_sweep_db = 10:10:1\nmodulations = BPSK\n")
    base = _rayleigh_op()
    ops = [Op("tiny-sweep", "ser-sweep", text, ("--samples", "2000"), base.hop1, base.hop2,
              "exact", 3.0, (10.0,), modulations=("BPSK",), samples=2000, tol=1e-7),
           Op("tiny-cdf", "cdf", text, ("--grid", "0.5,1,2", "--samples", "2000"), base.hop1,
              base.hop2, "exact", 3.0, (10.0,), grid=(0.5, 1.0, 2.0), samples=2000, tol=1e-8)]
    paths = {}
    for op in ops:
        paths[op.name] = tmp_path / f"{op.name}.scenario"
        paths[op.name].write_text(op.scenario)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            records = run.run_pass(cli.main, ops, paths, tmp_path / "out.csv")
        finally:
            tracer.uninstall()
        assert [code for _, _, code, _ in records] == [0, 0]
        metrics = tracer.metrics()
        assert set(metrics) == {k for k in tracing.UNITS if not k.startswith("trace.")}
        # The Monte-Carlo helpers get spans of their own (not cli self time).
        assert {"montecarlo.sweep_eq_samples", "relay.equivalent_snr",
                "ser.conditional_sep"} <= set(tracer.names)
        counts.append({k: v for k, v in metrics.items() if tracing.UNITS[k][0] == "count"})
    assert counts[0] == counts[1]
    for layer in tracing.MODULES:
        assert any(v > 0 for k, v in counts[0].items() if k.startswith(layer + ".")), layer
