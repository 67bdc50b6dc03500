"""Scenario file parsing: golden inputs, defaults, and field-level errors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twohop.diversity import CombiningScheme
from twohop.relay import Combiner
from twohop.scenario import (
    MAX_ABS_DB,
    MAX_ANTENNAS,
    MAX_FADING_FIGURE,
    MAX_MC_SAMPLES,
    Scenario,
    ScenarioError,
    SweepSpec,
    db_to_linear,
    linear_to_db,
    link_at,
    load_scenario,
    parse_scenario,
    parse_sweep,
)

GOLDEN = """\
# relay bench, both hops orthogonal-coded into MRC
name = golden
case = MIMO_MIMO
n_s = 2
n_r = 3
n_d = 4
m = 1.5
hop1_snr_db = 2, 3
hop2_sweep_db = 0:20:5
modulations = BPSK, PSK16
mc_seed = 7
mc_samples = 1000
"""

# minimal valid scenario that the error-case table below mutates
BASE = {
    "case": "MIMO_MIMO",
    "n_s": "2",
    "n_r": "2",
    "n_d": "2",
    "hop1_snr_db": "3",
    "hop2_sweep_db": "0:10:5",
    "modulations": "BPSK",
}


def render(**overrides):
    pairs = {**BASE, **overrides}
    return "\n".join(f"{key} = {value}" for key, value in pairs.items()
                     if value is not None)


def test_golden_scenario_parses_completely():
    sc = parse_scenario(GOLDEN)
    assert sc.name == "golden"
    assert sc.case == "MIMO_MIMO"
    assert (sc.n_s, sc.n_r, sc.n_d) == (2, 3, 4)
    assert sc.link.hop1.scheme is CombiningScheme.STBC_MRC
    assert sc.link.hop2.scheme is CombiningScheme.STBC_MRC
    assert (sc.link.hop1.n_tx, sc.link.hop1.n_rx) == (2, 3)
    assert (sc.link.hop2.n_tx, sc.link.hop2.n_rx) == (3, 4)
    assert sc.link.hop1.m == sc.link.hop2.m == 1.5
    assert sc.hop1_snr_db == (2.0, 3.0)
    assert np.allclose(sc.sweep.values(), [0.0, 5.0, 10.0, 15.0, 20.0])
    assert sc.link.combiner is Combiner.EXACT     # default
    assert sc.hop2_snr_db == 10.0                 # sweep midpoint default
    assert [mod.label for mod in sc.modulations] == ["BPSK", "PSK16"]
    assert (sc.mc_seed, sc.mc_samples) == (7, 1000)


def test_custom_case_with_per_hop_overrides():
    text = render(
        case="CUSTOM", n_s=None, n_r=None, n_d=None,
        hop1_scheme="tas_mrc", hop1_n_tx="3", hop1_n_rx="2",
        hop2_scheme="STBC_MRC", hop2_n_tx="2", hop2_n_rx="2",
        hop1_m="2", hop2_m="0.5", combiner="harmonic", hop2_snr_db="4",
    )
    sc = parse_scenario(text)
    assert sc.name == "scenario"                  # fallback when no name key
    assert sc.link.hop1.scheme is CombiningScheme.TAS_MRC
    assert sc.link.hop2.scheme is CombiningScheme.STBC_MRC
    assert (sc.link.hop1.m, sc.link.hop2.m) == (2.0, 0.5)
    assert sc.link.combiner is Combiner.HARMONIC
    assert sc.hop2_snr_db == 4.0
    assert (sc.n_s, sc.n_r, sc.n_d) == (3, 2, 2)


def test_mixed_cases_pick_their_schemes():
    miso = parse_scenario(render(case="MISO_SIMO", n_r="1"))
    assert miso.link.hop1.scheme is CombiningScheme.STBC
    assert miso.link.hop2.scheme is CombiningScheme.MRC
    simo = parse_scenario(render(case="SIMO_MISO", n_s="1", n_d="1"))
    assert simo.link.hop1.scheme is CombiningScheme.MRC
    assert simo.link.hop2.scheme is CombiningScheme.STBC
    assert (simo.link.hop1.n_rx, simo.link.hop2.n_tx) == (2, 2)


def test_link_at_converts_decibels():
    sc = parse_scenario(render())
    link = link_at(sc.link, 3.0, 10.0)
    assert link.hop1.mean_branch_snr == pytest.approx(10.0 ** 0.3)
    assert link.hop2.mean_branch_snr == pytest.approx(10.0)
    assert link.combiner is sc.link.combiner
    # templates are immutable; the placeholder mean stays untouched
    assert sc.link.hop1.mean_branch_snr == 1.0


def test_sweep_values_hit_start_and_step():
    assert np.allclose(SweepSpec(0.0, 20.0, 1.0).values(), np.arange(21.0))
    coarse = SweepSpec(0.0, 20.0, 3.0).values()
    assert np.allclose(coarse, [0, 3, 6, 9, 12, 15, 18])
    fine = SweepSpec(0.0, 1.0, 0.1).values()
    assert fine.size == 11 and fine[-1] == pytest.approx(1.0)
    single = SweepSpec(5.0, 5.0, 2.0).values()
    assert np.allclose(single, [5.0])


def test_sweep_point_cap():
    # 10,000 points pass; one more, or a step that gives millions, exits 2
    assert parse_sweep("-1000:249.875:0.125", "f").values().size == 10_000
    for raw in ("-1000:250:0.125", "0:20:1e-6", "0:20:5e-324"):
        with pytest.raises(ScenarioError, match="more than 10000") as info:
            parse_sweep(raw, "f")
        assert info.value.field == "f"


@pytest.mark.parametrize("overrides, field", [
    (dict(case=None), "case"),
    (dict(case="RELAY"), "case"),
    (dict(hop1_scheme="MRC"), "hop1_scheme"),     # CUSTOM-only key
    (dict(n_r=None), "n_r"),
    (dict(n_r="0"), "n_r"),
    (dict(n_s="2.5"), "n_s"),
    (dict(m="0.25"), "m"),
    (dict(hop1_m="0.1"), "hop1_m"),
    (dict(hop1_snr_db=None), "hop1_snr_db"),
    (dict(hop1_snr_db=","), "hop1_snr_db"),
    (dict(hop1_snr_db="2, zero"), "hop1_snr_db"),
    (dict(hop2_sweep_db=None), "hop2_sweep_db"),
    (dict(hop2_sweep_db="0:10"), "hop2_sweep_db"),
    (dict(hop2_sweep_db="0:10:0"), "hop2_sweep_db"),
    (dict(hop2_sweep_db="5:1:1"), "hop2_sweep_db"),
    (dict(hop2_sweep_db="a:b:c"), "hop2_sweep_db"),
    (dict(hop2_snr_db="fast"), "hop2_snr_db"),
    (dict(modulations=None), "modulations"),
    (dict(modulations=","), "modulations"),
    (dict(modulations="QAM16"), "modulations"),
    (dict(modulations="PSK32"), "modulations"),
    (dict(combiner="best"), "combiner"),
    (dict(mc_seed="-1"), "mc_seed"),
    (dict(mc_seed="soon"), "mc_seed"),
    (dict(mc_samples="0"), "mc_samples"),
    (dict(hop2_sweep_db="0:2500:0.25"), "hop2_sweep_db"),   # 10,001 points
])
def test_invalid_inputs_name_the_field(overrides, field):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(render(**overrides))
    assert info.value.field == field


_CUSTOM_STBC_MRC = dict(case="CUSTOM", n_s=None, n_r=None, n_d=None,
                        hop1_scheme="STBC_MRC", hop1_n_tx="2", hop1_n_rx="2",
                        hop2_scheme="STBC_MRC", hop2_n_tx="2", hop2_n_rx="2")


@pytest.mark.parametrize("base, keys, lo, hi", [
    ({}, ("n_s",), 1, MAX_ANTENNAS),
    ({}, ("n_r",), 1, MAX_ANTENNAS),
    ({}, ("n_d",), 1, MAX_ANTENNAS),
    (_CUSTOM_STBC_MRC, ("hop1_n_tx",), 1, MAX_ANTENNAS),
    (_CUSTOM_STBC_MRC, ("hop1_n_rx", "hop2_n_tx"), 1, MAX_ANTENNAS),  # the relay's count
    (_CUSTOM_STBC_MRC, ("hop2_n_rx",), 1, MAX_ANTENNAS),
    ({}, ("m",), 0.5, MAX_FADING_FIGURE),
    ({}, ("hop1_m",), 0.5, MAX_FADING_FIGURE),
    ({}, ("hop2_m",), 0.5, MAX_FADING_FIGURE),
    ({}, ("hop1_snr_db",), -MAX_ABS_DB, MAX_ABS_DB),
    ({}, ("hop2_snr_db",), -MAX_ABS_DB, MAX_ABS_DB),
    ({}, ("hop2_sweep_db",), -MAX_ABS_DB, MAX_ABS_DB),
    ({}, ("mc_samples",), 1, MAX_MC_SAMPLES),
], ids=lambda v: "/".join(v) if isinstance(v, tuple) else None)
def test_range_ends_pass_and_the_values_just_outside_fail(base, keys, lo, hi):
    def parse(value):
        raw = f"{value!r}:{value!r}:1" if keys == ("hop2_sweep_db",) else repr(value)
        return parse_scenario(render(**{**base, **dict.fromkeys(keys, raw)}))

    for end in (lo, hi):
        parse(end)
    if isinstance(lo, int):
        outside = (lo - 1, hi + 1)
    else:
        outside = (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))
    for value in outside:
        with pytest.raises(ScenarioError) as info:
            parse(value)
        assert info.value.field == keys[0]


@pytest.mark.parametrize("overrides, field", [
    (dict(case="MISO_SIMO", n_r="2"), "n_r"),
    (dict(case="SIMO_MISO", n_s="2", n_d="1"), "n_s"),
    (dict(case="SIMO_MISO", n_s="1", n_d="3"), "n_d"),
])
def test_case_shape_constraints(overrides, field):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(render(**overrides))
    assert info.value.field == field


def _custom(**overrides):
    pairs = dict(case="CUSTOM", n_s=None, n_r=None, n_d=None,
                 hop1_scheme="MRC", hop1_n_tx="1", hop1_n_rx="2",
                 hop2_scheme="STBC", hop2_n_tx="2", hop2_n_rx="1")
    pairs.update(overrides)
    return render(**pairs)


def test_custom_relay_counts_must_agree():
    with pytest.raises(ScenarioError) as info:
        parse_scenario(_custom(hop2_n_tx="3"))
    assert info.value.field == "hop2_n_tx"


def test_custom_requires_both_schemes():
    with pytest.raises(ScenarioError) as info:
        parse_scenario(_custom(hop2_scheme=None, hop2_n_tx=None, hop2_n_rx=None))
    assert info.value.field == "hop2_scheme"
    with pytest.raises(ScenarioError) as info:
        parse_scenario(_custom(hop1_scheme="BEAMFORM"))
    assert info.value.field == "hop1_scheme"


def test_custom_scheme_shape_rules_apply():
    # MRC with several transmit antennas is not a thing
    with pytest.raises(ScenarioError) as info:
        parse_scenario(_custom(hop1_n_tx="2", hop2_n_tx="2"))
    assert info.value.field == "hop1_scheme"


def test_duplicate_and_malformed_lines():
    with pytest.raises(ScenarioError) as info:
        parse_scenario("case = MIMO_MIMO\ncase = CUSTOM\n")
    assert info.value.field == "case"
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("# fine\njust words\n")


def test_comments_blanks_and_spacing_are_tolerated():
    text = "\n\n  # indented comment\n  case=MIMO_MIMO\nn_s =2\nn_r= 2\n" \
           "n_d = 2\nhop1_snr_db = 3\nhop2_sweep_db = 0:10:5\nmodulations = bpsk\n"
    sc = parse_scenario(text)
    assert sc.case == "MIMO_MIMO"
    assert sc.modulations[0].label == "BPSK"


def test_load_scenario_uses_file_stem(tmp_path):
    path = tmp_path / "bench_a.scenario"
    path.write_text(render(), encoding="utf-8")
    assert load_scenario(path).name == "bench_a"


def test_load_scenario_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.scenario"
    path.write_text(render(), encoding="utf-8-sig")
    assert load_scenario(path).case == "MIMO_MIMO"


def test_shipped_scenarios_all_load(scenario_dir):
    paths = sorted(scenario_dir.glob("*.scenario"))
    assert len(paths) == 7
    by_name: dict[str, Scenario] = {}
    for path in paths:
        sc = load_scenario(path)
        assert sc.name == path.stem
        by_name[sc.name] = sc

    mimo = by_name["mimo_n3"]
    assert mimo.case == "MIMO_MIMO"
    assert (mimo.n_s, mimo.n_r, mimo.n_d) == (3, 3, 3)
    assert mimo.sweep.values().size == 21
    assert mimo.hop2_snr_db == 10.0
    assert (mimo.mc_seed, mimo.mc_samples) == (42, 200000)
    assert [mod.label for mod in mimo.modulations] == ["BPSK", "PSK8", "PSK16"]

    tas = by_name["custom_tas"]
    assert tas.link.combiner is Combiner.HARMONIC
    assert tas.link.hop1.scheme is CombiningScheme.TAS_MRC
    assert (tas.link.hop1.m, tas.link.hop2.m) == (2.0, 1.0)

    assert by_name["miso_simo_n3"].link.hop1.scheme is CombiningScheme.STBC
    assert by_name["simo_miso_nr2"].n_r == 2
    assert by_name["simo_miso_nr4"].n_r == 4


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=-60.0, max_value=90.0))
def test_db_conversion_round_trips(db):
    assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-9)


def test_db_conversion_anchors():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0)
    assert db_to_linear(3.0) == pytest.approx(1.9952623149688795)
    assert linear_to_db(100.0) == pytest.approx(20.0)
