"""Symbol error rates: kernel constants, the CDF-form integral, sweeps."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import special

from twohop.diversity import CombiningScheme, HopConfig, effective_distribution
from twohop.fading import GammaSnr, LawTable
from twohop.montecarlo import McRun, mc_ser, simulate_end_to_end
from twohop.numerics import gaussian_q
from twohop.relay import Combiner, LinkScenario, LinkTable, end_to_end_cdf
from twohop.scenario import link_at, load_scenario, parse_modulations
from twohop.ser import (
    PskModulation,
    _inner_floor,
    conditional_sep,
    ser_direct,
    ser_from_cdf,
    ser_sweep,
)

BPSK = PskModulation(2)
PSK8 = PskModulation(8)
PSK16 = PskModulation(16)


def any_owner(cdf):
    """``cdf`` as a ser_from_cdf callable: every integrand sees the same law."""
    return lambda g, owner: cdf(g)


def rayleigh_bpsk_ser(mean: float) -> float:
    """Closed form (1 - sqrt(mean/(1+mean)))/2 for a single Rayleigh hop."""
    return 0.5 * (1.0 - math.sqrt(mean / (1.0 + mean)))


def test_kernel_constants():
    assert (BPSK.a, BPSK.b) == (1.0, 1.0)
    assert PSK8.a == 2.0
    assert math.isclose(PSK8.b, 0.14644660940672624, rel_tol=1e-15)
    assert math.isclose(PSK16.b, 0.03806023374435662, rel_tol=1e-15)
    assert math.isclose(PskModulation(4).b, 0.5, rel_tol=1e-15)


def test_order_validation():
    for bad in (0, 1, 3, 6, -8):
        with pytest.raises(ValueError):
            PskModulation(bad)


def test_labels_round_trip():
    assert BPSK.label == "BPSK"
    assert PSK16.label == "PSK16"
    for mod in (BPSK, PSK8, PSK16):
        assert parse_modulations(mod.label, "modulations") == (mod,)
    with pytest.raises(ValueError):
        parse_modulations("QAM16", "modulations")
    with pytest.raises(ValueError):
        parse_modulations("PSK2", "modulations")  # spelled BPSK


def test_conditional_sep():
    assert conditional_sep(BPSK, 0.0) == 0.5
    # gamma solving Q(sqrt(2 gamma)) = 1e-3
    assert math.isclose(conditional_sep(BPSK, 4.77476785304162), 1e-3,
                        rel_tol=1e-9)
    values = conditional_sep(PSK8, np.linspace(0.0, 30.0, 20))
    assert values[0] == pytest.approx(1.0)
    assert np.all(np.diff(values) < 0)
    with pytest.raises(ValueError):
        conditional_sep(BPSK, -0.1)


@pytest.mark.parametrize("snr", [np.nan, np.array([1.0, np.nan]), -np.inf],
                         ids=["nan", "nan-array", "-inf"])
def test_conditional_sep_rejects_nan(snr):
    with pytest.raises(ValueError, match="nonnegative"):
        conditional_sep(BPSK, snr)


def test_conditional_sep_keeps_empty_arrays_and_infinity():
    assert conditional_sep(PSK8, np.empty(0)).shape == (0,)
    assert conditional_sep(BPSK, math.inf) == 0.0


@pytest.mark.parametrize("mod", [BPSK, PSK8, PSK16], ids=["BPSK", "PSK8", "PSK16"])
def test_conditional_sep_equals_its_plain_expression_bit_for_bit(mod):
    """The in-place SEP and Q against the expressions they replace."""
    snr = np.random.default_rng(4).gamma(1.0, 6.0, 5000)
    snr[::9] = 0.0
    plain_q = 0.5 * special.erfc(np.sqrt(2.0 * mod.b * snr) / math.sqrt(2.0))
    assert np.array_equal(gaussian_q(np.sqrt(2.0 * mod.b * snr)), plain_q)
    assert np.array_equal(conditional_sep(mod, snr), mod.a * plain_q)
    assert isinstance(conditional_sep(mod, np.float64(3.0)), float)
    assert conditional_sep(mod, 3.0) == conditional_sep(mod, np.array([3.0]))[0]


def test_certain_error_gives_half_a():
    certain = lambda g, owner: np.ones_like(g)
    mods = (BPSK, PSK8, PSK16)
    for mod, got in zip(mods, ser_from_cdf(mods, certain, tol=1e-9)):
        assert abs(got - mod.a / 2.0) <= 1e-9


def test_step_cdf_matches_q_value():
    g0 = 4.77476785304162
    step = lambda g, owner: (g >= g0).astype(float)
    got, = ser_from_cdf([BPSK], step, tol=1e-9)
    assert abs(got - 1e-3) <= 1e-8


def test_rayleigh_bpsk_closed_form():
    for mean in (1.0, 10.0, 100.0):
        got, = ser_from_cdf([BPSK], any_owner(GammaSnr(1.0, mean).cdf))
        assert abs(got - rayleigh_bpsk_ser(mean)) < 1e-6


def test_cdf_form_equals_direct_form():
    # integration-by-parts identity between the two SER integrals
    surrogates = [GammaSnr(1.0, 2.0), GammaSnr(3.5, 0.4),
                  GammaSnr(2.0, 5.0, 3)]
    for dist in surrogates:
        mods = (BPSK, PSK16)
        for mod, via_cdf in zip(mods, ser_from_cdf(mods, any_owner(dist.cdf))):
            via_pdf = ser_direct(mod, dist)
            assert abs(via_cdf - via_pdf) <= 1e-6


def test_larger_kernel_b_never_hurts():
    # with equal a, a larger b decays the kernel faster: PSK8 vs PSK16
    psk8, psk16 = ser_from_cdf((PSK8, PSK16), any_owner(GammaSnr(2.0, 5.0).cdf))
    assert psk8 <= psk16


def test_ser_decreases_with_mean_snr():
    values = [ser_from_cdf([BPSK], any_owner(GammaSnr(2.0, mean).cdf))[0]
              for mean in (1.0, 5.0, 25.0)]
    assert values[0] > values[1] > values[2]


def links_at(link: LinkScenario, hop1_db: float, grid) -> list[LinkScenario]:
    """``link`` at hop-1 mean ``hop1_db`` and each hop-2 mean of ``grid`` (dB)."""
    return [link_at(link, hop1_db, db) for db in grid]


def _mimo3_link() -> LinkScenario:
    hop = HopConfig(3, 3, 1.0, 1.0, CombiningScheme.STBC_MRC)
    return LinkScenario(hop, hop)


def test_transparent_second_hop_saturates_to_single_hop():
    # hop-2 mean one million times hop 1: the link is hop-1 limited
    link = _mimo3_link()
    d1 = effective_distribution(replace(link.hop1, mean_branch_snr=10 ** 0.3))
    d2 = effective_distribution(replace(link.hop2, mean_branch_snr=1e6))
    combined, = ser_from_cdf(
        [BPSK], any_owner(lambda g: end_to_end_cdf(d1, d2, g, Combiner.EXACT, 1e-9)))
    single, = ser_from_cdf([BPSK], any_owner(d1.cdf))
    assert abs(combined - single) <= 1e-3
    assert combined >= single  # the relay hop can only hurt


def test_sweep_structure():
    link = _mimo3_link()
    grid = np.array([0.0, 6.0, 12.0])
    ser = ser_sweep(links_at(link, 3.0, grid), [BPSK, PSK8], tol=1e-6)
    assert isinstance(ser, np.ndarray) and ser.shape == (2, 3)
    for mod, values in zip((BPSK, PSK8), ser):
        assert np.all((0.0 < values) & (values < mod.a / 2.0))
        assert values[0] > values[1] > values[2]
    assert np.all(ser[0] < ser[1])


def test_shared_sweep_matches_single_sweeps_with_fewer_cdf_points(monkeypatch):
    requested = []
    real_cdf = LinkTable.cdf

    def counting_cdf(table, gamma, *args):
        requested.append(np.size(gamma))
        return real_cdf(table, gamma, *args)

    monkeypatch.setattr(LinkTable, "cdf", counting_cdf)
    link = _mimo3_link()
    grid = np.array([2.0, 9.0])
    mods = (BPSK, PSK8, PSK16)
    singles = [ser_sweep(links_at(link, 3.0, grid), [mod]) for mod in mods]
    single_points = sum(requested)
    requested.clear()
    shared = ser_sweep(links_at(link, 3.0, grid), mods)
    assert np.array_equal(shared, np.vstack(singles))
    assert sum(requested) < single_points


def test_one_modulation_twice_reads_the_same_values():
    # two BPSK rows ask each round for every (link, gamma) twice: the round's
    # one lookup hands both the same value
    links = links_at(_mimo3_link(), 3.0, [2.0, 9.0])
    twice = ser_sweep(links, (BPSK, BPSK, PSK8))
    alone = ser_sweep(links, (BPSK,))
    assert np.all(np.isfinite(twice))
    assert np.array_equal(twice[0], twice[1])
    assert np.array_equal(twice[0], alone[0])


def test_several_hop1_means_in_one_sweep_match_their_own_sweeps():
    link = _mimo3_link()
    grid = [2.0, 9.0]
    mods = (BPSK, PSK16)
    ser = ser_sweep(links_at(link, 0.0, grid) + links_at(link, 6.0, grid), mods)
    alone = np.hstack([ser_sweep(links_at(link, hop1_db, grid), mods) for hop1_db in (0.0, 6.0)])
    assert np.all(np.isfinite(ser)) and np.array_equal(ser, alone)
    assert np.all(ser[:, :2] > ser[:, 2:])  # a stronger first hop only helps


def test_sweep_validates_inputs():
    links = links_at(_mimo3_link(), 3.0, [0.0, 5.0])
    with pytest.raises(ValueError):
        ser_sweep(links, [BPSK], tol=0.0)
    with pytest.raises(ValueError):
        ser_sweep(links, [BPSK], tol=0.5)
    with pytest.raises(ValueError):
        ser_sweep(links, ())
    with pytest.raises(ValueError, match="one combiner"):
        ser_sweep([], [BPSK])
    with pytest.raises(ValueError, match="one combiner"):
        ser_sweep([links[0], replace(links[1], combiner=Combiner.HARMONIC)], [BPSK])


def test_sweep_records_failed_points_instead_of_aborting():
    link = _mimo3_link()
    # a tolerance below the roundoff floor cannot be certified
    ser = ser_sweep(links_at(link, 3.0, [5.0]), [BPSK, PSK8], tol=1e-15)
    assert ser.shape == (2, 1)
    assert np.all(np.isnan(ser))


def test_ser_below_the_smallest_double_is_a_converged_zero():
    """STBC_MRC 64x64, m = 100, at 30/30 dB: the SER is about e^(-3e4), so 0.0 is correctly rounded."""
    hop = HopConfig(64, 64, 100.0, 1.0, CombiningScheme.STBC_MRC)
    link = link_at(LinkScenario(hop, hop), 30.0, 30.0)
    assert ser_sweep([link], [BPSK, PSK8, PSK16]).tolist() == [[0.0], [0.0], [0.0]]


def test_stuck_integrand_leaves_the_rest_of_the_batch_alone(monkeypatch):
    import twohop.ser as ser_module

    batch_sizes = []
    real_batch = ser_module.integrate_semi_infinite_batch

    def counting_batch(f, lo, *args, **kwargs):
        batch_sizes.append(np.size(lo))
        return real_batch(f, lo, *args, **kwargs)

    monkeypatch.setattr(ser_module, "integrate_semi_infinite_batch", counting_batch)
    g0 = 4.77476785304162
    step = lambda g: (g >= g0).astype(float)
    # a square wave of period 2e-6: no 2,048 intervals resolve it, and the
    # doubling refinement exhausts them before the step integrands finish,
    # which then go on refining in the same batch
    square_wave = lambda g: np.floor(g * 1e6) % 2.0
    mods = (BPSK, PSK8, PSK16)
    got = ser_from_cdf(mods, lambda g, owner: np.where(owner == 1, square_wave(g), step(g)),
                       tol=1e-9)
    assert batch_sizes == [3]  # the stuck integrand retired alone; nothing reran
    assert np.isnan(got[1])
    for i in (0, 2):
        alone, = ser_from_cdf([mods[i]], any_owner(step), tol=1e-9)
        assert got[i] == alone


def _tas_harmonic_link() -> LinkScenario:
    """TAS_MRC 2x2 then TAS_MRC 2x1, m = 0.5, harmonic combiner.

    The seed-410 op of bench/BASELINE.md, whose hop-1 mean was 4 dB.
    """
    return LinkScenario(HopConfig(2, 2, 0.5, 1.0, CombiningScheme.TAS_MRC),
                        HopConfig(2, 1, 0.5, 1.0, CombiningScheme.TAS_MRC),
                        Combiner.HARMONIC)


def _fail_near_one_on_the_far_link(mean, gamma):
    """On the TAS link at hop-1 2 dB, the inner CDF elements near gamma = 0.5 ... 1.1
    of the hop-2 26 dB link (hop-2 mean bound 796), not of the 5 dB one (6.3)."""
    return (mean > 100.0) & (0.5 <= gamma) & (gamma <= 1.1)


def test_inner_cdf_failure_fails_only_the_integrals_that_ask_for_it(monkeypatch,
                                                                   fail_inner_quadratures):
    link = _tas_harmonic_link()
    mods = (BPSK, PSK8, PSK16)
    grid = [5.0, 26.0]
    clean = ser_sweep(links_at(link, 2.0, grid), mods)
    fail_inner_quadratures(_fail_near_one_on_the_far_link)
    stuck = []
    real_cdf = LinkTable.cdf

    def recording_cdf(table, gamma, law, tol):
        values = real_cdf(table, gamma, law, tol)
        stuck.extend(zip(law[np.isnan(values)].tolist(), gamma[np.isnan(values)].tolist()))
        return values

    monkeypatch.setattr(LinkTable, "cdf", recording_cdf)
    ser = ser_sweep(links_at(link, 2.0, grid), mods)
    assert np.isnan(ser).tolist() == [[False, True]] * 3
    # the integrals of the 5 dB link ask nothing of the 26 dB one
    assert ser[:, 0].tolist() == clean[:, 0].tolist()
    assert stuck
    assert all(law == 1 and 0.5 < g < 1.1 for law, g in stuck)
    monkeypatch.setattr(LinkTable, "cdf", real_cdf)
    for i, mod in enumerate(mods):
        for j, db in enumerate(grid):
            alone = ser_sweep(links_at(link, 2.0, [db]), [mod])
            assert np.array_equal(alone[0, 0], ser[i, j], equal_nan=True), (mod.label, db)


@pytest.mark.parametrize("link", [
    _mimo3_link(),
    LinkScenario(HopConfig(2, 3, 1.5, 1.0, CombiningScheme.TAS_MRC),
                 HopConfig(3, 2, 0.5, 1.0, CombiningScheme.TAS_MRC)),
    _tas_harmonic_link(),
], ids=["mimo", "tas", "harmonic"])
def test_inner_floor_is_at_most_twice_every_ser_over_a(link):
    # The floor lets an inner CDF stop at an error of tol * floor, which is
    # tol * SER at most after the outer kernel only if floor <= 2 * SER / a.
    links = links_at(link, 3.0, [0.0, 20.0, 40.0])
    mods = (BPSK, PSK8, PSK16)
    ser = ser_sweep(links, mods)
    floor = _inner_floor([effective_distribution(x.hop1) for x in links],
                         [effective_distribution(x.hop2) for x in links])
    assert np.all(floor > 1e-300)
    for mod, row in zip(mods, ser):
        assert np.all(floor <= 2.0 * row / mod.a), mod.label


def test_tas_harmonic_psk8_cell_agrees_with_monte_carlo():
    # The 19 dB cell, against 2M draws of the link, within the benchmark's
    # 4.4 standard-error band.
    link = _tas_harmonic_link()
    ser = ser_sweep(links_at(link, 4.0, [19.0]), [PSK8])[0, 0]
    at_means = LinkScenario(replace(link.hop1, mean_branch_snr=10.0 ** 0.4),
                            replace(link.hop2, mean_branch_snr=10.0 ** 1.9), link.combiner)
    estimate, halfwidth = mc_ser(PSK8, simulate_end_to_end(at_means, McRun(410, 2_000_000)))
    assert abs(ser - estimate) <= 4.4 * halfwidth / 1.96


@pytest.mark.parametrize("combiner", list(Combiner))
def test_sweep_equals_stacked_single_point_sweeps(combiner):
    link = LinkScenario(HopConfig(2, 2, 1.5, 1.0, CombiningScheme.STBC_MRC),
                        HopConfig(2, 3, 0.5, 1.0, CombiningScheme.TAS_MRC), combiner)
    assert effective_distribution(link.hop2).candidates > 1
    grid = [0.0, 6.0, 12.0, 18.0]
    mods = (BPSK, PSK16)
    swept = ser_sweep(links_at(link, 3.0, grid), mods)
    single = np.hstack([ser_sweep(links_at(link, 3.0, [db]), mods) for db in grid])
    assert np.all(np.isfinite(swept))
    assert np.array_equal(swept, single, equal_nan=True)


def test_one_cdf_call_per_outer_round_and_no_gamma_asked_twice(monkeypatch, scenario_dir,
                                                               fail_inner_quadratures):
    import twohop.ser as ser_module

    requests = []
    batches = []  # per quadrature batch, the CDF calls of each of its rounds
    real_batch = ser_module.integrate_semi_infinite_batch
    real_cdf = LinkTable.cdf

    def counting_cdf(table, gamma, law, tol):
        requests.append(list(zip(law.tolist(), gamma.tolist())))
        return real_cdf(table, gamma, law, tol)

    def counting_batch(f, *args, **kwargs):
        calls_per_round = []
        batches.append(calls_per_round)

        def integrand(x, owner):
            before = len(requests)
            out = f(x, owner)
            calls_per_round.append(len(requests) - before)
            return out
        return real_batch(integrand, *args, **kwargs)

    monkeypatch.setattr(LinkTable, "cdf", counting_cdf)
    monkeypatch.setattr(ser_module, "integrate_semi_infinite_batch", counting_batch)
    scenario = load_scenario(scenario_dir / "mimo_n3.scenario")
    mimo_n3 = links_at(scenario.link, scenario.hop1_snr_db[0], scenario.sweep.values())
    tas = links_at(_tas_harmonic_link(), 2.0, [5.0, 26.0])
    # failing, the 26 dB link has inner CDF elements that do not converge:
    # each retires its integrand in the round that meets it, so nothing
    # asks for it again and that integrand adds no round of its own
    for links, mods, failing, lost, rounds in [(mimo_n3, scenario.modulations, False, 0, 2),
                                               (tas, (BPSK, PSK8, PSK16), True, 3, 2)]:
        if failing:
            fail_inner_quadratures(_fail_near_one_on_the_far_link)
        requests.clear()
        batches.clear()
        ser = ser_sweep(links, mods)
        assert ser.shape == (len(mods), len(links)) and np.isnan(ser).sum() == lost
        # the inner floors' batch asks for no end-to-end CDF; the SER batch
        # asks at most once a round
        floor_rounds, calls_per_round = batches
        assert not any(floor_rounds)
        assert set(calls_per_round) <= {0, 1} and requests
        assert len(calls_per_round) == rounds
        pairs = [pair for request in requests for pair in request]
        assert len(pairs) == len(set(pairs))


def _record_rounds(monkeypatch):
    """Per outer quadrature round, the (link, gamma) pairs of each ``LinkTable.cdf`` call.

    A round is one ``numerics._apply_rule`` call made outside a
    ``LinkTable.cdf`` call; ``_apply_rule`` evaluates its intervals in
    chunks of ``_RULE_CHUNK``, and each chunk makes its own call.
    """
    import twohop.numerics as numerics_module

    rounds, depth = [], [0]
    real_rule = numerics_module._apply_rule
    real_cdf = LinkTable.cdf

    def counting_rule(f, a, b, owner):
        if not depth[0]:
            rounds.append([])
        return real_rule(f, a, b, owner)

    def counting_cdf(table, gamma, law, tol):
        rounds[-1].append(list(zip(law.tolist(), gamma.tolist())))
        depth[0] += 1
        try:
            return real_cdf(table, gamma, law, tol)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(numerics_module, "_apply_rule", counting_rule)
    monkeypatch.setattr(LinkTable, "cdf", counting_cdf)
    return rounds


def _mimo_n2_links(scenario_dir, count: int) -> list[LinkScenario]:
    scenario = load_scenario(scenario_dir / "mimo_n2.scenario")
    return [link_at(scenario.link, 2.0, db) for db in np.linspace(0.0, 20.0, count).tolist()]


def test_a_chunk_boundary_repeats_at_most_one_links_requests(monkeypatch, scenario_dir):
    # 360 links x 3 modulations x 4 start pieces is over the 4,096 intervals
    # of one rule chunk, so rounds run in several chunks, each with its own
    # lookup.  A link's modulations sit side by side, so a (link, gamma)
    # pair is asked twice only on a link that straddles a chunk boundary.
    rounds = _record_rounds(monkeypatch)
    ser = ser_sweep(_mimo_n2_links(scenario_dir, 360), (BPSK, PSK8, PSK16))
    assert np.isfinite(ser).all()
    assert max(len(calls) for calls in rounds) > 1
    seen = set()
    for calls in rounds:
        pairs = [pair for call in calls for pair in call]
        distinct = set(pairs)
        assert not distinct & seen  # no pair recurs in a later round
        seen |= distinct
        repeated = {link for (link, _), n in Counter(pairs).items() if n > 1}
        assert len(repeated) <= max(len(calls) - 1, 0)
        per_link = Counter(link for link, _ in distinct)
        assert len(pairs) - len(distinct) <= len(repeated) * max(per_link.values(), default=0)


def test_requests_per_link_do_not_grow_with_the_batch(monkeypatch, scenario_dir):
    rounds, per_link = _record_rounds(monkeypatch), {}
    for count in (120, 480):
        rounds.clear()
        ser_sweep(_mimo_n2_links(scenario_dir, count), (BPSK, PSK8, PSK16))
        requests = sum(len(call) for calls in rounds for call in calls)
        per_link[count] = requests / count
    assert per_link[480] <= 1.02 * per_link[120]


def test_one_sweep_tabulates_each_hop_once_whatever_its_rounds(monkeypatch, scenario_dir):
    # A sweep's link table serves every outer round: each hop's laws are
    # tabulated once over all links, and each hop's saturations found once.
    import twohop.relay as relay_module

    built, saturations, cdf_calls = [], [], []
    real_table, real_saturation, real_cdf = LawTable, LawTable.saturation, LinkTable.cdf

    def counting_table(laws):
        built.append(len(laws))
        return real_table(laws)

    def counting_saturation(table, *args):
        saturations.append(table.shape.size)
        return real_saturation(table, *args)

    def counting_cdf(table, *args):
        cdf_calls.append(1)
        return real_cdf(table, *args)

    monkeypatch.setattr(relay_module, "LawTable", counting_table)
    monkeypatch.setattr(LawTable, "saturation", counting_saturation)
    monkeypatch.setattr(LinkTable, "cdf", counting_cdf)
    scenario = load_scenario(scenario_dir / "mimo_n3.scenario")
    mimo_n3 = [link_at(scenario.link, hop1_db, db) for hop1_db in scenario.hop1_snr_db
               for db in scenario.sweep.values().tolist()]
    for links in (mimo_n3, _mimo_n2_links(scenario_dir, 360)):
        built.clear()
        saturations.clear()
        cdf_calls.clear()
        assert np.isfinite(ser_sweep(links, (BPSK, PSK8, PSK16))).all()
        assert len(cdf_calls) > 1
        assert built == [len(links)] * 2
        assert saturations == [len(links)] * 2


def test_sweep_work_stays_within_its_counted_budget(monkeypatch, scenario_dir):
    # Quadrature rule calls (inner and outer) and intervals evaluated on the
    # mimo_n3 curves at hop-1 2 dB; they do not vary between machines, and
    # the bounds are the counts at which they stand.
    import twohop.numerics as numerics_module

    calls, intervals = [], []
    real_rule = numerics_module._apply_rule

    def counting_rule(f, a, b, owner):
        calls.append(1)
        intervals.append(a.size)
        return real_rule(f, a, b, owner)

    monkeypatch.setattr(numerics_module, "_apply_rule", counting_rule)
    scenario = load_scenario(scenario_dir / "mimo_n3.scenario")
    assert [mod.label for mod in scenario.modulations] == ["BPSK", "PSK8", "PSK16"]
    ser = ser_sweep([link_at(scenario.link, 2.0, db) for db in scenario.sweep.values()],
                    scenario.modulations)
    assert ser.shape == (3, 21) and np.isfinite(ser).all()
    assert len(calls) <= 7
    assert sum(intervals) <= 11_886


def test_quantile_spot_check_against_conditional_sep():
    # a step CDF at the SEP=1e-3 SNR reproduces Q through the kernel, so
    # the kernel and the conditional SEP agree on where 1e-3 sits
    g0 = 4.77476785304162
    assert math.isclose(BPSK.a * gaussian_q(math.sqrt(2.0 * BPSK.b * g0)),
                        1e-3, rel_tol=1e-9)
