"""Command-line front end: scenario-driven sweeps, CDF tables, validation.

Commands write CSV (with ``#`` metadata comment lines) to --out or stdout.
Outputs are deterministic for a fixed scenario, tolerance and seed; the
--threads flag only changes how Monte-Carlo work is scheduled, never the
bytes produced.

Exit codes: 0 success; 1 a validate check failed; 2 scenario or flag
validation error; 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .diversity import effective_distribution
from .fading import LawTable
from .montecarlo import (_LINK_STREAM_HOP1, _LINK_STREAM_HOP2, McRun, empirical_cdf, mc_ser,
                         simulate_hop, sweep_eq_samples)
from .numerics import DEFAULT_CDF_TOL, DEFAULT_SER_TOL
from .relay import Combiner, LinkScenario, end_to_end_cdf_grid, equivalent_snr
from .scenario import (MAX_ABS_DB, MAX_ANTENNAS, MAX_FADING_FIGURE, MAX_MC_SAMPLES,
                       MAX_SWEEP_POINTS, Scenario, ScenarioError, check_range, link_at,
                       load_scenario, parse_modulations, parse_sweep, placement_hops)
from .ser import ser_sweep

DEFAULT_SEED = 1729
DEFAULT_SWEEP_MC_SAMPLES = 100_000
DEFAULT_CDF_MC_SAMPLES = 200_000
VALIDATE_KS_SAMPLES = 100_000
VALIDATE_CDF_SAMPLES = 1_000_000
#: Chance that a validate check fails on correct code: each limit is a finite-sample
#: bound (DKW, empirical Bernstein) that n samples exceed with at most this probability.
ALPHA = 1e-6
#: Hop tail mass above the top of the default cdf/validate grid.
GRID_TAIL_MASS = 1e-3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twohop",
        description="SNR distribution and symbol error rate of a two-hop "
                    "amplified relay link with antenna diversity.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH",
                        help="write output here instead of stdout")
    common.add_argument("--tol", type=float, metavar="REL",
                        help="relative tolerance of the outer quadrature")
    common.add_argument("--combiner", choices=[c.value for c in Combiner],
                        help="combiner override")

    scen = argparse.ArgumentParser(add_help=False)
    scen.add_argument("--scenario", required=True, metavar="PATH",
                      help="scenario file (see the package README for the format)")
    scen.add_argument("--seed", type=int, metavar="U64",
                      help="Monte-Carlo master seed (overrides the scenario)")
    scen.add_argument("--samples", type=int, metavar="N",
                      help="Monte-Carlo sample count (overrides the scenario)")
    scen.add_argument("--threads", type=int, default=1, metavar="N",
                      help="Monte-Carlo worker threads, capped at the CPU count "
                           "(never changes results)")

    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--full-precision", action="store_true",
                       help="print probabilities at full float precision")

    p = sub.add_parser("ser-sweep", parents=[scen, common, table],
                       help="SER vs hop-2 mean SNR as CSV")
    p.set_defaults(func=cmd_ser_sweep)

    p = sub.add_parser("cdf", parents=[scen, common, table],
                       help="analytical vs Monte-Carlo end-to-end CDF as CSV")
    p.add_argument("--grid", metavar="SPEC",
                   help="linear-SNR grid, 'lo:hi:count' or comma list "
                        "(default: 50 points up to a bound on the 99.9%% quantile "
                        "from the hop laws)")
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("validate", parents=[scen, common],
                       help="run the oracle-equivalence checks for a scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare-cases", parents=[common, table],
                       help="SER of the three antenna placements side by side")
    p.add_argument("--n", type=int, required=True, metavar="N",
                   help="antenna count of each populated node")
    p.add_argument("--m", type=float, default=1.0, help="fading figure (default 1)")
    p.add_argument("--hop1-snr-db", type=float, default=3.0, metavar="DB")
    p.add_argument("--sweep", default="0:20:1", metavar="START:STOP:STEP")
    p.add_argument("--modulations", default="BPSK", metavar="LIST",
                   help="comma list from BPSK, PSK8, PSK16 (default BPSK)")
    p.set_defaults(func=cmd_compare_cases)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        field = f" (field: {exc.field})" if exc.field else ""
        print(f"twohop: invalid configuration: {exc}{field}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"twohop: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# shared plumbing

def _load(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    if args.combiner:
        scenario = replace(scenario,
                           link=replace(scenario.link, combiner=Combiner(args.combiner)))
    return scenario


def _outer_tol(args, default: float) -> float:
    tol = args.tol if args.tol is not None else default
    if not 0.0 < tol <= 1e-2:
        raise ScenarioError(f"--tol must lie in (0, 1e-2], got {tol}", field="tol")
    return tol


def _mc_settings(args, fallback_seed: int | None,
                 fallback_samples: int) -> tuple[int, int]:
    """Checked Monte-Carlo seed and sample count; --seed and --samples win."""
    seed = next(v for v in (args.seed, fallback_seed, DEFAULT_SEED) if v is not None)
    samples = args.samples if args.samples is not None else fallback_samples
    check_range(args.threads, 1, math.inf, "threads")
    return (check_range(seed, 0, math.inf, "seed"),
            check_range(samples, 1, MAX_MC_SAMPLES, "samples"))


def _fmt_prob(x: float, full: bool) -> str:
    """``repr`` if ``full``, else fixed decimal notation with 6 significant digits."""
    if full:
        return repr(float(x))
    if not math.isfinite(x):
        return "nan"
    if x == 0:
        return "0.000000"
    exponent = math.floor(math.log10(abs(x)))
    return f"{x:.{max(0, 5 - exponent)}f}"


def _fmt_num(x: float) -> str:
    return f"{x:g}"


def _fmt_m(scenario: Scenario) -> str:
    m1, m2 = scenario.link.hop1.m, scenario.link.hop2.m
    return f"{m1:g}" if m1 == m2 else f"{m1:g}/{m2:g}"


def _meta(command: str, scenario: Scenario, tol: float,
          seed: int | None, samples: int | None) -> list[str]:
    lines = [f"# twohop {__version__} {command}",
             f"# scenario: {scenario.name}  case: {scenario.case}  "
             f"combiner: {scenario.link.combiner.value}",
             f"# tol: {tol:g}"]
    if seed is not None:
        lines.append(f"# mc_seed: {seed}  mc_samples: {samples}")
    return lines


def _finish(lines: list[str], out: str | None, failed: list[str]) -> int:
    """Write the table to ``out`` or stdout; exit 3 naming each ``failed`` point, if any."""
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if failed:
        print(f"twohop: quadrature did not converge at: {'; '.join(failed)}",
              file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# ser-sweep

def cmd_ser_sweep(args) -> int:
    scenario = _load(args)
    tol = _outer_tol(args, DEFAULT_SER_TOL)
    use_mc = any(v is not None for v in
                 (args.seed, args.samples, scenario.mc_seed, scenario.mc_samples))
    seed, samples = _mc_settings(args, scenario.mc_seed,
                                 scenario.mc_samples or DEFAULT_SWEEP_MC_SAMPLES)
    mods = scenario.modulations

    # Link p is at the dB means points[p]; on it, mods[i] has the SER
    # ser[i, p] and the (estimate, halfwidth) mc[p][i].
    points = [(hop1_db, db) for hop1_db in scenario.hop1_snr_db
              for db in scenario.sweep.values().tolist()]
    links = [link_at(scenario.link, *point) for point in points]
    run = McRun(seed, samples, args.threads)
    mc = list(sweep_eq_samples(links, mods, run)) if use_mc else []
    ser = ser_sweep(links, mods, tol)

    lines = _meta("ser-sweep", scenario, tol,
                  seed if use_mc else None, samples if use_mc else None)
    header = "case,modulation,n_s,n_r,n_d,m,hop1_snr_db,hop2_snr_db,ser_analytical"
    if use_mc:
        header += ",ser_mc,mc_halfwidth"
    lines.append(header)

    failed = []
    for i, mod in enumerate(mods):
        for p, (hop1_db, db) in enumerate(points):
            value = float(ser[i, p])
            row = [scenario.case, mod.label, str(scenario.n_s),
                   str(scenario.n_r), str(scenario.n_d), _fmt_m(scenario),
                   _fmt_num(hop1_db), _fmt_num(db),
                   _fmt_prob(value, args.full_precision)]
            if use_mc:
                row.extend(_fmt_prob(x, args.full_precision) for x in mc[p][i])
            lines.append(",".join(row))
            if math.isnan(value):
                failed.append(f"{mod.label} hop1={hop1_db:g} dB hop2={db:g} dB")
    return _finish(lines, args.out, failed)


# ---------------------------------------------------------------------------
# cdf

def _parse_grid(spec: str | None) -> np.ndarray | None:
    """The --grid points, or None when the flag is absent."""
    if spec is None:
        return None
    raw = spec.strip()
    if ":" in raw:
        try:
            lo, hi, count = raw.split(":")
            lo, hi, count = float(lo), float(hi), int(count)
        except ValueError:
            raise ScenarioError(f"--grid must be lo:hi:count, got {spec!r}",
                                field="grid") from None
        if not 1 <= count <= MAX_SWEEP_POINTS:
            raise ScenarioError(f"--grid needs 1 <= count <= {MAX_SWEEP_POINTS}, "
                                f"got {spec!r}", field="grid")
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite ends fail below
            points = np.linspace(lo, hi, count)
    else:
        try:
            points = np.array([float(t) for t in raw.split(",") if t.strip()])
        except ValueError:
            raise ScenarioError(f"--grid must be lo:hi:count or a comma list, "
                                f"got {spec!r}", field="grid") from None
        if not 0 < points.size <= MAX_SWEEP_POINTS:
            raise ScenarioError(f"--grid needs 1 to {MAX_SWEEP_POINTS} points, "
                                f"got {points.size}", field="grid")
    if (not np.all(np.isfinite(points) & (points >= 0))
            or (points.size > 1 and not np.all(np.diff(points) > 0))):
        raise ScenarioError("--grid must be finite, nonnegative and strictly increasing",
                            field="grid")
    return points


def _cdf_table(args, scenario: Scenario, tol: float, seed: int, samples: int, grid, n_hop=0):
    """The end-to-end CDF table of the operating point, for cdf and validate.

    Returns the link, its hop laws, the first ``n_hop`` of ``samples`` MC draws of
    each hop (the streams of ``simulate_end_to_end``), the ``samples`` draws
    of their eq, the grid, and the analytic and empirical CDF columns on it.  Without
    a ``grid``, 50 points span [0, top], top being the smaller of the two hops' points
    above which at most ``GRID_TAIL_MASS`` of the hop's mass lies.  eq <= min(g1, g2),
    so top bounds eq's quantile at 1 - ``GRID_TAIL_MASS`` from above, and the grid
    follows from the laws alone.
    """
    link = link_at(scenario.link, scenario.hop1_snr_db[0], scenario.hop2_snr_db)
    laws = effective_distribution(link.hop1), effective_distribution(link.hop2)
    run = McRun(seed, samples, args.threads)
    hops = (simulate_hop(link.hop1, run, stream=_LINK_STREAM_HOP1),
            simulate_hop(link.hop2, run, stream=_LINK_STREAM_HOP2))
    eq = equivalent_snr(*hops, link.combiner)
    hops = [g[:n_hop].copy() for g in hops]  # the rest is freed before eq is sorted
    if grid is None:
        grid = np.linspace(0.0, float(np.min(LawTable(laws).saturation(GRID_TAIL_MASS))), 50)
    analytical = end_to_end_cdf_grid(*laws, grid, link.combiner, tol)
    return link, laws, hops, eq, grid, analytical, empirical_cdf(eq, grid)


def cmd_cdf(args) -> int:
    scenario = _load(args)
    tol = _outer_tol(args, DEFAULT_CDF_TOL)
    seed, samples = _mc_settings(args, scenario.mc_seed,
                                 scenario.mc_samples or DEFAULT_CDF_MC_SAMPLES)
    _, _, _, _, grid, analytical, empirical = _cdf_table(args, scenario, tol, seed, samples,
                                                         _parse_grid(args.grid))

    lines = _meta("cdf", scenario, tol, seed, samples)
    lines.append(f"# hop1_snr_db: {scenario.hop1_snr_db[0]:g}  "
                 f"hop2_snr_db: {scenario.hop2_snr_db:g}")
    lines.append("gamma,cdf_analytical,cdf_mc")
    for g, a, e in zip(grid, analytical, empirical):
        lines.append(f"{g:.8g},{_fmt_prob(a, args.full_precision)},"
                     f"{_fmt_prob(e, args.full_precision)}")
    deviation = float(np.max(np.abs(analytical - empirical)))
    lines.append(f"# max_abs_deviation: {deviation:.6g}")
    return _finish(lines, args.out, [f"gamma={g:.8g}" for g in grid[np.isnan(analytical)]])


# ---------------------------------------------------------------------------
# validate

def _ks_distance(samples: np.ndarray, cdf) -> float:
    values = np.asarray(cdf(np.sort(samples)))
    n = values.size
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - values), np.max(values - steps + 1.0 / n)))


def _dkw(n: int) -> float:
    """The sup-distance that an n-sample empirical CDF exceeds with probability at
    most ``ALPHA``: the Dvoretzky-Kiefer-Wolfowitz bound with Massart's constant."""
    return math.sqrt(math.log(2.0 / ALPHA) / (2.0 * n))


def _ser_bound(mod, halfwidth: float, n: int) -> float:
    """The deviation that a mean of n conditional SEPs, each in [0, a/2], exceeds with
    probability at most ``ALPHA``: the two-sided empirical-Bernstein bound (Maurer & Pontil
    2009, Thm 4), with the sample variance V from the 95% halfwidth 1.96 sqrt(V/n)."""
    log_term = math.log(4.0 / ALPHA)
    return math.inf if n < 2 else (math.sqrt(2.0 * log_term) * halfwidth / 1.96
                                   + 7.0 * (mod.a / 2.0) * log_term / (3.0 * (n - 1)))


def cmd_validate(args) -> int:
    scenario = _load(args)
    tol = _outer_tol(args, DEFAULT_CDF_TOL)
    # validate sizes its runs by its own defaults, not by the scenario's mc_samples
    seed, n_big = _mc_settings(args, scenario.mc_seed, VALIDATE_CDF_SAMPLES)
    n_ks = args.samples if args.samples is not None else VALIDATE_KS_SAMPLES
    link, laws, hops, eq, _, analytical, empirical = _cdf_table(args, scenario, tol, seed,
                                                                n_big, None, n_ks)

    # (label, observed, limit) of each check.  The KS checks read the first n_ks
    # draws behind eq, a known reuse that leaves each check's limit valid.
    checks = [(f"hop{i} law KS distance (n={n_ks})", _ks_distance(draws, law.cdf),
               _dkw(n_ks)) for i, (draws, law) in enumerate(zip(hops, laws), start=1)]
    checks.append((f"end-to-end CDF max deviation (n={n_big})",
                   float(np.max(np.abs(analytical - empirical))), _dkw(n_big)))
    ser_tol = _outer_tol(args, DEFAULT_SER_TOL)
    ser = ser_sweep([link], scenario.modulations, ser_tol)
    for mod, analytical_ser in zip(scenario.modulations, ser[:, 0].tolist()):
        estimate, halfwidth = mc_ser(mod, eq)
        # A converged SER of 0.0 (below the smallest double) is checked in absolute terms.
        scale = analytical_ser or 1.0
        checks.append((f"SER {'abs.' if analytical_ser == 0 else 'rel.'} err. {mod.label} "
                       f"@ hop1 {scenario.hop1_snr_db[0]:g} dB, hop2 {scenario.hop2_snr_db:g} dB",
                       abs(analytical_ser - estimate) / scale,
                       (_ser_bound(mod, halfwidth, n_big) + ser_tol * analytical_ser) / scale))

    lines = [f"twohop validate: scenario {scenario.name} "
             f"(case {scenario.case}, combiner {scenario.link.combiner.value}, seed {seed})"]
    width = max(len(label) for label, _, _ in checks)
    observed = [f"{value:.6f}" for _, value, _ in checks]
    limits = [f"{limit:.6f}" for _, _, limit in checks]
    # Each value column is as wide as its widest entry, and at least 14 and 10 wide.
    observed_width, limit_width = max(14, *map(len, observed)), max(10, *map(len, limits))
    passed = [value <= limit for _, value, limit in checks]
    for (label, _, _), value, limit, ok in zip(checks, observed, limits, passed):
        lines.append(f"{label:<{width}}  observed {value:>{observed_width}}  "
                     f"threshold {limit:>{limit_width}}  {'pass' if ok else 'FAIL'}")
    lines.append(f"all {len(checks)} checks passed" if all(passed)
                 else f"{sum(passed)} of {len(checks)} checks passed")
    # A check on a value that did not converge observes NaN, and fails.
    unconverged = [label for label, observed, _ in checks if math.isnan(observed)]
    return _finish(lines, args.out, unconverged) or (0 if all(passed) else 1)


# ---------------------------------------------------------------------------
# compare-cases

def _case_links(n: int, m: float, combiner: Combiner) -> list[tuple[str, LinkScenario]]:
    """The three antenna placements with n antennas at each populated node."""
    counts = {"MIMO_MIMO": (n, n, n), "MISO_SIMO": (n, 1, n), "SIMO_MISO": (1, n, 1)}
    return [(case, LinkScenario(*placement_hops(case, *c, m, m), combiner))
            for case, c in counts.items()]


def _ordering(values: list[float], labels: list[str], tol: float) -> str:
    """``labels`` ascending by value, as ``A < B = C``.

    Neighbours within ``2*tol`` relative of each other are tied, since
    each value is only good to ``tol``; tied labels keep their given order.
    """
    groups: list[list[int]] = []
    for value, k in sorted(zip(values, range(len(labels)))):
        if groups and abs(value - prev) <= 2.0 * tol * max(abs(value), abs(prev), 1e-300):
            groups[-1].append(k)
        else:
            groups.append([k])
        prev = value
    return " < ".join(" = ".join(labels[k] for k in sorted(g)) for g in groups)


def cmd_compare_cases(args) -> int:
    check_range(args.n, 1, MAX_ANTENNAS, "n")
    check_range(args.m, 0.5, MAX_FADING_FIGURE, "m")
    check_range(args.hop1_snr_db, -MAX_ABS_DB, MAX_ABS_DB, "hop1_snr_db")
    tol = _outer_tol(args, DEFAULT_SER_TOL)
    combiner = Combiner(args.combiner) if args.combiner else Combiner.EXACT
    grid = parse_sweep(args.sweep, "sweep").values()
    mods = parse_modulations(args.modulations, "modulations")

    placements = _case_links(args.n, args.m, combiner)
    cases = [label for label, _ in placements]
    links = [link_at(link, args.hop1_snr_db, db)
             for _, link in placements for db in grid.tolist()]
    # ser[i, c, j]: modulation i, case c, sweep point j
    ser = ser_sweep(links, mods, tol).reshape(len(mods), len(cases), grid.size)

    lines = [f"# twohop {__version__} compare-cases",
             f"# n: {args.n}  m: {args.m:g}  hop1_snr_db: {args.hop1_snr_db:g}  "
             f"combiner: {combiner.value}",
             f"# tol: {tol:g}",
             "modulation,hop1_snr_db,hop2_snr_db,"
             "ser_mimo_mimo,ser_miso_simo,ser_simo_miso"]

    failed = []
    orderings = []
    for i, mod in enumerate(mods):
        for j, db in enumerate(grid.tolist()):
            values = ser[i, :, j].tolist()
            lines.append(",".join(
                [mod.label, _fmt_num(args.hop1_snr_db), _fmt_num(db)]
                + [_fmt_prob(v, args.full_precision) for v in values]))
            failed.extend(f"{mod.label} {case} hop2={db:g} dB"
                          for case, v in zip(cases, values) if math.isnan(v))
            if any(math.isnan(v) for v in values):
                orderings.append(f"# ordering {mod.label} @ {db:g} dB: not converged")
                continue
            orderings.append(f"# ordering {mod.label} @ {db:g} dB: "
                             + _ordering(values, cases, tol))
    lines.extend(orderings)
    return _finish(lines, args.out, failed)


if __name__ == "__main__":
    sys.exit(main())
