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
from .montecarlo import (McRun, empirical_cdf, mc_ser, simulate_end_to_end,
                         simulate_hop, sweep_eq_samples)
from .numerics import DEFAULT_CDF_TOL, DEFAULT_SER_TOL
from .relay import Combiner, LinkScenario, end_to_end_cdf_grid
from .scenario import (MAX_ABS_DB, MAX_ANTENNAS, MAX_FADING_FIGURE, MAX_MC_SAMPLES,
                       MAX_SWEEP_POINTS, Scenario, ScenarioError, check_range, link_at,
                       load_scenario, parse_modulations, parse_sweep, placement_hops)
from .ser import ser_sweep

DEFAULT_SEED = 1729
DEFAULT_SWEEP_MC_SAMPLES = 100_000
DEFAULT_CDF_MC_SAMPLES = 200_000
VALIDATE_KS_SAMPLES = 100_000
VALIDATE_CDF_SAMPLES = 1_000_000
KS_THRESHOLD = 0.01
CDF_DEV_THRESHOLD = 0.005
SER_REL_THRESHOLD = 0.02
SER_CHECK_FLOOR = 1e-4


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
    common.add_argument("--seed", type=int, metavar="U64",
                        help="Monte-Carlo master seed (overrides the scenario)")
    common.add_argument("--samples", type=int, metavar="N",
                        help="Monte-Carlo sample count (overrides the scenario)")
    common.add_argument("--threads", type=int, default=1, metavar="N",
                        help="Monte-Carlo worker threads, capped at the CPU count "
                             "(never changes results)")
    common.add_argument("--combiner", choices=[c.value for c in Combiner],
                        help="combiner override")
    common.add_argument("--full-precision", action="store_true",
                        help="print probabilities at full float precision")

    scen = argparse.ArgumentParser(add_help=False)
    scen.add_argument("--scenario", required=True, metavar="PATH",
                      help="scenario file (see the package README for the format)")

    p = sub.add_parser("ser-sweep", parents=[scen, common],
                       help="SER vs hop-2 mean SNR as CSV")
    p.set_defaults(func=cmd_ser_sweep)

    p = sub.add_parser("cdf", parents=[scen, common],
                       help="analytical vs Monte-Carlo end-to-end CDF as CSV")
    p.add_argument("--grid", metavar="SPEC",
                   help="linear-SNR grid, 'lo:hi:count' or comma list "
                        "(default: 50 points up to the empirical 99.9%% quantile)")
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("validate", parents=[scen, common],
                       help="run the oracle-equivalence checks for a scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare-cases", parents=[common],
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
        scenario = replace(scenario, combiner=Combiner(args.combiner))
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


def _fmt_prob(x: float, full: bool = False) -> str:
    """Fixed decimal notation with 6 significant digits (deterministic)."""
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
    m1, m2 = scenario.hop1_template.m, scenario.hop2_template.m
    return f"{m1:g}" if m1 == m2 else f"{m1:g}/{m2:g}"


def _meta(command: str, scenario: Scenario | None, tol: float,
          seed: int | None, samples: int | None) -> list[str]:
    lines = [f"# twohop {__version__} {command}"]
    if scenario is not None:
        lines.append(f"# scenario: {scenario.name}  case: {scenario.case}  "
                     f"combiner: {scenario.combiner.value}")
    lines.append(f"# tol: {tol:g}")
    if seed is not None:
        lines.append(f"# mc_seed: {seed}  mc_samples: {samples}")
    return lines


def _write(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _finish(lines: list[str], out: str | None, failed: list[str]) -> int:
    """Write the table; exit 3 naming each ``failed`` point, if there are any."""
    _write(lines, out)
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
    links = [scenario.link_at(*point) for point in points]
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


def cmd_cdf(args) -> int:
    scenario = _load(args)
    tol = _outer_tol(args, DEFAULT_CDF_TOL)
    seed, samples = _mc_settings(args, scenario.mc_seed,
                                 scenario.mc_samples or DEFAULT_CDF_MC_SAMPLES)
    grid = _parse_grid(args.grid)
    hop1_db = scenario.hop1_snr_db[0]
    link = scenario.link_at(hop1_db, scenario.hop2_snr_db)
    d1 = effective_distribution(link.hop1)
    d2 = effective_distribution(link.hop2)

    eq = simulate_end_to_end(link, McRun(seed, samples, args.threads))
    if grid is None:
        grid = np.linspace(0.0, float(np.quantile(eq, 0.999)), 50)
    analytical = end_to_end_cdf_grid(d1, d2, grid, link.combiner, tol)
    empirical = empirical_cdf(eq, grid)

    lines = _meta("cdf", scenario, tol, seed, samples)
    lines.append(f"# hop1_snr_db: {hop1_db:g}  hop2_snr_db: {scenario.hop2_snr_db:g}")
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
    ordered = np.sort(samples)
    values = np.asarray(cdf(ordered))
    n = ordered.size
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(steps - values), np.max(values - steps + 1.0 / n)))


def _scaled(base: float, n: int, reference: int) -> float:
    """Loosen a threshold when fewer samples than the reference are used."""
    return base * max(1.0, math.sqrt(reference / n))


def cmd_validate(args) -> int:
    scenario = _load(args)
    tol = _outer_tol(args, DEFAULT_CDF_TOL)
    # validate sizes its runs by its own defaults, not by the scenario's mc_samples
    seed, n_big = _mc_settings(args, scenario.mc_seed, VALIDATE_CDF_SAMPLES)
    n_ks = args.samples if args.samples is not None else VALIDATE_KS_SAMPLES

    hop1_db = scenario.hop1_snr_db[0]
    hop2_db = scenario.hop2_snr_db
    link = scenario.link_at(hop1_db, hop2_db)
    d1 = effective_distribution(link.hop1)
    d2 = effective_distribution(link.hop2)

    rows: list[tuple[str, str, str, bool]] = []

    limit = _scaled(KS_THRESHOLD, n_ks, VALIDATE_KS_SAMPLES)
    for stream, hop, law in ((1, link.hop1, d1), (2, link.hop2, d2)):
        ks = _ks_distance(simulate_hop(hop, McRun(seed, n_ks, args.threads),
                                       stream=stream), law.cdf)
        rows.append((f"hop{stream} law KS distance (n={n_ks})",
                     f"{ks:.6f}", f"{limit:.6f}", ks <= limit))

    eq = simulate_end_to_end(link, McRun(seed, n_big, args.threads))
    grid = np.linspace(0.0, float(np.quantile(eq, 0.999)), 50)
    analytical = end_to_end_cdf_grid(d1, d2, grid, link.combiner, tol)
    deviation = float(np.max(np.abs(analytical - empirical_cdf(eq, grid))))
    limit = _scaled(CDF_DEV_THRESHOLD, n_big, VALIDATE_CDF_SAMPLES)
    rows.append((f"end-to-end CDF max deviation (n={n_big})",
                 f"{deviation:.6f}", f"{limit:.6f}", deviation <= limit))

    ser_tol = DEFAULT_SER_TOL if args.tol is None else args.tol
    ser = ser_sweep([link], scenario.modulations, ser_tol)
    for mod, analytical_ser in zip(scenario.modulations, ser[:, 0].tolist()):
        estimate, _ = mc_ser(mod, eq)
        label = (f"SER rel. err. {mod.label} @ hop1 {hop1_db:g} dB, "
                 f"hop2 {hop2_db:g} dB")
        if analytical_ser < SER_CHECK_FLOOR:
            rows.append((label, f"(SER {analytical_ser:.3g} < {SER_CHECK_FLOOR:g})",
                         "skipped", True))
            continue
        rel = abs(analytical_ser - estimate) / analytical_ser
        limit = _scaled(SER_REL_THRESHOLD, n_big, VALIDATE_CDF_SAMPLES)
        rows.append((label, f"{rel:.6f}", f"{limit:.6f}", rel <= limit))

    lines = [f"twohop validate: scenario {scenario.name} "
             f"(case {scenario.case}, combiner {scenario.combiner.value}, seed {seed})"]
    width = max(len(r[0]) for r in rows)
    for label, observed, threshold, ok in rows:
        lines.append(f"{label:<{width}}  observed {observed:>14}  "
                     f"threshold {threshold:>10}  {'pass' if ok else 'FAIL'}")
    n_failed = sum(1 for r in rows if not r[3])
    lines.append(f"{len(rows) - n_failed} of {len(rows)} checks passed"
                 if n_failed else f"all {len(rows)} checks passed")
    # A check on a value that did not converge observes NaN, and fails.
    return _finish(lines, args.out, [r[0] for r in rows if r[1] == "nan"]) or (
        1 if n_failed else 0)


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
