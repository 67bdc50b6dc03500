"""Seeded inputs for the twohop benchmark workloads.

Each workload turns a seed into a fixed pool of CLI operations.  An
operation is a scenario file plus the flags of one ``twohop`` command;
the program under test receives nothing else.  The same seed always
yields byte-identical scenario text and flags.

Pools are stratified: every seed draws the same antenna cases, fading
figures and multiset of antenna counts, and the seed decides how they
pair up, the SNRs and the order.  That keeps the work of a pool alike
across seeds, so run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace

#: Why each workload exists, and what a change should do to it.
RATIONALE = {
    "sweep-paper": (
        "The figure users produce: ser-sweep in the paper's regime (hop-1 "
        "mean 0-5 dB, short hop-2 sweep within 0-20 dB, every op asks for "
        "BPSK, PSK8 and PSK16, no Monte-Carlo).  The ser, relay, numerics "
        "and fading modules do nearly all the work, and the three "
        "modulations of one op share hop laws and the end-to-end CDF, so "
        "batching or reusing F_eq shows here first."),
    "sweep-mc": (
        "ser-sweep in the paper's regime with the Monte-Carlo columns on "
        "(one modulation, two hop-2 points, two million samples): drawing "
        "the hops and averaging the symbol error probability take about 60% "
        "of each op, the two analytic SER points the rest.  "
        "Monte-Carlo changes show here and in cdf-mc; with one modulation "
        "per op, a reuse-across-modulations change should not move it."),
    "tail-points": (
        "Deep tail: ser-sweep with one modulation and one or two hop-2 "
        "points, both hop means in 20-50 dB, integer total shapes so every "
        "value has a closed-form reference.  Adaptive refinement and the "
        "absolute floor in numerics decide the result; nothing is shared "
        "across modulations, so a reuse-across-modulations change should "
        "not move it."),
    "cdf-mc": (
        "cdf command with Monte-Carlo samples: the montecarlo draws take "
        "most of each op and the analytic side is a single-level CDF grid "
        "with no outer SER.  Quadrature changes should not move it; "
        "Monte-Carlo changes show only here."),
}

WORKLOADS = tuple(RATIONALE)

MODULATIONS = ("BPSK", "PSK8", "PSK16")
MC_SWEEP_SAMPLES = 2_000_000
CASES = ("MIMO_MIMO", "MISO_SIMO", "SIMO_MISO", "CUSTOM")


@dataclass(frozen=True)
class Hop:
    """One hop as the reference sees it: scheme, antennas, fading figure."""

    scheme: str
    n_tx: int
    n_rx: int
    m: float


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``twohop <command> --scenario FILE <flags>``."""

    name: str
    command: str
    scenario: str
    flags: tuple[str, ...]
    # What the reference needs, kept beside the text it was rendered to.
    hop1: Hop
    hop2: Hop
    combiner: str
    hop1_db: float
    hop2_db: tuple[float, ...]
    modulations: tuple[str, ...] = ()
    grid: tuple[float, ...] = ()
    samples: int = 0
    tol: float = 0.0

    def argv(self, scenario_path: str) -> list[str]:
        return [self.command, "--scenario", scenario_path, *self.flags]


def total_shape(hop: Hop) -> float:
    """Gamma shape of the hop law (of each candidate for TAS_MRC)."""
    if hop.scheme in ("MRC", "TAS_MRC"):
        return hop.m * hop.n_rx
    if hop.scheme == "STBC":
        return hop.m * hop.n_tx
    return hop.m * hop.n_tx * hop.n_rx


def _rng(workload: str, seed: int) -> random.Random:
    digest = hashlib.sha256(f"twohop-bench:{workload}:{seed}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _antenna_plan(rng: random.Random) -> dict[str, list[tuple[int, int, int]]]:
    """Four antenna settings per case whose multiset is the same for every seed.

    Named cases give (n_s, n_r, n_d); CUSTOM gives (TAS candidates, relay
    antennas, destination antennas).
    """
    def perm(values=(1, 2, 3, 4)):
        return rng.sample(values, len(values))

    return {
        "MIMO_MIMO": list(zip(perm(), perm(), perm())),
        "MISO_SIMO": [(s, 1, d) for s, d in zip(perm(), perm())],
        "SIMO_MISO": [(1, r, 1) for r in perm()],
        "CUSTOM": list(zip(perm((2, 2, 3, 3)), perm((1, 1, 2, 2)), perm((1, 1, 2, 2)))),
    }


def _hops(rng: random.Random, case: str, counts: tuple[int, int, int],
          m: float) -> tuple[Hop, Hop]:
    n_s, n_r, n_d = counts
    if case == "MIMO_MIMO":
        return Hop("STBC_MRC", n_s, n_r, m), Hop("STBC_MRC", n_r, n_d, m)
    if case == "MISO_SIMO":
        return Hop("STBC", n_s, 1, m), Hop("MRC", 1, n_d, m)
    if case == "SIMO_MISO":
        return Hop("MRC", 1, n_r, m), Hop("STBC", n_r, 1, m)
    # CUSTOM: antenna selection into the relay, then MRC, STBC+MRC or selection.
    scheme2 = "MRC" if n_r == 1 else rng.choice(("STBC_MRC", "TAS_MRC"))
    return Hop("TAS_MRC", n_s, n_r, m), Hop(scheme2, n_r, n_d, m)


def _scenario_text(name: str, case: str, hop1: Hop, hop2: Hop, combiner: str,
                   hop1_db: float, sweep: str, modulations, extra=()) -> str:
    lines = [f"name = {name}", f"case = {case}"]
    if case == "CUSTOM":
        for prefix, hop in (("hop1", hop1), ("hop2", hop2)):
            lines += [f"{prefix}_scheme = {hop.scheme}", f"{prefix}_n_tx = {hop.n_tx}",
                      f"{prefix}_n_rx = {hop.n_rx}"]
    else:
        lines += [f"n_s = {hop1.n_tx}", f"n_r = {hop1.n_rx}", f"n_d = {hop2.n_rx}"]
    lines += [f"m = {hop1.m!r}", f"combiner = {combiner}", f"hop1_snr_db = {hop1_db!r}",
              f"hop2_sweep_db = {sweep}", f"modulations = {', '.join(modulations)}", *extra]
    return "\n".join(lines) + "\n"


def _sweep(start: int, step: int, count: int) -> tuple[str, tuple[float, ...]]:
    stop = start + step * (count - 1)
    return f"{start}:{stop}:{step}", tuple(float(start + step * i) for i in range(count))


def _sweep_op(rng: random.Random, index: int, case: str, m: float, counts,
              threads: int = 0) -> Op:
    """sweep-paper op; with ``threads``, the sweep-mc op (one modulation, MC on)."""
    hop1, hop2 = _hops(rng, case, counts, m)
    combiner = rng.choice(("exact", "harmonic")) if case == "CUSTOM" else "exact"
    hop1_db = rng.randint(0, 10) / 2.0
    step = rng.choice((2, 4))
    sweep, hop2_db = _sweep(rng.randint(0, 20 - step), step, 2)
    mods, extra, flags, samples = MODULATIONS, (), ("--full-precision",), 0
    if threads:
        mods = (rng.choice(MODULATIONS),)
        samples = MC_SWEEP_SAMPLES
        extra = (f"mc_seed = {rng.randint(0, 2**32 - 1)}", f"mc_samples = {samples}")
        flags += ("--threads", str(threads))
    name = f"{'mc' if threads else 'paper'}{index:02d}"
    text = _scenario_text(name, case, hop1, hop2, combiner, hop1_db, sweep, mods, extra)
    return Op(name, "ser-sweep", text, flags, hop1, hop2, combiner, hop1_db, hop2_db,
              modulations=mods, samples=samples, tol=1e-7)


def _tail_op(rng: random.Random, index: int, case: str, m: float, counts) -> Op:
    """tail-points op: integer shapes, both hop means in 20-50 dB."""
    hop1, hop2 = _hops(rng, case, counts, m)
    mod = rng.choice(MODULATIONS)
    hop1_db = float(rng.randint(20, 50))
    count = rng.randint(1, 2)
    sweep, hop2_db = _sweep(rng.randint(20, 50 - 5 * (count - 1)), 5, count)
    name = f"tail{index:02d}"
    text = _scenario_text(name, case, hop1, hop2, "exact", hop1_db, sweep, (mod,))
    return Op(name, "ser-sweep", text, ("--full-precision",), hop1, hop2, "exact",
              hop1_db, hop2_db, modulations=(mod,), tol=1e-7)


def _mean_gain(hop: Hop) -> float:
    """Mean of the hop SNR per unit branch SNR (selection counted as plain MRC)."""
    return 1.0 if hop.scheme == "STBC" else float(hop.n_rx)


def _cdf_op(rng: random.Random, index: int, case: str, m: float, counts,
            threads: int) -> Op:
    """cdf-mc op: one operating point, a 24-point grid, Monte-Carlo samples."""
    hop1, hop2 = _hops(rng, case, counts, m)
    hop1_db = rng.randint(0, 10) / 2.0
    hop2_db = float(rng.randint(0, 20))
    hi = 2.0 * min(10 ** (hop1_db / 10) * _mean_gain(hop1),
                   10 ** (hop2_db / 10) * _mean_gain(hop2))
    grid = tuple(float(f"{hi * (i + 1) / 24:.6g}") for i in range(24))
    samples = 100_000 * rng.randint(3, 5)
    name = f"cdf{index:02d}"
    text = _scenario_text(name, case, hop1, hop2, "exact", hop1_db,
                          f"{hop2_db!r}:{hop2_db!r}:1", ("BPSK",),
                          extra=(f"hop2_snr_db = {hop2_db!r}",))
    flags = ("--full-precision", "--grid", ",".join(repr(g) for g in grid),
             "--samples", str(samples), "--seed", str(rng.randint(0, 2**32 - 1)),
             "--threads", str(threads))
    return Op(name, "cdf", text, flags, hop1, hop2, "exact", hop1_db, (hop2_db,),
              grid=grid, samples=samples, tol=1e-8)


def _builder(workload: str, threads: int):
    """(strata, op maker) of ``workload``; the maker takes (rng, index, case, m, counts)."""
    if workload in ("sweep-paper", "sweep-mc"):
        # 4 cases x 4 fading figures: 16 ops.
        strata = [(case, m) for case in CASES for m in (0.5, 1.0, 1.5, 2.0)]
        mc = threads if workload == "sweep-mc" else 0
        return strata, lambda *a: _sweep_op(*a, threads=mc)
    if workload == "tail-points":
        # Integer shapes only, so every value has a closed form: 12 ops.
        return [(case, m) for case in CASES[:3] for m in (1.0, 1.0, 2.0, 2.0)], _tail_op
    if workload == "cdf-mc":
        # 6 ops; each draws 300k-500k samples.
        strata = [(case, m) for case in CASES[:3] for m in (1.0, 2.0)]
        return strata, lambda *a: _cdf_op(*a, threads=threads)
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, threads: int = 2) -> list[Op]:
    """The seeded op pool of ``workload``, one op per stratum, in seeded order.

    ``threads`` is the --threads value of the Monte-Carlo ops (at most nproc).
    """
    rng = _rng(workload, seed)
    strata, make = _builder(workload, threads)
    plan = _antenna_plan(rng)
    order = rng.sample(range(len(strata)), len(strata))
    return [make(rng, i, *strata[k], plan[strata[k][0]].pop()) for i, k in enumerate(order)]


def setup_op(workload: str, threads: int = 2) -> Op:
    """A small op of the workload's kind that no seed changes: the set-up's warm-up.

    A SIMO_MISO link with two relay antennas and Rayleigh fading, drawn by
    the workload's own maker from a fixed stream.
    """
    _, make = _builder(workload, threads)
    return replace(make(_rng(workload, -1), 0, "SIMO_MISO", 1.0, (1, 2, 1)), name="setup")
