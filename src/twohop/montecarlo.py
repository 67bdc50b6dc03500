"""Monte-Carlo oracle for hop laws, end-to-end SNR and SER.

Each hop SNR is drawn straight from the Gamma law that its combining
scheme gives a sum of i.i.d. Nakagami-m branch SNRs: one variate per
sample, or one per transmit antenna under TAS.  Three samplers share the
work by shape: integer shapes 2 to 5 are Erlang variates from that many
uniforms, shape 1/2 (one Nakagami-m = 1/2 branch) is theta Z^2 / 2 from
one standard normal, and any other shape calls ``Generator.standard_gamma``.
The shapes and the convention factors are worked out here from the
``HopConfig`` fields, not taken from ``diversity``, so the simulation
stays an independent check of the antenna conventions that the analytic
laws encode.

Sampling is organized in fixed-size chunks; chunk i draws from a fresh
generator seeded by SeedSequence((master_seed, stream, i)).  Workers only
decide which chunks they execute, never what those chunks produce, and
results land in chunk-indexed slots (samples in an output array, SER
moments in a list merged in chunk order) — so every estimate is bitwise
identical for any worker_count.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .diversity import CombiningScheme, HopConfig
from .relay import LinkScenario, equivalent_snr
from .ser import PskModulation, conditional_sep

__all__ = [
    "McRun",
    "simulate_hop",
    "simulate_link",
    "simulate_end_to_end",
    "empirical_cdf",
    "mc_ser",
    "sweep_eq_samples",
]

_CHUNK = 1 << 16
# Substream tags.  The two hops of a link simulation draw independently; a
# simulate_hop call on a link tag repeats that hop's draws in the simulation.
_HOP_STREAM = 0
_LINK_STREAM_HOP1 = 1
_LINK_STREAM_HOP2 = 2
# Integer Gamma shapes from 2 to this cut are drawn as Erlang variates.  Per
# variate on one Xeon core (NumPy 2.4), rng.gamma takes 23 ns at shapes 2-7;
# the Erlang draw takes 8, 11, 15 and 19 ns at k = 2..5, and 22 ns at k = 6.
_ERLANG_MAX_SHAPE = 5
# Values in one row block of an Erlang or TAS draw (256 KB).  A 512 KB
# block was slower: freed with its output, glibc returned it to the kernel
# and the next draw faulted its pages in again.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class McRun:
    """Size, seed and parallelism of one simulation run."""

    master_seed: int
    n_samples: int
    worker_count: int = 1

    def __post_init__(self):
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.worker_count < 1:
            raise ValueError("worker_count must be >= 1")


def _chunk_rng(master_seed: int, stream: int, index: int) -> np.random.Generator:
    seq = np.random.SeedSequence((master_seed, stream, index))
    return np.random.Generator(np.random.PCG64(seq))


def _map_chunks(run: McRun, job) -> list:
    """[job(index, start, stop) for every chunk], in chunk order for any worker count.

    The pool never has more threads than chunks or than the machine has
    CPUs: extra threads could only wait, and results never depend on how
    many there are.
    """
    spans = [(i, start, min(start + _CHUNK, run.n_samples))
             for i, start in enumerate(range(0, run.n_samples, _CHUNK))]
    workers = min(run.worker_count, len(spans), os.cpu_count() or 1)
    if workers == 1:
        return [job(*span) for span in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda span: job(*span), spans))


def _hop_chunk(cfg: HopConfig, rng: np.random.Generator, n: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """Draw n effective hop SNRs into ``out`` (a new array if None) and return it.

    One Gamma variate per sample, n_tx under TAS_MRC.  A branch SNR under
    Nakagami-m fading is Gamma(m, theta) with theta = mean_branch_snr / m,
    and a sum of k i.i.d. Gamma(m, theta) variates is Gamma(k m, theta).
    Each scheme's combined SNR is such a sum, so one draw of the summed
    law is exact in distribution:

    * MRC adds its n_rx receive branches;
    * STBC adds its n_tx transmit branches and divides by n_tx, the
      per-antenna power split;
    * STBC_MRC adds all n_tx x n_rx branches, with the same split;
    * TAS_MRC takes the largest of n_tx independent n_rx-branch MRC sums.

    ``_gamma_draws`` picks the sampler from the summed shape: an Erlang
    variate for an integer shape from 2 to ``_ERLANG_MAX_SHAPE``, theta Z^2 / 2
    at shape 1/2 (a single m = 1/2 branch: MRC, STBC or STBC_MRC 1x1, or
    TAS n x 1), else ``rng.standard_gamma``, bit for bit ``rng.gamma``.
    """
    out = np.empty(n) if out is None else out
    theta = cfg.mean_branch_snr / cfg.m
    if cfg.scheme is CombiningScheme.MRC:
        _gamma_draws(rng, cfg.m * cfg.n_rx, theta, out)
    elif cfg.scheme is CombiningScheme.STBC:
        _gamma_draws(rng, cfg.m * cfg.n_tx, theta, out)
        out /= cfg.n_tx
    elif cfg.scheme is CombiningScheme.STBC_MRC:
        _gamma_draws(rng, cfg.m * cfg.n_tx * cfg.n_rx, theta, out)
        out /= cfg.n_tx
    else:
        _gamma_draws(rng, cfg.m * cfg.n_rx, theta, out, cfg.n_tx)
    return out


def _gamma_draws(rng: np.random.Generator, shape: float, theta: float, out: np.ndarray,
                 width: int = 1) -> None:
    """Fill ``out`` with Gamma(shape, theta) variates, or the largest of each row of ``width``.

    Three samplers, by shape, each reading its generator in the row-major
    order of the (n, width) variates, so that the first variates of a
    longer draw are those of a shorter one:

    * an integer shape k in [2, _ERLANG_MAX_SHAPE] is an Erlang law, drawn
      as -theta log prod(1 - U_i) over k uniforms (Devroye 1986, IX.3);
      1 - U lies in (0, 1], so the log is finite.  Variate i takes
      uniforms i*k ... i*k + k - 1;
    * shape 1/2 is theta Z^2 / 2 with Z standard normal, since Z^2 is
      chi-squared with one degree of freedom, Gamma(1/2, 2);
    * every other shape gives rng.gamma's values bit for bit, through
      rng.standard_gamma, of which rng.gamma(shape, theta) is theta times.

    Under TAS (width > 1) the variates come in row blocks of at most
    ``_BLOCK`` and at most n * (width - 1) / 2 values, so that a block and
    ``out`` together hold less memory than rng.gamma's (n, width) array;
    theta scales each row maximum once, and theta max(x) = max(theta x)
    since rounding is monotone.  At width 1 the Erlang uniforms come in
    blocks of the same budget, and the other two samplers draw into ``out``.
    """
    n = len(out)
    budget = min(n * max(1, width - 1) // 2, _BLOCK)
    if shape != int(shape) or not 2 <= shape <= _ERLANG_MAX_SHAPE:
        half = shape == 0.5
        if width == 1:
            if half:
                rng.standard_normal(out=out)
            else:
                rng.standard_gamma(shape, out=out)
        else:
            rows = max(1, budget // width)
            block = np.empty((rows, width))
            for start in range(0, n, rows):
                x = block[:min(rows, n - start)]
                if half:
                    # Z^2 grows with |Z|, so a row takes its maximum before squaring.
                    np.abs(rng.standard_normal(out=x), out=x)
                else:
                    rng.standard_gamma(shape, out=x)
                row_max = out[start:start + len(x)]
                # One np.maximum per column, since a max over the short axis costs
                # many times more per sample; max is exact in any order.
                np.maximum(x[:, 0], x[:, 1], out=row_max)
                for col in range(2, width):
                    np.maximum(row_max, x[:, col], out=row_max)
        if half:
            np.square(out, out=out)
            out *= theta / 2
        else:
            out *= theta
        return
    k = int(shape)
    rows = max(1, budget // (width * k))
    block = np.empty((rows, width, k))
    for start in range(0, n, rows):
        u = rng.random(out=block[:min(rows, n - start)])
        np.subtract(1.0, u, out=u)
        row_min = out[start:start + len(u)]
        # The largest variate of a row has the smallest product: one log per row.
        for col in range(width):
            prod = row_min if col == 0 else u[:, col, 0]
            np.multiply(u[:, col, 0], u[:, col, 1], out=prod)
            for i in range(2, k):
                prod *= u[:, col, i]
            if col:
                np.minimum(row_min, prod, out=row_min)
    np.log(out, out=out)
    out *= -theta


def simulate_hop(cfg: HopConfig, run: McRun, stream: int = _HOP_STREAM) -> np.ndarray:
    """Effective hop SNR samples (length run.n_samples), laid out alike for any worker count."""
    out = np.empty(run.n_samples)
    _map_chunks(run, lambda index, start, stop: _hop_chunk(
        cfg, _chunk_rng(run.master_seed, stream, index), stop - start, out[start:stop]))
    return out


def simulate_link(link: LinkScenario, run: McRun) -> tuple[np.ndarray, np.ndarray]:
    """The two hop draws (g1, g2) of a link simulation, each on its own link stream."""
    return (simulate_hop(link.hop1, run, stream=_LINK_STREAM_HOP1),
            simulate_hop(link.hop2, run, stream=_LINK_STREAM_HOP2))


def simulate_end_to_end(scenario: LinkScenario, run: McRun) -> np.ndarray:
    """Samples of the end-to-end equivalent SNR with independent hops."""
    return equivalent_snr(*simulate_link(scenario, run), scenario.combiner)


def empirical_cdf(samples, grid) -> np.ndarray:
    """Fraction of samples <= each grid point (grid must be sorted)."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        raise ValueError("samples must be nonempty")
    points = np.asarray(grid, dtype=float)
    if points.size > 1 and np.any(np.diff(points) < 0):
        raise ValueError("grid must be sorted ascending")
    return np.searchsorted(np.sort(values), points, side="right") / values.size


def mc_ser(mod: PskModulation, eq_samples) -> tuple[float, float]:
    """Semi-analytic SER estimate: (mean conditional SEP, 95% halfwidth)."""
    samples = np.asarray(eq_samples, dtype=float)
    if samples.size == 0:
        raise ValueError("eq_samples must be nonempty")
    n, mean, m2 = _moments(conditional_sep(mod, samples))
    return mean, _halfwidth(n, m2)


def _halfwidth(n: int, m2: float) -> float:
    """95% normal halfwidth of a mean of ``n`` values with squared-deviation sum ``m2``."""
    return 1.96 * math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of one chunk."""
    mean = float(values.mean())
    d = values - mean
    # An elementwise sum, not d @ d: a BLAS dot inside the worker threads
    # starts BLAS threads of its own and oversubscribes the cores.
    return values.size, mean, float(np.multiply(d, d, out=d).sum())


def _merge(a: tuple[int, float, float], b: tuple[int, float, float]):
    """Pairwise update of (count, mean, M2) (Chan, Golub & LeVeque 1983)."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


def sweep_eq_samples(links, mods, run: McRun):
    """Yield ((estimate, halfwidth), ...) in ``mods`` order for each of ``links``.

    One item per link, in link order.  Each value is ``mc_ser`` of that
    link's equivalent-SNR samples, computed in one streamed pass.  The
    links must differ only in their hop means and share one combiner,
    else (or with no links) ``ValueError``.  The effective hop SNR scales
    linearly with the per-branch mean for every scheme (sums and maxima
    are 1-homogeneous), so each chunk draws both hops once at unit mean
    and rescales them per link, each distinct hop-1 mean once; links
    share a common random base, which removes sampling jitter between
    them.  A chunk job turns its draws into SEP moments for every link
    and modulation, and the moments are merged in chunk order, so memory
    is O(workers x chunk), not O(links x n_samples).
    """
    mods = tuple(mods)
    links = list(links)
    units = {replace(link, hop1=replace(link.hop1, mean_branch_snr=1.0),
                     hop2=replace(link.hop2, mean_branch_snr=1.0)) for link in links}
    if len(units) != 1:
        raise ValueError("links must be nonempty and differ only in their hop means")
    unit, = units
    hop1_means = dict.fromkeys(link.hop1.mean_branch_snr for link in links)

    workspaces = threading.local()

    def chunk(index, start, stop):
        # Each worker thread keeps its draws and scaled hops in one workspace
        # across its chunks: allocated afresh per chunk, glibc handed those
        # pages back to the kernel and faulted them in again on each chunk.
        if not hasattr(workspaces, "rows"):
            workspaces.rows = np.empty((3 + len(hop1_means), min(_CHUNK, run.n_samples)))
        base1, base2, g2, *scaled = workspaces.rows[:, :stop - start]
        _hop_chunk(unit.hop1, _chunk_rng(run.master_seed, _LINK_STREAM_HOP1, index),
                   stop - start, base1)
        _hop_chunk(unit.hop2, _chunk_rng(run.master_seed, _LINK_STREAM_HOP2, index),
                   stop - start, base2)
        g1 = {mean: np.multiply(base1, mean, out=row) for mean, row in zip(hop1_means, scaled)}
        moments = []
        for link in links:
            eq = equivalent_snr(g1[link.hop1.mean_branch_snr],
                                np.multiply(base2, link.hop2.mean_branch_snr, out=g2),
                                unit.combiner)
            moments.append([_moments(conditional_sep(mod, eq)) for mod in mods])
        return moments

    per_chunk = _map_chunks(run, chunk)
    for p in range(len(links)):
        estimates = []
        for k in range(len(mods)):
            n, mean, m2 = functools.reduce(_merge, (c[p][k] for c in per_chunk))
            estimates.append((mean, _halfwidth(n, m2)))
        yield tuple(estimates)
