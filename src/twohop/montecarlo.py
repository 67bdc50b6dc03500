"""Branch-level Monte-Carlo oracle for hop laws, end-to-end SNR and SER.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .diversity import CombiningScheme, HopConfig
from .relay import LinkScenario, equivalent_snr
from .ser import PskModulation, conditional_sep

__all__ = [
    "McRun",
    "simulate_hop",
    "simulate_end_to_end",
    "empirical_cdf",
    "mc_ser",
    "sweep_eq_samples",
]

_CHUNK = 1 << 16
# Distinct substream tags keep standalone hop draws and the two hops of a
# link simulation statistically independent of each other.
_HOP_STREAM = 0
_LINK_STREAM_HOP1 = 1
_LINK_STREAM_HOP2 = 2


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
    """[job(index, start, stop) for every chunk], in chunk order for any worker count."""
    spans = [(i, start, min(start + _CHUNK, run.n_samples))
             for i, start in enumerate(range(0, run.n_samples, _CHUNK))]
    if run.worker_count == 1 or len(spans) == 1:
        return [job(*span) for span in spans]
    with ThreadPoolExecutor(max_workers=min(run.worker_count, len(spans))) as pool:
        return list(pool.map(lambda span: job(*span), spans))


def _run_chunked(run: McRun, stream: int, compute) -> np.ndarray:
    """Fill an n_samples array chunk by chunk; layout independent of workers."""
    out = np.empty(run.n_samples, dtype=float)

    def fill(index, start, stop):
        out[start:stop] = compute(_chunk_rng(run.master_seed, stream, index), stop - start)

    _map_chunks(run, fill)
    return out


def _hop_chunk(cfg: HopConfig, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw n effective hop SNRs by explicit per-branch simulation."""
    branches = rng.gamma(cfg.m, cfg.mean_branch_snr / cfg.m,
                         size=(n, cfg.n_tx, cfg.n_rx))
    if cfg.scheme is CombiningScheme.MRC:
        return branches[:, 0, :].sum(axis=1)
    if cfg.scheme is CombiningScheme.STBC:
        return branches[:, :, 0].sum(axis=1) / cfg.n_tx
    if cfg.scheme is CombiningScheme.STBC_MRC:
        return branches.sum(axis=(1, 2)) / cfg.n_tx
    return branches.sum(axis=2).max(axis=1)  # TAS_MRC


def simulate_hop(cfg: HopConfig, run: McRun, stream: int = _HOP_STREAM) -> np.ndarray:
    """Effective hop SNR samples (length run.n_samples)."""
    return _run_chunked(run, stream, lambda rng, n: _hop_chunk(cfg, rng, n))


def simulate_end_to_end(scenario: LinkScenario, run: McRun) -> np.ndarray:
    """Samples of the end-to-end equivalent SNR with independent hops."""
    g1 = simulate_hop(scenario.hop1, run, stream=_LINK_STREAM_HOP1)
    g2 = simulate_hop(scenario.hop2, run, stream=_LINK_STREAM_HOP2)
    return equivalent_snr(g1, g2, scenario.combiner)


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
    sep = conditional_sep(mod, samples)
    estimate = float(sep.mean())
    if samples.size < 2:
        return estimate, 0.0
    halfwidth = 1.96 * float(sep.std(ddof=1)) / math.sqrt(samples.size)
    return estimate, halfwidth


def _moments(values: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of one chunk."""
    mean = float(values.mean())
    d = values - mean
    # An elementwise sum, not d @ d: a BLAS dot inside the worker threads
    # starts BLAS threads of its own and oversubscribes the cores.
    return values.size, mean, float((d * d).sum())


def _merge(a: tuple[int, float, float], b: tuple[int, float, float]):
    """Pairwise update of (count, mean, M2) (Chan, Golub & LeVeque 1983)."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * na * nb / n


def sweep_eq_samples(scenario: LinkScenario, mods, hop2_mean_db_grid,
                     hop1_mean_db: float, run: McRun):
    """Yield (hop2_db, ((estimate, halfwidth), ...) in ``mods`` order) per sweep point.

    Each value is ``mc_ser`` of that point's equivalent-SNR samples,
    computed in one streamed pass.  The effective hop SNR scales linearly
    with the per-branch mean for every scheme (sums and maxima are
    1-homogeneous), so each chunk draws hop 1 and a unit-mean hop 2 once
    and rescales hop 2 per point; points share a common random base, which
    removes sampling jitter between them.  A chunk job turns its draws
    into SEP moments for every point and modulation, and the moments are
    merged in chunk order, so memory is O(workers x chunk), not
    O(points x n_samples).
    """
    mods = tuple(mods)
    grid = np.asarray(hop2_mean_db_grid, dtype=float)
    hop1 = replace(scenario.hop1, mean_branch_snr=10.0 ** (hop1_mean_db / 10.0))
    hop2 = replace(scenario.hop2, mean_branch_snr=1.0)
    scales = [10.0 ** (db / 10.0) for db in grid]

    def chunk(index, start, stop):
        g1 = _hop_chunk(hop1, _chunk_rng(run.master_seed, _LINK_STREAM_HOP1, index),
                        stop - start)
        base2 = _hop_chunk(hop2, _chunk_rng(run.master_seed, _LINK_STREAM_HOP2, index),
                           stop - start)
        moments = []
        for scale in scales:
            eq = equivalent_snr(g1, base2 * scale, scenario.combiner)
            moments.append([_moments(conditional_sep(mod, eq)) for mod in mods])
        return moments

    per_chunk = _map_chunks(run, chunk)
    for j, db in enumerate(grid):
        estimates = []
        for k in range(len(mods)):
            n, mean, m2 = functools.reduce(_merge, (c[j][k] for c in per_chunk))
            halfwidth = 1.96 * math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
            estimates.append((mean, halfwidth))
        yield float(db), tuple(estimates)
