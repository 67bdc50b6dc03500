"""Effective post-combining SNR law for one hop of the relay link.

Conventions (these decide the comparison between mixed antenna placements
and are therefore spelled out):

* MRC grants full array gain: summing n_rx branch SNRs multiplies both the
  diversity order and the mean by n_rx.
* STBC splits total transmit power evenly across n_tx antennas, so the
  orthogonally combined SNR keeps the single-branch mean while the
  diversity order grows to m*n_tx (ideal rate-1 code, no array gain).
* TAS_MRC transmits from whichever antenna gives the largest MRC output;
  the selected antenna radiates full power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .fading import GammaSnr

__all__ = [
    "CombiningScheme",
    "HopConfig",
    "mrc_effective",
    "stbc_effective",
    "mimo_effective",
    "tas_effective",
    "effective_distribution",
]


class CombiningScheme(Enum):
    MRC = "mrc"
    STBC = "stbc"
    STBC_MRC = "stbc_mrc"
    TAS_MRC = "tas_mrc"


@dataclass(frozen=True)
class HopConfig:
    """Antenna counts, fading figure and per-branch mean SNR for one hop."""

    n_tx: int
    n_rx: int
    m: float
    mean_branch_snr: float
    scheme: CombiningScheme

    def __post_init__(self):
        for name in ("n_tx", "n_rx"):
            count = getattr(self, name)
            if int(count) != count or count < 1:
                raise ValueError(f"{name} must be a positive integer, got {count}")
        if not 0.5 <= self.m < math.inf:
            raise ValueError(f"m must be finite and >= 0.5, got {self.m}")
        if not 0 < self.mean_branch_snr < math.inf:
            raise ValueError(
                f"mean_branch_snr must be positive and finite, got {self.mean_branch_snr}")
        if self.scheme is CombiningScheme.MRC and self.n_tx != 1:
            raise ValueError("MRC hop requires n_tx = 1")
        if self.scheme is CombiningScheme.STBC and self.n_rx != 1:
            raise ValueError("STBC hop requires n_rx = 1")


def _expect_scheme(cfg: HopConfig, scheme: CombiningScheme):
    if cfg.scheme is not scheme:
        raise ValueError(f"config scheme is {cfg.scheme.name}, expected {scheme.name}")


def mrc_effective(cfg: HopConfig) -> GammaSnr:
    """Receive combining: branch SNRs add, giving array gain and diversity n_rx."""
    _expect_scheme(cfg, CombiningScheme.MRC)
    return GammaSnr(shape=cfg.m * cfg.n_rx, mean=cfg.mean_branch_snr * cfg.n_rx)


def stbc_effective(cfg: HopConfig) -> GammaSnr:
    """Orthogonal transmit diversity with 1/n_tx power split: mean preserved."""
    _expect_scheme(cfg, CombiningScheme.STBC)
    return GammaSnr(shape=cfg.m * cfg.n_tx, mean=cfg.mean_branch_snr)


def mimo_effective(cfg: HopConfig) -> GammaSnr:
    """STBC across n_tx transmitters into an n_rx-branch MRC receiver."""
    _expect_scheme(cfg, CombiningScheme.STBC_MRC)
    return GammaSnr(shape=cfg.m * cfg.n_tx * cfg.n_rx,
                    mean=cfg.mean_branch_snr * cfg.n_rx)


def tas_effective(cfg: HopConfig) -> GammaSnr:
    """Best of n_tx candidate MRC outputs; plain MRC for n_tx = 1."""
    _expect_scheme(cfg, CombiningScheme.TAS_MRC)
    return GammaSnr(shape=cfg.m * cfg.n_rx, mean=cfg.mean_branch_snr * cfg.n_rx,
                    candidates=cfg.n_tx)


_BUILDERS = {
    CombiningScheme.MRC: mrc_effective,
    CombiningScheme.STBC: stbc_effective,
    CombiningScheme.STBC_MRC: mimo_effective,
    CombiningScheme.TAS_MRC: tas_effective,
}


def effective_distribution(cfg: HopConfig) -> GammaSnr:
    """Effective hop SNR law for any supported combining scheme."""
    return _BUILDERS[cfg.scheme](cfg)
