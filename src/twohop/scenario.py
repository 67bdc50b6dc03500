"""Flat key/value scenario files driving the command-line tools.

Format: UTF-8 text, one ``key = value`` pair per line; blank lines and
lines starting with ``#`` are ignored.  Keys carry units in their names.

    name = demo
    case = MIMO_MIMO
    n_s = 3
    n_r = 3
    n_d = 3
    m = 1
    hop1_snr_db = 2, 3
    hop2_sweep_db = 0:20:1
    hop2_snr_db = 10
    modulations = BPSK, PSK8, PSK16
    combiner = exact
    mc_seed = 42
    mc_samples = 200000

``case`` selects the antenna placement: MIMO_MIMO applies STBC+MRC on
both hops; MISO_SIMO applies STBC on hop 1 and MRC on hop 2 (requires
n_r = 1); SIMO_MISO applies MRC on hop 1 and STBC on hop 2 (requires
n_s = n_d = 1).  CUSTOM instead takes explicit per-hop keys
hop{1,2}_scheme / hop{1,2}_n_tx / hop{1,2}_n_rx (schemes: MRC, STBC,
STBC_MRC, TAS_MRC).  ``m`` sets both hops' fading figure; hop1_m /
hop2_m override it per hop.  ``hop2_snr_db`` is the operating point used
by the cdf and validate commands and defaults to the sweep midpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .diversity import CombiningScheme, HopConfig
from .relay import Combiner, LinkScenario
from .ser import PskModulation

__all__ = [
    "ScenarioError",
    "SweepSpec",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "parse_sweep",
    "parse_modulations",
    "placement_hops",
    "link_at",
    "check_range",
    "db_to_linear",
    "linear_to_db",
]

# Named antenna placement -> (hop-1 scheme, hop-2 scheme, node counts that
# must be 1): MRC needs one transmit antenna, STBC one receive antenna.
_PLACEMENTS = {
    "MIMO_MIMO": (CombiningScheme.STBC_MRC, CombiningScheme.STBC_MRC, ()),
    "MISO_SIMO": (CombiningScheme.STBC, CombiningScheme.MRC, ("n_r",)),
    "SIMO_MISO": (CombiningScheme.MRC, CombiningScheme.STBC, ("n_s", "n_d")),
}
_CASES = (*_PLACEMENTS, "CUSTOM")
_MODULATIONS = {"BPSK": 2, "PSK8": 8, "PSK16": 16}
# Largest number of points a sweep or a CDF grid may ask for.
MAX_SWEEP_POINTS = 10_000
# Bounds of every user-set number that sizes a hop law.  With a branch mean
# of at most 1e+-100 (MAX_ABS_DB), at most MAX_ANTENNAS antennas a node and
# m at most MAX_FADING_FIGURE, the hop shape (<= 409,600), the hop mean
# (<= 6.4e101), the product of two hop SNRs in the Monte-Carlo combiner and
# the hop-law point that tops a default CDF grid stay normal floats, and a
# TAS draw block holds at most 64 doubles per sample.
MAX_ABS_DB = 1000.0
MAX_ANTENNAS = 64
MAX_FADING_FIGURE = 100.0
# Largest Monte-Carlo sample count: cdf and validate hold every sample in
# memory; on mimo_n3 at this count they peak at 360 MB and 523 MB RSS.
MAX_MC_SAMPLES = 10**7
_COMMON_KEYS = {
    "name", "case", "m", "hop1_m", "hop2_m", "hop1_snr_db", "hop2_sweep_db",
    "hop2_snr_db", "modulations", "combiner", "mc_seed", "mc_samples",
}
_NAMED_KEYS = {"n_s", "n_r", "n_d"}
_CUSTOM_KEYS = {"hop1_scheme", "hop1_n_tx", "hop1_n_rx",
                "hop2_scheme", "hop2_n_tx", "hop2_n_rx"}


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


class ScenarioError(ValueError):
    """Scenario input failed validation; ``field`` names the offending key."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class SweepSpec:
    start_db: float
    stop_db: float
    step_db: float

    @property
    def count(self) -> float:
        """Number of sweep points; a float, so a vanishing step gives inf."""
        spans = (self.stop_db - self.start_db) / self.step_db
        return float(np.floor(spans + 1e-9)) + 1.0

    def values(self) -> np.ndarray:
        return self.start_db + self.step_db * np.arange(int(self.count))


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario; ``link`` is the template link, both hop means 1.0."""

    name: str
    case: str
    link: LinkScenario
    hop1_snr_db: tuple[float, ...]
    sweep: SweepSpec
    hop2_snr_db: float
    modulations: tuple[PskModulation, ...]
    mc_seed: int | None = None
    mc_samples: int | None = None

    @property
    def n_s(self) -> int:
        return self.link.hop1.n_tx

    @property
    def n_r(self) -> int:
        return self.link.hop1.n_rx

    @property
    def n_d(self) -> int:
        return self.link.hop2.n_rx


def link_at(link: LinkScenario, hop1_db: float, hop2_db: float) -> LinkScenario:
    """``link`` with both hop means set (dB converted to linear here)."""
    return replace(link, hop1=replace(link.hop1, mean_branch_snr=db_to_linear(hop1_db)),
                   hop2=replace(link.hop2, mean_branch_snr=db_to_linear(hop2_db)))


def check_range(value, lo, hi, field: str):
    """``value`` unchanged if it lies in [lo, hi] (NaN lies in no range)."""
    if not lo <= value <= hi:
        raise ScenarioError(f"{field} must lie in [{lo:g}, {hi:g}], got {value!r}",
                            field=field)
    return value


def parse_sweep(raw: str, field: str) -> SweepSpec:
    """``start:stop:step`` in dB; both ends in [-MAX_ABS_DB, MAX_ABS_DB].

    At most ``MAX_SWEEP_POINTS`` points.
    """
    parts = raw.split(":")
    if len(parts) != 3:
        raise ScenarioError(f"{field} must look like start:stop:step, got {raw!r}",
                            field=field)
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ScenarioError(f"{field} must contain numbers, got {raw!r}",
                            field=field) from None
    if not (math.isfinite(step) and step > 0):
        raise ScenarioError(f"{field} step must be positive and finite, got {step}",
                            field=field)
    check_range(start, -MAX_ABS_DB, MAX_ABS_DB, field)
    check_range(stop, -MAX_ABS_DB, MAX_ABS_DB, field)
    if stop < start:
        raise ScenarioError(f"{field} stop must be >= start, got {raw!r}", field=field)
    spec = SweepSpec(start_db=start, stop_db=stop, step_db=step)
    if spec.count > MAX_SWEEP_POINTS:
        raise ScenarioError(f"{field} gives {spec.count:.0f} points, more than "
                            f"{MAX_SWEEP_POINTS}, got {raw!r}", field=field)
    return spec


def parse_modulations(raw: str, field: str) -> tuple[PskModulation, ...]:
    """Comma list of modulations, each one of BPSK, PSK8 and PSK16."""
    tokens = [t.strip().upper() for t in raw.split(",") if t.strip()]
    allowed = ", ".join(_MODULATIONS)
    if not tokens:
        raise ScenarioError(f"{field} must list at least one of {allowed}", field=field)
    for token in tokens:
        if token not in _MODULATIONS:
            raise ScenarioError(f"{field} entries must be among {allowed}, got {token!r}",
                                field=field)
    return tuple(PskModulation(_MODULATIONS[t]) for t in tokens)


def placement_hops(case: str, n_s: int, n_r: int, n_d: int,
                   m1: float, m2: float) -> tuple[HopConfig, HopConfig]:
    """Both hop templates (branch mean 1.0) of a named antenna placement."""
    scheme1, scheme2, singles = _PLACEMENTS[case]
    counts = {"n_s": n_s, "n_r": n_r, "n_d": n_d}
    for key in singles:
        if counts[key] != 1:
            raise ScenarioError(
                f"case {case} requires {key} = 1, got {key} = {counts[key]}", field=key)
    return (HopConfig(n_s, n_r, m1, 1.0, scheme1),
            HopConfig(n_r, n_d, m2, 1.0, scheme2))


def parse_scenario(text: str, fallback_name: str = "scenario") -> Scenario:
    pairs: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in pairs:
            raise ScenarioError(f"duplicate key {key!r}", field=key)
        pairs[key] = value.strip()
    return _build(pairs, fallback_name)


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:  # utf-8-sig: a leading byte-order mark is not part of the first key
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return parse_scenario(text, fallback_name=path.stem)


def _build(pairs: dict[str, str], fallback_name: str) -> Scenario:
    case_raw = _required(pairs, "case")
    case = case_raw.strip().upper()
    if case not in _CASES:
        raise ScenarioError(
            f"case must be one of {', '.join(_CASES)}, got {case_raw!r}", field="case")

    allowed = _COMMON_KEYS | (_CUSTOM_KEYS if case == "CUSTOM" else _NAMED_KEYS)
    for key in pairs:
        if key not in allowed:
            raise ScenarioError(f"unknown key {key!r} for case {case}", field=key)

    m_shared = _get_float(pairs, "m", default=1.0)
    m1 = _get_float(pairs, "hop1_m", default=m_shared)
    m2 = _get_float(pairs, "hop2_m", default=m_shared)
    for field, m in (("hop1_m", m1), ("hop2_m", m2)):
        check_range(m, 0.5, MAX_FADING_FIGURE, field if field in pairs else "m")

    if case == "CUSTOM":
        hop1 = _custom_hop(pairs, "hop1", m1)
        hop2 = _custom_hop(pairs, "hop2", m2)
        if hop1.n_rx != hop2.n_tx:
            raise ScenarioError(
                f"hop1_n_rx = {hop1.n_rx} must equal hop2_n_tx = {hop2.n_tx} "
                "(both are the relay's antenna count)", field="hop2_n_tx")
    else:
        n_s, n_r, n_d = (_get_int(pairs, key, hi=MAX_ANTENNAS)
                         for key in ("n_s", "n_r", "n_d"))
        hop1, hop2 = placement_hops(case, n_s, n_r, n_d, m1, m2)

    hop1_snr_db = tuple(check_range(db, -MAX_ABS_DB, MAX_ABS_DB, "hop1_snr_db")
                        for db in _get_float_list(pairs, "hop1_snr_db"))
    sweep = parse_sweep(_required(pairs, "hop2_sweep_db"), "hop2_sweep_db")
    hop2_snr_db = check_range(_get_float(pairs, "hop2_snr_db",
                                         default=0.5 * (sweep.start_db + sweep.stop_db)),
                              -MAX_ABS_DB, MAX_ABS_DB, "hop2_snr_db")
    modulations = parse_modulations(_required(pairs, "modulations"), "modulations")
    link = LinkScenario(hop1, hop2, _get_combiner(pairs))
    mc_seed = _get_int(pairs, "mc_seed", lo=0, optional=True)
    mc_samples = _get_int(pairs, "mc_samples", hi=MAX_MC_SAMPLES, optional=True)

    return Scenario(
        name=pairs.get("name") or fallback_name,
        case=case,
        link=link,
        hop1_snr_db=hop1_snr_db,
        sweep=sweep,
        hop2_snr_db=hop2_snr_db,
        modulations=modulations,
        mc_seed=mc_seed,
        mc_samples=mc_samples,
    )


def _custom_hop(pairs: dict[str, str], prefix: str, m: float) -> HopConfig:
    scheme_key = f"{prefix}_scheme"
    raw = _required(pairs, scheme_key)
    try:
        scheme = CombiningScheme[raw.strip().upper()]
    except KeyError:
        names = ", ".join(s.name for s in CombiningScheme)
        raise ScenarioError(f"{scheme_key} must be one of {names}, got {raw!r}",
                            field=scheme_key) from None
    n_tx = _get_int(pairs, f"{prefix}_n_tx", hi=MAX_ANTENNAS)
    n_rx = _get_int(pairs, f"{prefix}_n_rx", hi=MAX_ANTENNAS)
    try:
        return HopConfig(n_tx, n_rx, m, 1.0, scheme)
    except ValueError as exc:
        raise ScenarioError(str(exc), field=scheme_key) from exc


def _required(pairs, key) -> str:
    if key not in pairs:
        raise ScenarioError(f"missing required key {key!r}", field=key)
    return pairs[key]


def _get_float(pairs, key, default: float) -> float:
    raw = pairs.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"{key} must be a number, got {raw!r}", field=key) from None


def _get_int(pairs, key, lo: int = 1, hi: float = math.inf,
             optional: bool = False) -> int | None:
    if optional and key not in pairs:
        return None
    raw = _required(pairs, key)
    try:
        value = int(raw)
    except ValueError:
        raise ScenarioError(f"{key} must be an integer, got {raw!r}", field=key) from None
    return check_range(value, lo, hi, key)


def _get_float_list(pairs, key) -> tuple[float, ...]:
    raw = _required(pairs, key)
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    if not tokens:
        raise ScenarioError(f"{key} must list at least one value", field=key)
    try:
        return tuple(float(t) for t in tokens)
    except ValueError:
        raise ScenarioError(f"{key} must be a comma-separated list of numbers, "
                            f"got {raw!r}", field=key) from None


def _get_combiner(pairs) -> Combiner:
    raw = pairs.get("combiner", Combiner.EXACT.value)
    try:
        return Combiner(raw.strip().lower())
    except ValueError:
        raise ScenarioError(f"combiner must be 'exact' or 'harmonic', got {raw!r}",
                            field="combiner") from None
