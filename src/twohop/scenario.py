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
    "check_db",
    "check_fading_figure",
    "db_to_linear",
    "linear_to_db",
]

_CASES = ("MIMO_MIMO", "MISO_SIMO", "SIMO_MISO", "CUSTOM")
_ALLOWED_MODULATIONS = ("BPSK", "PSK8", "PSK16")
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

    def values(self) -> np.ndarray:
        count = int(math.floor((self.stop_db - self.start_db) / self.step_db + 1e-9)) + 1
        return self.start_db + self.step_db * np.arange(count)


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario; hop templates carry a placeholder mean of 1.0."""

    name: str
    case: str
    hop1_template: HopConfig
    hop2_template: HopConfig
    combiner: Combiner
    hop1_snr_db: tuple[float, ...]
    sweep: SweepSpec
    hop2_snr_db: float
    modulations: tuple[PskModulation, ...]
    mc_seed: int | None = None
    mc_samples: int | None = None

    @property
    def n_s(self) -> int:
        return self.hop1_template.n_tx

    @property
    def n_r(self) -> int:
        return self.hop1_template.n_rx

    @property
    def n_d(self) -> int:
        return self.hop2_template.n_rx

    def link(self) -> LinkScenario:
        return LinkScenario(self.hop1_template, self.hop2_template, self.combiner)

    def link_at(self, hop1_db: float, hop2_db: float) -> LinkScenario:
        """Link with both hop means set (dB converted to linear here)."""
        return LinkScenario(
            replace(self.hop1_template, mean_branch_snr=db_to_linear(hop1_db)),
            replace(self.hop2_template, mean_branch_snr=db_to_linear(hop2_db)),
            self.combiner)


def check_db(db: float, field: str) -> float:
    """``db`` unchanged if its linear value is finite and positive."""
    try:
        linear = db_to_linear(db)
    except OverflowError:
        linear = math.inf
    if not (math.isfinite(linear) and linear > 0):
        raise ScenarioError(f"{field} must be a dB value with a finite, positive "
                            f"linear mean, got {db!r}", field=field)
    return db


def check_fading_figure(m: float, field: str) -> float:
    """``m`` unchanged if it is finite and >= 0.5."""
    if not (math.isfinite(m) and m >= 0.5):
        raise ScenarioError(f"fading figure must be finite and >= 0.5, got {m}",
                            field=field)
    return m


def parse_sweep(raw: str, field: str) -> SweepSpec:
    """``start:stop:step`` in dB; both ends must pass ``check_db``."""
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
    check_db(start, field)
    check_db(stop, field)
    if stop < start:
        raise ScenarioError(f"{field} stop must be >= start, got {raw!r}", field=field)
    return SweepSpec(start_db=start, stop_db=stop, step_db=step)


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
    return parse_scenario(path.read_text(encoding="utf-8"), fallback_name=path.stem)


def _build(pairs: dict[str, str], fallback_name: str) -> Scenario:
    case_raw = pairs.get("case")
    if case_raw is None:
        raise ScenarioError("missing required key 'case'", field="case")
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
        check_fading_figure(m, field if field in pairs else "m")

    if case == "CUSTOM":
        hop1 = _custom_hop(pairs, "hop1", m1)
        hop2 = _custom_hop(pairs, "hop2", m2)
        if hop1.n_rx != hop2.n_tx:
            raise ScenarioError(
                f"hop1_n_rx = {hop1.n_rx} must equal hop2_n_tx = {hop2.n_tx} "
                "(both are the relay's antenna count)", field="hop2_n_tx")
    else:
        n_s = _get_count(pairs, "n_s")
        n_r = _get_count(pairs, "n_r")
        n_d = _get_count(pairs, "n_d")
        if case == "MIMO_MIMO":
            hop1 = _hop(n_s, n_r, m1, CombiningScheme.STBC_MRC, "n_s")
            hop2 = _hop(n_r, n_d, m2, CombiningScheme.STBC_MRC, "n_r")
        elif case == "MISO_SIMO":
            if n_r != 1:
                raise ScenarioError(
                    "case MISO_SIMO requires n_r = 1 (STBC hop into a "
                    f"single-antenna relay), got n_r = {n_r}", field="n_r")
            hop1 = _hop(n_s, 1, m1, CombiningScheme.STBC, "n_s")
            hop2 = _hop(1, n_d, m2, CombiningScheme.MRC, "n_d")
        else:  # SIMO_MISO
            if n_s != 1:
                raise ScenarioError(
                    f"case SIMO_MISO requires n_s = 1, got n_s = {n_s}", field="n_s")
            if n_d != 1:
                raise ScenarioError(
                    f"case SIMO_MISO requires n_d = 1, got n_d = {n_d}", field="n_d")
            hop1 = _hop(1, n_r, m1, CombiningScheme.MRC, "n_r")
            hop2 = _hop(n_r, 1, m2, CombiningScheme.STBC, "n_r")

    hop1_snr_db = tuple(check_db(db, "hop1_snr_db")
                        for db in _get_float_list(pairs, "hop1_snr_db"))
    raw_sweep = pairs.get("hop2_sweep_db")
    if raw_sweep is None:
        raise ScenarioError("missing required key 'hop2_sweep_db'", field="hop2_sweep_db")
    sweep = parse_sweep(raw_sweep, "hop2_sweep_db")
    hop2_snr_db = check_db(_get_float(pairs, "hop2_snr_db",
                                      default=0.5 * (sweep.start_db + sweep.stop_db)),
                           "hop2_snr_db")
    modulations = _get_modulations(pairs)
    combiner = _get_combiner(pairs)
    mc_seed = _get_optional_int(pairs, "mc_seed", minimum=0)
    mc_samples = _get_optional_int(pairs, "mc_samples", minimum=1)

    return Scenario(
        name=pairs.get("name") or fallback_name,
        case=case,
        hop1_template=hop1,
        hop2_template=hop2,
        combiner=combiner,
        hop1_snr_db=hop1_snr_db,
        sweep=sweep,
        hop2_snr_db=hop2_snr_db,
        modulations=modulations,
        mc_seed=mc_seed,
        mc_samples=mc_samples,
    )


def _hop(n_tx: int, n_rx: int, m: float, scheme: CombiningScheme,
         field: str) -> HopConfig:
    try:
        return HopConfig(n_tx=n_tx, n_rx=n_rx, m=m, mean_branch_snr=1.0,
                         scheme=scheme)
    except ValueError as exc:
        raise ScenarioError(str(exc), field=field) from exc


def _custom_hop(pairs: dict[str, str], prefix: str, m: float) -> HopConfig:
    scheme_key = f"{prefix}_scheme"
    raw = pairs.get(scheme_key)
    if raw is None:
        raise ScenarioError(f"missing required key {scheme_key!r} for case CUSTOM",
                            field=scheme_key)
    try:
        scheme = CombiningScheme[raw.strip().upper()]
    except KeyError:
        names = ", ".join(s.name for s in CombiningScheme)
        raise ScenarioError(f"{scheme_key} must be one of {names}, got {raw!r}",
                            field=scheme_key) from None
    n_tx = _get_count(pairs, f"{prefix}_n_tx")
    n_rx = _get_count(pairs, f"{prefix}_n_rx")
    return _hop(n_tx, n_rx, m, scheme, scheme_key)


def _get_float(pairs, key, default=None) -> float:
    raw = pairs.get(key)
    if raw is None:
        if default is None:
            raise ScenarioError(f"missing required key {key!r}", field=key)
        return default
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"{key} must be a number, got {raw!r}", field=key) from None


def _get_count(pairs, key) -> int:
    raw = pairs.get(key)
    if raw is None:
        raise ScenarioError(f"missing required key {key!r}", field=key)
    try:
        value = int(raw)
    except ValueError:
        raise ScenarioError(f"{key} must be an integer, got {raw!r}", field=key) from None
    if value < 1:
        raise ScenarioError(f"{key} must be >= 1, got {value}", field=key)
    return value


def _get_optional_int(pairs, key, minimum: int) -> int | None:
    raw = pairs.get(key)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ScenarioError(f"{key} must be an integer, got {raw!r}", field=key) from None
    if value < minimum:
        raise ScenarioError(f"{key} must be >= {minimum}, got {value}", field=key)
    return value


def _get_float_list(pairs, key) -> tuple[float, ...]:
    raw = pairs.get(key)
    if raw is None:
        raise ScenarioError(f"missing required key {key!r}", field=key)
    tokens = [t.strip() for t in raw.split(",") if t.strip()]
    if not tokens:
        raise ScenarioError(f"{key} must list at least one value", field=key)
    try:
        return tuple(float(t) for t in tokens)
    except ValueError:
        raise ScenarioError(f"{key} must be a comma-separated list of numbers, "
                            f"got {raw!r}", field=key) from None


def _get_modulations(pairs) -> tuple[PskModulation, ...]:
    raw = pairs.get("modulations")
    if raw is None:
        raise ScenarioError("missing required key 'modulations'", field="modulations")
    tokens = [t.strip().upper() for t in raw.split(",") if t.strip()]
    if not tokens:
        raise ScenarioError(
            f"modulations must list at least one of {', '.join(_ALLOWED_MODULATIONS)}",
            field="modulations")
    mods = []
    for token in tokens:
        if token not in _ALLOWED_MODULATIONS:
            raise ScenarioError(
                f"modulations entries must be among {', '.join(_ALLOWED_MODULATIONS)}, "
                f"got {token!r}", field="modulations")
        mods.append(PskModulation.from_label(token))
    return tuple(mods)


def _get_combiner(pairs) -> Combiner:
    raw = pairs.get("combiner")
    if raw is None:
        return Combiner.EXACT
    token = raw.strip().lower()
    for combiner in Combiner:
        if combiner.value == token:
            return combiner
    raise ScenarioError(f"combiner must be 'exact' or 'harmonic', got {raw!r}",
                        field="combiner")
