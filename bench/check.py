"""Check a CLI output against the independent reference.

``expected(op)`` computes the reference values of one generated op (the
slow part; the result is plain JSON, and ``store`` caches it per op).

``verdict(op, exit_code, text, ref)`` classifies one execution as passed
or failed by exit code, NaN, or a value outside the reference check, and
reports the worst closed-form error as a multiple of the tolerance.

The reference check of an analytic value is |value - ref| <= tol * |ref|
against the closed form, or the Monte-Carlo oracle's simultaneous 95%
halfwidth where no closed form exists.  A Monte-Carlo estimate printed by
the program must lie within the same simultaneous band of its own
standard error, and its printed 95% halfwidth within a factor of two of
the oracle's.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from reference import MC_Z, ClosedForm, McOracle, has_closed_form

#: Bump when the reference math changes, to invalidate cached values.
REFERENCE_VERSION = "4"

EXIT, NAN, TOLERANCE = "exit", "nan", "tolerance"


def op_key(op) -> str:
    """Stable identity of an op's inputs (cache key of its reference)."""
    blob = "\0".join([REFERENCE_VERSION, op.command, op.scenario, *op.flags])
    return hashlib.sha256(blob.encode()).hexdigest()


def expected(op) -> dict:
    """{"method": ..., "values": {key: {"value", "band", "sep_std"}}}.

    ``band`` is None for closed-form values (checked at the op's tolerance)
    and the oracle's halfwidth otherwise; ``sep_std`` is the oracle's
    standard deviation of one sample's symbol error probability, kept for
    ops whose output carries Monte-Carlo columns.
    """
    closed = has_closed_form(op)
    values: dict = {}
    seed = int(op_key(op)[:12], 16)
    for hop2_db in op.hop2_db:
        form = (ClosedForm(op.hop1, op.hop2, op.hop1_db, hop2_db, op.combiner)
                if closed else None)
        # The oracle gives the value where no closed form exists, and the
        # spread of the program's own estimate where the output has one.
        oracle = (McOracle.draw(op.hop1, op.hop2, op.hop1_db, hop2_db, op.combiner, seed)
                  if not closed or (op.samples and op.command == "ser-sweep") else None)
        if op.command == "cdf":
            for g in op.grid:
                if form is not None:
                    values[repr(g)] = {"value": float(form.cdf(g)), "band": None}
                else:
                    value, band = oracle.cdf(g)
                    values[repr(g)] = {"value": value, "band": band}
            continue
        exact = form.ser(op.modulations, op.tol) if form is not None else {}
        for label in op.modulations:
            entry: dict = {"value": exact.get(label), "band": None}
            if oracle is not None:
                estimate, std = oracle.ser(label)
                entry["sep_std"] = std
                if form is None:
                    n = oracle.samples.size
                    entry.update(value=estimate, band=MC_Z * std / math.sqrt(n))
            values[f"{label}|{hop2_db!r}"] = entry
    return {"method": "closed-form" if closed else "monte-carlo", "values": values}


def cached(op, cache: Path) -> dict | None:
    """The cached reference of ``op``, or None."""
    path = cache / f"{op_key(op)}.json"
    return json.loads(path.read_text()) if path.exists() else None


def store(op, cache: Path) -> None:
    path = cache / f"{op_key(op)}.json"
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(expected(op)))
    os.replace(tmp, path)  # atomic: readers never see half a file


@dataclass(frozen=True)
class Verdict:
    failure: str | None        # None, EXIT, NAN or TOLERANCE
    verified: int              # analytic values that passed the check
    worst_err_over_tol: float  # over finite closed-form values; 0 if none
    detail: str = ""


def _parse(op, text: str) -> dict:
    """{key: (analytic value, Monte-Carlo value or None, halfwidth or None)}."""
    rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith("#")][1:]
    out = {}
    for row in rows:
        if op.command == "cdf":
            out[repr(float(row[0]))] = (float(row[1]), float(row[2]), None)
        else:
            mc = (float(row[9]), float(row[10])) if len(row) > 9 else (None, None)
            out[f"{row[1]}|{float(row[7])!r}"] = (float(row[8]), *mc)
    return out


def _mc_problem(op, ref: dict, estimate: float, halfwidth: float | None) -> str | None:
    """Why a printed Monte-Carlo estimate (and halfwidth) fails, or None."""
    if op.command == "cdf":
        p = min(max(ref["value"], 0.0), 1.0)
        band = MC_Z * math.sqrt(max(p * (1 - p), 1.0 / op.samples) / op.samples)
    else:
        std_err = ref["sep_std"] / math.sqrt(op.samples)
        band = MC_Z * std_err
        if std_err > 0 and not 0.5 <= halfwidth / (1.96 * std_err) <= 2.0:
            return f"halfwidth {halfwidth!r} vs expected {1.96 * std_err!r}"
    if not abs(estimate - ref["value"]) <= band + (ref["band"] or 0.0):
        return f"Monte-Carlo {estimate!r} vs reference {ref['value']!r}"
    return None


def verdict(op, exit_code: int, text: str, ref: dict) -> Verdict:
    expected_values = ref["values"]
    try:
        observed = _parse(op, text)
    except (IndexError, ValueError):
        observed = {}
    worst, verified, nan, bad = 0.0, 0, False, []
    for key, entry in expected_values.items():
        if key not in observed:
            bad.append(f"{key} missing")
            continue
        value, mc_value, halfwidth = observed[key]
        if math.isnan(value):
            nan = True
            continue
        if entry["band"] is None:
            err = abs(value - entry["value"])
            limit = op.tol * abs(entry["value"])
            ratio = err / limit if limit > 0 else (0.0 if err == 0 else math.inf)
            worst = max(worst, ratio)
            ok = ratio <= 1.0
        else:
            ok = abs(value - entry["value"]) <= entry["band"]
        if ok:
            verified += 1
        else:
            bad.append(f"{key}: {value!r} vs reference {entry['value']!r}")
        if mc_value is not None:
            problem = _mc_problem(op, entry, mc_value, halfwidth)
            if problem:
                bad.append(f"{key}: {problem}")
    failure = None
    if exit_code != 0:
        failure = EXIT
    elif nan:
        failure = NAN
    elif bad:
        failure = TOLERANCE
    detail = f"exit code {exit_code}" if failure == EXIT else "; ".join(bad[:3])
    return Verdict(failure, verified, worst, detail)


if __name__ == "__main__":
    # Reference worker: python3 bench/check.py CACHE_DIR CLAIM_DIR, with a
    # pickled list of ops on standard input.  Workers given the same list
    # share it out: each stores the reference of every op whose claim file
    # in CLAIM_DIR it creates first.
    import pickle
    import sys

    cache_dir, claim_dir = Path(sys.argv[1]), Path(sys.argv[2])
    for pending in pickle.load(sys.stdin.buffer):
        try:
            os.close(os.open(claim_dir / f"{op_key(pending)}.claim",
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            continue
        store(pending, cache_dir)
