"""Per-job correctness checks.

Each check reads the files a job wrote and compares them with the
generated truth or with a physical invariant; none compares stored
output bytes, so the checks hold on any seed. A check returns ``None``
when the job is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# A fitted amplitude or phase must lie within this many of its own
# reported 1-sigma uncertainties of the generated truth.
SENSE_SIGMA_FACTOR = 5.0
# Heating and lifetime fits must recover the truth within 3 sigma.
FIT_SIGMA_FACTOR = 3.0
# Rounding slack: outputs are written with 12 significant digits.
ROUNDING = 1e-9


def _rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        return header, list(reader)


def _column(path, name: str) -> list[float]:
    header, rows = _rows(path)
    idx = header.index(name)
    return [float(row[idx]) for row in rows]


def _sibling(out: Path, suffix: str) -> Path:
    return out.with_name(out.stem + suffix)


def _json(path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _wrap(angle: float) -> float:
    return math.atan2(math.sin(angle), math.cos(angle))


def check_cpmg_sense(out: Path, config: dict, truth: dict):
    fit = _json(_sibling(out, "_fit.json"))
    problems = []
    amp_err = abs(fit["field_microgauss"] - truth["field_microgauss"])
    amp_sigma = fit["amplitude_sigma_rad_s"] * fit["field_microgauss"] / max(fit["amplitude_rad_s"], 1e-300)
    if not amp_err <= SENSE_SIGMA_FACTOR * amp_sigma:
        problems.append(f"field {fit['field_microgauss']:.4g} uG vs truth {truth['field_microgauss']:.4g} (sigma {amp_sigma:.2g})")
    phase_err = abs(_wrap(fit["phase_rad"] - truth["phase_rad"]))
    if not phase_err <= SENSE_SIGMA_FACTOR * fit["phase_sigma_rad"]:
        problems.append(f"phase off by {phase_err:.3g} rad (sigma {fit['phase_sigma_rad']:.2g})")
    return "; ".join(problems) or None


def check_compensate(out: Path, config: dict, truth: dict):
    before = _column(out, "b_microgauss")
    after = _column(out, "b_after_microgauss")
    freqs = _column(out, "f_hz")
    bad = [
        f"{f:g} Hz ratio {a / b:.3g}"
        for f, b, a in zip(freqs, before, after)
        if not a <= truth["max_residual_ratio"] * b
    ]
    if len(freqs) != len(config["params"]["components"]):
        bad.append("missing frequencies")
    return "; ".join(bad) or None


def check_quench(out: Path, config: dict, truth: dict):
    header, rows = _rows(out)
    n = config["params"]["n_ions"]
    values = [[float(v) for v in row[1:]] for row in rows]
    if len(header) != n + 1 or len(values) != config["params"]["time_points"]:
        return "output shape"
    odd_up = truth["alignment"] == "odd_up"
    neel = [1.0 if (ion % 2 == 0) == odd_up else -1.0 for ion in range(n)]
    if max(abs(a - b) for a, b in zip(values[0], neel)) > ROUNDING:
        return "t = 0 row is not the Neel pattern"
    if any(abs(v) > 1.0 + ROUNDING for row in values for v in row):
        return "<sigma_z> outside [-1, 1]"
    if config["params"]["model"] == "xy_effective":
        drift = max(abs(sum(row) - sum(neel)) for row in values)
        if drift > 1e-9:
            return f"XY total magnetisation drifted by {drift:.2e}"
    return None


def check_negativity(out: Path, config: dict, truth: dict):
    values = _column(out, "log_negativity")
    if len(values) != len(config["params"]["subsets"]):
        return "missing subsets"
    # log2 of a trace norm >= 1; allow rounding below zero only
    if any(not v >= -ROUNDING for v in values):
        return f"negative log negativity {min(values):.3g}"
    return None


def check_wavefront_quantum(out: Path, config: dict, truth: dict):
    meta = _json(_sibling(out, "_meta.json"))
    if not meta["max_leak"] < 1e-6:
        return f"boundary leak {meta['max_leak']:.2e}"
    excitation = _column(out, "excitation")
    if any(not -ROUNDING <= e <= 1.0 + ROUNDING for e in excitation):
        return "excitation outside [0, 1]"
    if "semiclassical_peak" in truth:
        # criterion 6 rule: quantum main peak within 10% of semiclassical
        target = truth["semiclassical_peak"]
        if not abs(max(excitation) - target) <= 0.1 * target:
            return f"peak {max(excitation):.4f} vs semiclassical {target:.4f}"
    return None


def check_chain(out: Path, config: dict, truth: dict):
    positions = _column(_sibling(out, "_positions.csv"), "z_m")
    if len(positions) != config["params"]["n_ions"]:
        return "wrong ion count"
    if any(b <= a for a, b in zip(positions, positions[1:])):
        return "positions not ascending"
    if "span_m" in truth:
        span = positions[-1] - positions[0]
        if not abs(span - truth["span_m"]) <= 0.03 * truth["span_m"]:
            return f"span {span * 1e6:.1f} um vs {truth['span_m'] * 1e6:.0f} um +- 3%"
    return None


def check_couplings(out: Path, config: dict, truth: dict):
    header, rows = _rows(out)
    j = [[float(v) for v in row] for row in rows]
    n = config["params"]["n_ions"]
    if len(j) != n or any(len(row) != n for row in j):
        return "coupling matrix shape"
    scale = max(abs(v) for row in j for v in row)
    if any(abs(j[a][b] - j[b][a]) > ROUNDING * scale for a in range(n) for b in range(a)):
        return "coupling matrix not symmetric"
    return None


def check_heating_fit(out: Path, config: dict, truth: dict):
    fit = _json(_sibling(out, "_fit.json"))
    err = abs(fit["exponent"] - truth["alpha"])
    if not err <= FIT_SIGMA_FACTOR * fit["exponent_sigma"]:
        return f"exponent {fit['exponent']:.4f} vs {truth['alpha']:.4f} (sigma {fit['exponent_sigma']:.2g})"
    return None


def check_survival(out: Path, config: dict, truth: dict):
    fit = _json(_sibling(out, "_fit.json"))
    if fit["flat"]:
        return "flat survival curve"
    err = abs(fit["tau_s"] - truth["tau_s"])
    if not err <= FIT_SIGMA_FACTOR * fit["tau_sigma_s"]:
        return f"tau {fit['tau_s']:.3f} s vs {truth['tau_s']:.3f} s (sigma {fit['tau_sigma_s']:.2g})"
    return None


def check_ramsey(out: Path, config: dict, truth: dict):
    fit = _json(_sibling(out, "_fit.json"))
    if fit["selected_model"] != truth["model"]:
        return f"selected {fit['selected_model']}, expected {truth['model']}"
    return None


def check_wavefront_semiclassical(out: Path, config: dict, truth: dict):
    excitation = _column(out, "excitation")
    if len(excitation) != config["params"]["n_points"]:
        return "missing points"
    if any(not -ROUNDING <= e <= 1.0 + ROUNDING for e in excitation):
        return "excitation outside [0, 1]"
    return None


def check_fig8(paths: dict):
    header, rows = _rows(paths["crosstalk"])
    ratios = [(int(r[0]), int(r[1]), float(r[2]), float(r[3])) for r in rows]
    if any(not 0.0 <= res <= 1.0 + ROUNDING for _, _, res, _ in ratios):
        return "resonant crosstalk ratio outside [0, 1]"
    if any(abs(res - 1.0) > ROUNDING for addressed, ion, res, _ in ratios if addressed == ion):
        return "addressed ion does not see the full beam"
    return None


def check_fig4d(paths: dict):
    header, rows = _rows(paths["contrast"])
    contrast = {row[0]: float(row[1]) for row in rows}
    if len(contrast) != 3 or any(not 0.0 <= c <= 1.1 for c in contrast.values()):
        return "contrast rows"
    if not contrast["both_off"] < min(contrast["trigger_on_comp_on"], contrast["comp_only"]):
        return "uncompensated Ramsey contrast is not the lowest"
    return None


RUN_CHECKS = {
    "cpmg-sense": check_cpmg_sense,
    "compensate": check_compensate,
    "quench": check_quench,
    "negativity": check_negativity,
    "wavefront-quantum": check_wavefront_quantum,
    "chain": check_chain,
    "couplings": check_couplings,
    "heating-fit": check_heating_fit,
    "survival": check_survival,
    "ramsey-correlations": check_ramsey,
    "wavefront-semiclassical": check_wavefront_semiclassical,
}

FIGURE_CHECKS = {"fig8": check_fig8, "fig4d": check_fig4d}

# Kinds whose check compares a noisy estimate with the truth in units
# of its own sigma: a correct program misses now and then by chance.
STATISTICAL = frozenset({"cpmg-sense", "heating-fit", "survival"})


def is_statistical(job: dict) -> bool:
    return job["entry"] == "run" and job["config"]["kind"] in STATISTICAL


def check(job: dict, result) -> str | None:
    """Check one finished job; ``result`` is the out path or figure paths."""
    try:
        if job["entry"] == "run":
            return RUN_CHECKS[job["config"]["kind"]](Path(result), job["config"], job["truth"])
        return FIGURE_CHECKS[job["figure"]]({k: Path(v) for k, v in result.items()})
    except (OSError, KeyError, ValueError, IndexError, StopIteration) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
