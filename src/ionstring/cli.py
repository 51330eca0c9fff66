"""Config-driven command-line front end.

Two subcommands:

``ionstring run CONFIG.json [--seed N] [--out PATH] [--format csv|json]``
    Execute one experiment described by a JSON config file. The file
    carries ``kind``, ``seed``, ``out``, ``format``, and a kind-specific
    ``params`` block; command-line flags override the file. Every kind
    writes its main table to ``out`` as CSV or, in ``json`` format, as
    ``{"columns": [...], "rows": [...]}`` (``chain`` and ``couplings``
    write their mode-spectrum and coupling objects). A summary JSON
    (input echo, package versions, runtime, output list) is written next
    to the main output as ``<out>.summary.json``. Its
    ``effective.params`` holds every field the run used, defaults filled
    in; for ``quench`` and ``negativity`` its ``result.solver`` holds the
    number of Chebyshev terms summed, the bound on the terms dropped, the
    Gershgorin bounds on the spectrum, the worst norm error and the
    dimension of the symmetry sector propagated, for
    ``wavefront-quantum`` the Fock solver's boundary leak, norm error,
    truncated thermal weight, band half-width, squarings, dropped-band
    error bound and the share of (slab, column) products its row windows
    left to compute, for ``cpmg-sense`` the fit's grid size, polishes,
    evaluations and cost, for ``compensate`` the skipped (round, f_hz),
    for ``ramsey-correlations`` each decay model's evaluations, RSS and
    whether its scale sits at an edge of the searched range.

``ionstring figure KIND [--outdir DIR] [--seed N]``
    Emit the CSV bundle behind one of the canned figure analogs.

Each kind declares its ``params`` in one table of fields, read by
``_parse``; one cross-field check per kind follows before any numerical
work. Unknown fields, wrong types, non-finite numbers and failed checks
are config errors, all reported at once. Every integer field has an
upper bound, so no count can ask for an unbounded allocation or loop.
Frequencies in config files are plain Hz and use ``_hz``-suffixed
keys; they are converted to angular frequencies internally. Exit codes: 0 success, 2 config
validation error, 3 numerical failure. Outputs are deterministic for a
fixed (config, seed) pair.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import scipy

import ionstring
from ionstring import chain, coupling, dynamics, entanglement, motion, sequences, stochastics
from ionstring import export
from ionstring.constants import HBAR, mass_from_amu, omega_from_hz, wavevector
from ionstring.errors import IonstringError


class ConfigError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# ---------------------------------------------------------------- schema

REQUIRED = object()


class Field(NamedTuple):
    """One config field.

    ``kind`` is ``float``, ``int``, ``str`` or ``dict``; a tuple of
    fields (a nested object, read into a namespace); or a one-element
    list ``[kind]``, a non-empty list whose elements ``check`` applies
    to one by one. A missing field is read from ``default`` like a given
    value; a default of None leaves it None and ``REQUIRED`` makes it an
    error.
    """

    name: str
    kind: object = float
    default: object = None
    check: Callable[[object], str | None] | None = None


_EXPECTED = {float: "a finite number", int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _parse(block: dict, table, context: str):
    """Namespace of ``table``'s fields read from ``block``, and every error found."""
    values, errors = {}, []
    for field in table:
        where = f"{context}.{field.name}".lstrip(".")
        if field.name in block:
            value, found = _read(block[field.name], field.kind, field.check, where)
        elif field.default is REQUIRED:
            value, found = None, [f"{where}: missing required field"]
        elif field.default is None:
            value, found = None, []
        else:
            value, found = _read(field.default, field.kind, field.check, where)
        values[field.name] = value
        errors.extend(found)
    errors.extend(f"{context}.{key}: unknown field".lstrip(".") for key in block if key not in values)
    return SimpleNamespace(**values), errors


def _read(raw, kind, check, where: str):
    """``raw`` converted to ``kind`` and checked, and the errors found."""
    if isinstance(kind, tuple):
        if not isinstance(raw, dict):
            return None, [f"{where}: expected an object"]
        return _parse(raw, kind, where)
    if isinstance(kind, list):
        if not isinstance(raw, list) or not raw:
            return None, [f"{where}: expected a non-empty list"]
        items, errors = [], []
        for index, item in enumerate(raw):
            value, found = _read(item, kind[0], check, f"{where}[{index}]")
            items.append(value)
            errors.extend(found)
        return items, errors
    if kind in (int, float):
        value = _number(raw, kind)
    else:
        value = raw if isinstance(raw, kind) else None
    if value is None:
        return None, [f"{where}: expected {_EXPECTED[kind]}"]
    message = check(value) if check is not None else None
    return value, [f"{where}: {message}"] if message else []


def _number(raw, kind):
    """``raw`` as a finite ``kind`` (int or float), or None."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return None
    try:
        as_float = float(raw)
    except OverflowError:
        return None
    if not math.isfinite(as_float) or (kind is int and not as_float.is_integer()):
        return None
    return kind(raw)


def _positive(value):
    return None if value > 0 else "must be positive"


def _non_negative(value):
    return None if value >= 0 else "must be >= 0"


def _within(low, high):
    return lambda value: None if low <= value <= high else f"must lie in [{low:g}, {high:g}]"


def _one_of(*choices):
    return lambda value: None if value in choices else f"must be one of {', '.join(choices)}"


def _plain(value):
    """A parsed namespace as plain dicts and lists, for the summary."""
    if isinstance(value, SimpleNamespace):
        return {key: _plain(item) for key, item in vars(value).items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _trap(n_ions=8):
    return (
        Field("n_ions", int, n_ions, _within(1, 10**5)),
        Field("omega_z_hz", float, 127e3, _positive),
        Field("omega_x_hz", float, 2.93e6, _positive),
        Field("omega_y_hz", float, 2.89e6, _positive),
        Field("ion_mass_amu", float, 40.0, _positive),
        Field("wavelength_m", float, 729e-9, _positive),
    )


def _drive(target_max_j=None):
    return (
        Field("beatnote_offset_hz", float, 100e3, _positive),
        Field("centerline_detuning_hz", float, 3000.0),
        Field("rabi_hz", float, 50e3, _positive),
        Field("target_max_j_rad_s", float, target_max_j, _positive),
        Field("resonance_guard_hz", float, 10.0, _positive),
    )


class _Run(NamedTuple):
    """What a runner hands back; ``run_experiment`` writes it."""

    header: list
    rows: list
    result: dict
    # file-name suffix -> (header, rows) for a ``.csv``, a payload for a ``.json``
    sidecars: dict = {}
    # the main output in json format, when that is not the table
    payload: Callable[[], dict] | None = None


def _trap_parameters(p) -> chain.TrapParameters:
    return chain.TrapParameters(
        omega_x=omega_from_hz(p.omega_x_hz),
        omega_y=omega_from_hz(p.omega_y_hz),
        omega_z=omega_from_hz(p.omega_z_hz),
        ion_mass=mass_from_amu(p.ion_mass_amu),
        ion_count=p.n_ions,
        laser_wavelength=p.wavelength_m,
    )


def _coupling(p) -> coupling.CouplingMatrix:
    """Chain + drive -> CouplingMatrix, scaled to a target max |J|."""
    trap = _trap_parameters(p)
    positions = chain.equilibrium_positions(trap)
    k = wavevector(trap.laser_wavelength)
    spectra = []
    for direction in (chain.RADIAL_X, chain.RADIAL_Y):
        spec = chain.normal_modes(trap, positions, direction)
        spectra.append(chain.lamb_dicke(spec, k))
    beatnote = max(s.frequencies[-1] for s in spectra) + omega_from_hz(p.beatnote_offset_hz)
    drive = coupling.DriveParameters(
        rabi=omega_from_hz(p.rabi_hz),
        centerline_detuning=omega_from_hz(p.centerline_detuning_hz),
        mode_detunings=coupling.detunings_from_beatnote(spectra, beatnote),
    )
    mat = coupling.spin_spin_matrix(spectra, drive, resonance_guard=omega_from_hz(p.resonance_guard_hz))
    if p.target_max_j_rad_s is not None:
        current = float(np.max(np.abs(mat.j)))
        if current > 0:
            mat = coupling.CouplingMatrix(j=mat.j * (p.target_max_j_rad_s / current), field_b=mat.field_b)
    return mat


# ----------------------------------------------------------------- runs


_CHAIN = (
    Field("direction", str, chain.AXIAL, _one_of(chain.AXIAL, chain.RADIAL_X, chain.RADIAL_Y)),
    *_trap(n_ions=51),
)


def _run_chain(p, seed):
    trap = _trap_parameters(p)
    positions = chain.equilibrium_positions(trap)
    spectrum = chain.lamb_dicke(chain.normal_modes(trap, positions, p.direction), wavevector(trap.laser_wavelength))
    header, rows = export.mode_spectrum_rows(spectrum)
    return _Run(
        header, rows, {"span_m": chain.chain_span(positions)},
        sidecars={"_positions.csv": (["ion", "z_m"], [[i + 1, z] for i, z in enumerate(positions)])},
        payload=lambda: export.mode_spectrum_dict(spectrum),
    )


_COUPLINGS = (*_trap(), *_drive())


def _run_couplings(p, seed):
    mat = _coupling(p)
    fit = coupling.powerlaw_fit(mat)
    summary = {
        "max_j_rad_s": float(np.max(np.abs(mat.j))),
        "field_b_rad_s": mat.field_b,
        "powerlaw_exponent": fit.exponent,
    }
    header = [f"j_ion{k + 1}_rad_s" for k in range(mat.ion_count)]
    return _Run(header, mat.j.tolist(), summary, payload=lambda: export.coupling_dict(mat))


_SPINS = (
    Field("model", str, dynamics.XY_EFFECTIVE, _one_of(dynamics.ISING_TRANSVERSE, dynamics.XY_EFFECTIVE)),
    Field("alignment", str, "odd_up", _one_of("odd_up", "even_up")),
    *_trap(),
    *_drive(target_max_j=240.0),
)


def _quench_setup(p):
    mat = _coupling(p)
    return dynamics.HamiltonianSpec(coupling=mat, model=p.model), dynamics.neel_state(mat.ion_count, p.alignment)


def _check_qubits(p):
    """The ions of an exact-dynamics run within the qubit cap, before any chain solve or 2^N array."""
    cap = dynamics.DEFAULT_QUBIT_CAP
    return [f"params.n_ions: {p.n_ions} ions exceed the {cap}-qubit cap of exact dynamics"] if p.n_ions > cap else []


def _solver_summary(grid: dynamics.GridEvolution) -> dict:
    keys = ("chebyshev_terms", "truncation_bound", "max_norm_error", "sector_dim")
    return {key: getattr(grid, key) for key in keys} | {"spectral_bounds": list(grid.spectral_bounds)}


_QUENCH = (
    *_SPINS,
    Field("t_max_s", float, 3e-3, _positive),
    Field("time_points", int, 31, _within(2, 10**4)),
)


def _run_quench(p, seed):
    spec, state = _quench_setup(p)
    times = np.linspace(0.0, p.t_max_s, p.time_points)
    grid = dynamics.evolve_grid(state, spec, times)
    rows = np.column_stack([times, dynamics.magnetization(grid.states)]).tolist()
    header = ["t_s"] + [f"sz_ion{k + 1}" for k in range(p.n_ions)]
    return _Run(header, rows, {"n_ions": p.n_ions, "model": spec.model, "solver": _solver_summary(grid)})


def _subset_shape(subset):
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in subset):
        return "expected a list of ion indices"
    if len(subset) not in (2, 3):
        return f"{subset} must have 2 or 3 ions"
    if len(set(subset)) != len(subset):
        return f"{subset} repeats an ion"
    return None


_NEGATIVITY = (
    *_SPINS,
    Field("time_s", float, 3e-3, _positive),
    Field("shots_per_setting", int, None, _within(1, 10**6)),
    Field("subsets", [list], None, _subset_shape),
)


def _check_negativity(p):
    """The ions within the qubit cap and every subset inside the string; adjacent pairs by default."""
    if p.subsets is None:
        p.subsets = [[i, i + 1] for i in range(1, p.n_ions)]
    return _check_qubits(p) + [
        f"params.subsets[{idx}]: {subset} has an ion outside 1..{p.n_ions}"
        for idx, subset in enumerate(p.subsets)
        if not all(1 <= i <= p.n_ions for i in subset)
    ]


def _run_negativity(p, seed):
    spec, state = _quench_setup(p)
    grid = dynamics.evolve_grid(state, spec, [p.time_s])
    evolved = grid[0]
    rows = []
    for subset in map(tuple, p.subsets):
        if p.shots_per_setting is None:
            rho = entanglement.reduced_density_matrix(evolved, subset)
        else:
            rho = entanglement.simulate_tomography(evolved, subset, p.shots_per_setting, seed=seed)
        if len(subset) == 2:
            value = entanglement.log_negativity_2(rho).value
        else:
            value = entanglement.log_negativity_3(rho).value
        rows.append(["-".join(str(i) for i in subset), value, p.shots_per_setting or 0, seed])
    header = ["subset", "log_negativity", "shots_per_setting", "seed"]
    return _Run(header, rows, {"time_s": p.time_s, "solver": _solver_summary(grid)})


_COMPONENT = (
    Field("f_hz", float, REQUIRED, _positive),
    Field("b_microgauss", float, None, _non_negative),
    Field("amplitude_rad_s", float, None, _non_negative),
    Field("phase_rad", float, 0.0),
)

_SCAN = (
    Field("components", [_COMPONENT], REQUIRED),
    Field("shots", int, 100, _within(1, 10**6)),
    Field("scan_points", int, 41, _within(8, 10**4)),
    Field("contrast", float, 1.0, _within(0.0, 1.0)),
)


def _check_components(p):
    """Exactly one strength per component."""
    return [
        f"params.components[{idx}]: give exactly one of b_microgauss / amplitude_rad_s"
        for idx, c in enumerate(p.components)
        if (c.b_microgauss is None) == (c.amplitude_rad_s is None)
    ]


def _noise_components(p) -> list[sequences.NoiseComponent]:
    return [
        sequences.NoiseComponent.from_field(c.f_hz, c.b_microgauss, c.phase_rad)
        if c.b_microgauss is not None
        else sequences.NoiseComponent(c.f_hz, c.amplitude_rad_s, c.phase_rad)
        for c in p.components
    ]


_CPMG_SENSE = (
    *_SCAN,
    Field("sequence", (Field("n_pulses", int, 2, _within(1, 10**4)), Field("tau_s", float, 0.02, _positive)), {}),
    Field("sense_frequency_hz", float, None, _positive),
)


def _check_cpmg_sense(p):
    """The components' check; the first component is probed by default."""
    if p.sense_frequency_hz is None:
        p.sense_frequency_hz = p.components[0].f_hz
    return _check_components(p)


def _run_cpmg_sense(p, seed):
    f_probe = p.sense_frequency_hz
    seq = sequences.cpmg(p.sequence.n_pulses, p.sequence.tau_s)
    rng = np.random.default_rng(seed)
    t0 = np.arange(p.scan_points) / p.scan_points / f_probe
    data = sequences.simulate_scan(seq, _noise_components(p), p.contrast, t0, shots=p.shots, rng=rng)
    fit = sequences.sense(t0, data, seq, f_probe)
    fit_record = {
        "frequency_hz": f_probe,
        "amplitude_rad_s": fit.amplitude,
        "amplitude_sigma_rad_s": fit.amplitude_sigma,
        "field_microgauss": sequences.amplitude_to_field(fit.amplitude),
        "phase_rad": fit.phase,
        "phase_sigma_rad": fit.phase_sigma,
        "contrast": fit.contrast,
        "contrast_sigma": fit.contrast_sigma,
        "residual_rms": fit.residual_rms,
        "seed": seed,
    }
    rows = np.column_stack([t0, data]).tolist()
    solver = {"grid_points": sequences.GRID_POINTS, "polishes": sequences.POLISHES, "nfev": fit.nfev, "cost": fit.cost}
    summary = {"amplitude_rad_s": fit.amplitude, "solver": solver}
    return _Run(["t0_s", "p_up"], rows, summary, sidecars={"_fit.json": fit_record})


_COMPENSATE = (
    *_SCAN,
    Field("sequence", (Field("tau_s", float, 0.02, _positive),), {}),
    Field("max_rounds", int, 2, _within(1, 1000)),
    Field("phase_drift_rad", float, 0.0, _non_negative),
)


def _run_compensate(p, seed):
    comps = _noise_components(p)
    result = sequences.compensate(
        comps, seed=seed, max_rounds=p.max_rounds, shots=p.shots, scan_points=p.scan_points,
        tau=p.sequence.tau_s, contrast=p.contrast, phase_drift=p.phase_drift_rad,
    )
    rows = []
    for before in sorted(comps, key=lambda c: c.frequency_hz):
        after = next(r for r in result.residuals if r.frequency_hz == before.frequency_hz)
        shift_hz = (before.amplitude / (2 * np.pi), after.amplitude / (2 * np.pi))
        rows.append([before.frequency_hz, before.field_ug, after.field_ug, *shift_hz])
    header = ["f_hz", "b_microgauss", "b_after_microgauss", "delta_hz", "delta_after_hz"]
    reductions = result.reduction_factors(comps)
    skipped = [list(event) for event in result.skipped]
    summary = {"reduction_factors": {str(k): v for k, v in reductions.items()}, "solver": {"skipped": skipped}}
    return _Run(header, rows, summary)


_WAVEFRONT_SEMICLASSICAL = (
    Field("omega_z_hz", float, 112e3, _positive),
    Field("n_pulses", int, 20, _within(1, 10**4)),
    Field("ion_mass_amu", float, 40.0, _positive),
    Field("wavelength_m", float, 729e-9, _positive),
    Field("tilt_mrad", float, 4.8, _within(0.0, 500.0 * np.pi)),
    Field("nbar", float, None, _non_negative),
    Field("temperature_k", float, 4.6e-3, _positive),
    Field("t_wait_min_us", float, 1.0, _positive),
    Field("t_wait_max_us", float, 20.0, _positive),
    Field("n_points", int, 200, _within(1, 10**5)),
)


def _check_wavefront_semiclassical(p):
    if p.t_wait_min_us > p.t_wait_max_us:
        return [f"params.t_wait_min_us: {p.t_wait_min_us:g} exceeds t_wait_max_us {p.t_wait_max_us:g}"]
    return []


def _run_wavefront_semiclassical(p, seed):
    omega_z = omega_from_hz(p.omega_z_hz)
    temperature = p.temperature_k if p.nbar is None else motion.temperature_from_nbar(p.nbar, omega_z)
    common = {
        "omega": omega_z,
        "n_pulses": p.n_pulses,
        "k_z": wavevector(p.wavelength_m) * np.sin(p.tilt_mrad * 1e-3),
        "temperature": temperature,
        "mass": mass_from_amu(p.ion_mass_amu),
    }
    t_waits = np.linspace(p.t_wait_min_us * 1e-6, p.t_wait_max_us * 1e-6, p.n_points)
    excitation = motion.thermal_excitation(motion.SemiclassicalParams(t_wait=t_waits, **common))
    peak = motion.peak_excitation(motion.SemiclassicalParams(t_wait=np.pi / omega_z, **common))
    rows = np.column_stack([t_waits * 1e6, excitation]).tolist()
    return _Run(["t_wait_us", "excitation"], rows, {"peak_excitation": peak})


_MAX_FOCK_CUTOFF = 10**5

_WAVEFRONT_QUANTUM = (
    Field("omega_rad_s", float, 2.0 * np.pi, _positive),
    Field("rabi_over_omega", float, 50.0, _positive),
    Field("eta", float, 0.01, _non_negative),
    Field("n_pulses", int, 10, _within(1, 10**4)),
    Field("nbar", float, 10.0, _non_negative),
    Field("initial_fock", int, None, _within(0, 10**5)),
    Field("fock_cutoff", int, None, _within(1, _MAX_FOCK_CUTOFF)),
    Field("detuning_rad_s", float, 0.0),
    Field("t_wait_min_periods", float, 0.55, _positive),
    Field("t_wait_max_periods", float, 2.2, _positive),
    Field("n_points", int, 56, _within(1, 10**4)),
)


def _check_wavefront_quantum(p):
    """Waits past the pi-time and in order; a cutoff that holds the state."""
    errors = []
    lo, hi = p.t_wait_min_periods, p.t_wait_max_periods
    period = 2.0 * np.pi / p.omega_rad_s
    pi_time = np.pi / (p.rabi_over_omega * p.omega_rad_s)
    if lo * period < pi_time:
        errors.append(
            f"params.t_wait_min_periods: {lo:g} periods is shorter than the "
            f"pi-time of {pi_time / period:g} periods"
        )
    elif lo > hi:
        errors.append(f"params.t_wait_min_periods: {lo:g} exceeds t_wait_max_periods {hi:g}")
    if p.fock_cutoff is None:
        source = "initial_fock" if p.initial_fock is not None else "nbar"
        base = getattr(p, source)
        # compared as a float: int() refuses the inf that 5 * 1e308 gives
        if 5 * base + 20 + motion._CUTOFF_MARGIN >= _MAX_FOCK_CUTOFF + 1:
            errors.append(f"params.{source}: {base:g} needs a fock_cutoff above {_MAX_FOCK_CUTOFF}")
            return errors
        p.fock_cutoff = int(5 * base + 20) + motion._CUTOFF_MARGIN
    if p.fock_cutoff < 5 * p.nbar + 20:
        errors.append(f"params.fock_cutoff: {p.fock_cutoff} is below 5*nbar + 20 = {5 * p.nbar + 20:g}")
    if p.initial_fock is not None and p.initial_fock > p.fock_cutoff - motion._CUTOFF_MARGIN:
        errors.append(
            f"params.initial_fock: {p.initial_fock} is closer than {motion._CUTOFF_MARGIN} "
            f"to fock_cutoff {p.fock_cutoff}"
        )
    return errors


def _run_wavefront_quantum(p, seed):
    params = motion.SpinMotionParams(
        eta=p.eta, rabi=p.rabi_over_omega * p.omega_rad_s, omega=p.omega_rad_s,
        detuning=p.detuning_rad_s, nbar=p.nbar, fock_cutoff=p.fock_cutoff,
    )
    period = 2.0 * np.pi / p.omega_rad_s
    t_waits = np.linspace(p.t_wait_min_periods * period, p.t_wait_max_periods * period, p.n_points)
    result = motion.quantum_cpmg_scan(params, p.n_pulses, t_waits, initial_fock=p.initial_fock)
    meta_keys = ("eta", "omega_rad_s", "detuning_rad_s", "nbar", "initial_fock", "fock_cutoff", "n_pulses")
    meta = {key: getattr(p, key) for key in meta_keys}
    meta.update(rabi_rad_s=params.rabi, truncated_weight=result.truncated_weight, max_leak=result.max_leak)
    solver_keys = (
        "max_leak", "max_norm_error", "truncated_weight", "band_width", "squarings", "band_dropped_norm", "column_fill",
    )
    solver = {key: getattr(result, key) for key in solver_keys}
    rows = np.column_stack([result.t_wait * 1e6, result.excitation]).tolist()
    return _Run(
        ["t_wait_us", "excitation"], rows,
        {"max_excitation": float(result.excitation.max()), "solver": solver},
        sidecars={"_meta.json": meta},
    )


_HEATING_ROW = (
    Field("omega_z_hz", float, REQUIRED, _positive),
    Field("n_ions", int, 1, _within(1, 10**5)),
    Field("rate_quanta_per_s", float, REQUIRED, _positive),
    Field("sigma", float, None, _positive),
)

_HEATING_SYNTHETIC = (
    Field("alpha", float, 1.9, _positive),
    Field("prefactor", float, 3e12, _positive),
    Field("noise_fraction", float, 0.1, _non_negative),
    Field("freqs_hz", [float], list(np.geomspace(30e3, 500e3, 8)), _positive),
    Field("ion_counts", [int], [1, 28, 50], _within(1, 10**5)),
)

_HEATING_FIT = (Field("data", [_HEATING_ROW]), Field("synthetic", _HEATING_SYNTHETIC))


def _check_heating_fit(p):
    if (p.data is None) == (p.synthetic is None):
        return ["params: give exactly one of data / synthetic"]
    given = [row.sigma is not None for row in p.data or []]
    if any(given) and not all(given):
        return [f"params.data[{given.index(False)}].sigma: give sigma on every row or on none"]
    return []


def _heating_dataset(p, seed) -> stochastics.HeatingDataset:
    if p.data is not None:
        sigmas = [row.sigma for row in p.data]
        return stochastics.HeatingDataset(
            omega_z=np.array([omega_from_hz(row.omega_z_hz) for row in p.data]),
            ion_count=np.array([row.n_ions for row in p.data]),
            rate=np.array([row.rate_quanta_per_s for row in p.data]),
            sigma=None if None in sigmas else np.array(sigmas),
        )
    synth = p.synthetic
    rng = np.random.default_rng(seed)
    om = omega_from_hz(np.asarray(synth.freqs_hz, dtype=float))
    omeg = np.concatenate([om] * len(synth.ion_counts))
    counts = np.repeat(np.asarray(synth.ion_counts, dtype=float), om.size)
    truth = synth.prefactor * omeg ** (-synth.alpha) * counts
    rates = truth * (1.0 + synth.noise_fraction * rng.normal(size=truth.size))
    return stochastics.HeatingDataset(
        omega_z=omeg, ion_count=counts, rate=np.abs(rates),
        sigma=synth.noise_fraction * truth if synth.noise_fraction > 0 else None,
    )


def _run_heating_fit(p, seed):
    dataset = _heating_dataset(p, seed)
    fit = stochastics.fit_heating(dataset)
    columns = [dataset.omega_z / (2 * np.pi), dataset.ion_count, dataset.rate / dataset.ion_count]
    rows = np.column_stack(columns).tolist()
    fit_record = {
        "exponent": fit.exponent, "exponent_sigma": fit.exponent_sigma, "prefactor": fit.prefactor, "seed": seed,
    }
    header = ["omega_z_hz", "n_ions", "rate_per_ion"]
    return _Run(header, rows, {"exponent": fit.exponent}, sidecars={"_fit.json": fit_record})


_SURVIVAL = (
    Field("melt_rate_per_s", float, 1.0 / 29.2, _non_negative),
    Field("horizon_s", float, 60.0, _positive),
    Field("trials", int, 10000, _within(100, 10**6)),
    Field("n_bins", int, 60, _within(1, 10**4)),
)


def _run_survival(p, seed):
    model = stochastics.CollisionModel(melt_rate=p.melt_rate_per_s)
    curve = stochastics.simulate_survival(model, p.horizon_s, p.trials, seed=seed, n_bins=p.n_bins)
    fit = stochastics.fit_lifetime(curve)
    fit_record = {
        "tau_s": fit.tau if np.isfinite(fit.tau) else "inf",
        "tau_sigma_s": fit.tau_sigma if np.isfinite(fit.tau_sigma) else "inf",
        "flat": fit.flat,
        "trials": p.trials,
        "seed": seed,
    }
    rows = np.column_stack([curve.times, curve.fraction]).tolist()
    result = {"tau_s": fit.tau if np.isfinite(fit.tau) else None}
    return _Run(["time_s", "surviving_fraction"], rows, result, sidecars={"_fit.json": fit_record})


_RAMSEY_CORRELATIONS = (
    Field("noise_kind", str, stochastics.RANDOM_WALK, _one_of(*stochastics._NOISE_KINDS)),
    Field("strength", float, 6.67, _positive),
    Field("dt_s", float, 2e-3, _positive),
    Field("n_experiments", int, 30000, _within(100, 10**7)),
    Field("max_lag_steps", int, 100, _within(10, 10**5)),
)


def _check_ramsey_correlations(p):
    if p.max_lag_steps >= p.n_experiments:
        return [f"params.max_lag_steps: must be below n_experiments ({p.n_experiments})"]
    return []


def _run_ramsey_correlations(p, seed):
    series = stochastics.simulate_phase_noise(p.noise_kind, p.strength, p.dt_s, p.n_experiments, seed=seed)
    corr = stochastics.phase_correlations(series, p.dt_s, p.max_lag_steps)
    selection = stochastics.select_decay_model(corr)
    fits = selection.fits
    fit_record = {
        "selected_model": selection.kind,
        "amplitude": selection.amplitude,
        "scale_s": selection.scale if np.isfinite(selection.scale) else "inf",
        "rss_exponential": fits[stochastics.EXPONENTIAL].rss if fits else None,
        "rss_gaussian": fits[stochastics.GAUSSIAN].rss if fits else None,
        "seed": seed,
    }
    solver = {name: {"nfev": fit.nfev, "rss": fit.rss, "at_edge": fit.at_edge} for name, fit in fits.items()}
    rows = np.column_stack([corr.lags, corr.values, corr.pair_counts]).tolist()
    result = {"selected_model": selection.kind, "solver": solver}
    return _Run(["lag_s", "correlation", "pairs"], rows, result, sidecars={"_fit.json": fit_record})


class _Kind(NamedTuple):
    fields: tuple
    run: Callable[[SimpleNamespace, int], _Run]
    # cross-field errors; may fill defaults that depend on other fields
    check: Callable[[SimpleNamespace], list] | None = None


_KINDS = {
    "chain": _Kind(_CHAIN, _run_chain),
    "couplings": _Kind(_COUPLINGS, _run_couplings),
    "quench": _Kind(_QUENCH, _run_quench, _check_qubits),
    "negativity": _Kind(_NEGATIVITY, _run_negativity, _check_negativity),
    "cpmg-sense": _Kind(_CPMG_SENSE, _run_cpmg_sense, _check_cpmg_sense),
    "compensate": _Kind(_COMPENSATE, _run_compensate, _check_components),
    "wavefront-semiclassical": _Kind(
        _WAVEFRONT_SEMICLASSICAL, _run_wavefront_semiclassical, _check_wavefront_semiclassical
    ),
    "wavefront-quantum": _Kind(_WAVEFRONT_QUANTUM, _run_wavefront_quantum, _check_wavefront_quantum),
    "heating-fit": _Kind(_HEATING_FIT, _run_heating_fit, _check_heating_fit),
    "survival": _Kind(_SURVIVAL, _run_survival),
    "ramsey-correlations": _Kind(_RAMSEY_CORRELATIONS, _run_ramsey_correlations, _check_ramsey_correlations),
}

EXPERIMENT_KINDS = tuple(_KINDS)

# The top level of a config file; command-line flags override it.
_CONFIG = (
    Field("kind", str, REQUIRED, _one_of(*EXPERIMENT_KINDS)),
    Field("seed", int, 0, _within(0, 2**63 - 1)),
    Field("out", str),
    Field("format", str, "csv", _one_of("csv", "json")),
    Field("params", dict, {}),
)


def _sibling(out, suffix: str) -> str:
    path = Path(out)
    return str(path.with_name(path.stem + suffix))


def _write(out: str, fmt: str, run: _Run) -> list[str]:
    """Write the main table in ``fmt`` and the sidecars; returns the paths."""
    if fmt == "csv":
        export.write_csv(out, run.header, run.rows)
    else:
        export.write_json(out, run.payload() if run.payload else {"columns": run.header, "rows": run.rows})
    outputs = [out]
    for suffix, content in run.sidecars.items():
        path = _sibling(out, suffix)
        if suffix.endswith(".csv"):
            export.write_csv(path, *content)
        else:
            export.write_json(path, content)
        outputs.append(path)
    return outputs


def run_experiment(config: dict, seed=None, out=None, fmt=None) -> dict:
    """Validate and execute one experiment; returns the summary dict."""
    if not isinstance(config, dict):
        raise ConfigError(["config: expected a JSON object"])
    block = {field.name: config[field.name] for field in _CONFIG if field.name in config}
    flags = {"seed": seed, "out": out, "format": fmt}
    block.update({key: value for key, value in flags.items() if value is not None})
    top, errors = _parse(block, _CONFIG, "")
    if not errors:
        kind = _KINDS[top.kind]
        params, errors = _parse(top.params, kind.fields, "params")
        if not errors and kind.check is not None:
            errors = kind.check(params)
    if errors:
        raise ConfigError(errors)
    out = top.out or f"ionstring_{top.kind}.{top.format}"

    start = time.perf_counter()
    run = kind.run(params, top.seed)
    outputs = _write(out, top.format, run)
    runtime = time.perf_counter() - start

    summary = {
        "config": config,
        "effective": {
            "kind": top.kind, "seed": top.seed, "out": out, "format": top.format, "params": _plain(params),
        },
        "outputs": [str(o) for o in outputs],
        "result": run.result,
        "runtime_s": runtime,
        "versions": {
            "ionstring": ionstring.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    summary_path = str(out) + ".summary.json"
    export._atomic_write(summary_path, json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n")
    summary["summary_path"] = summary_path
    return summary


# --------------------------------------------------------------- figures


def emit_figure_data(kind: str, outdir=".", seed: int = 0) -> dict:
    """Write the CSV bundle for one figure analog; returns name -> path."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if kind not in _FIGURES:
        raise ConfigError([f"figure kind must be one of {', '.join(FIGURE_KINDS)}"])
    return _FIGURES[kind](outdir, seed)


def _runs(jobs: dict):
    """Emitter making one ``run_experiment`` per job, name -> (file, kind, seed offset, params)."""

    def emit(outdir: Path, seed: int) -> dict:
        paths = {}
        for name, (file, kind, offset, params) in jobs.items():
            paths[name] = str(outdir / file)
            run_experiment({"kind": kind, "seed": seed + offset, "out": paths[name], "params": params})
        return paths

    return emit


# Table I line-noise components: (f_hz, b_microgauss, phase_rad)
_TABLE_I = ((50.0, 37.2, 0.4), (150.0, 9.3, 1.9), (250.0, 23.3, -1.1))


def _fig4c(outdir: Path, seed: int) -> dict:
    before = [sequences.NoiseComponent.from_field(*row) for row in _TABLE_I]
    result = sequences.compensate(before, seed=seed, max_rounds=2, shots=100)
    seq = sequences.cpmg(2, 0.02)
    rng = np.random.default_rng(seed + 1)
    t0 = np.arange(81) / 81 / 50.0
    p_before = sequences.simulate_scan(seq, before, 1.0, t0, shots=100, rng=rng)
    p_after = sequences.simulate_scan(seq, result.residuals, 1.0, t0, shots=100, rng=rng)
    out = str(outdir / "fig4c_scan.csv")
    export.write_csv(out, ["t0_s", "p_up_before", "p_up_after"], np.column_stack([t0, p_before, p_after]).tolist())
    return {"scan": out}


def _fig4d(outdir: Path, seed: int) -> dict:
    table = tuple(sequences.NoiseComponent.from_field(*row) for row in _TABLE_I)
    residual = tuple(
        sequences.NoiseComponent.from_field(*row) for row in ((50.0, 1.3, 0.1), (150.0, 0.9, -0.5), (250.0, 0.7, 2.0))
    )
    scenario = sequences.RamseyScenario(uncompensated=table, residual=residual, base_contrast=0.85, shots=400)
    rows = []
    for idx, mode in enumerate(
        (sequences.TRIGGER_AND_COMPENSATION, sequences.COMPENSATION_ONLY, sequences.BOTH_OFF)
    ):
        contrast = sequences.ramsey_contrast(4.5e-3, scenario, mode, seed=seed + idx)
        rows.append([mode, contrast])
    out = str(outdir / "fig4d_contrast.csv")
    export.write_csv(out, ["scenario", "contrast"], rows)
    return {"contrast": out}


def _fig8(outdir: Path, seed: int) -> dict:
    trap = chain.TrapParameters(
        omega_x=omega_from_hz(2.93e6), omega_y=omega_from_hz(2.89e6),
        omega_z=omega_from_hz(127e3), ion_mass=mass_from_amu(40.0), ion_count=51,
    )
    positions = chain.equilibrium_positions(trap)
    rows = []
    for addressed in range(0, 51, 5):
        beam = coupling.AddressingBeam(waist=2.5e-6, center=positions[addressed], pedestal_floor=0.03)
        resonant = coupling.crosstalk_map(beam, positions, "resonant")
        stark = coupling.crosstalk_map(beam, positions, "ac_stark")
        neighbors = [i for i in (addressed - 1, addressed + 1) if 0 <= i < 51]
        nn = max(resonant[i] for i in neighbors)
        for ion in range(51):
            rows.append([addressed + 1, ion + 1, resonant[ion], stark[ion], nn])
    out = str(outdir / "fig8_crosstalk.csv")
    export.write_csv(out, ["addressed_ion", "ion", "resonant_ratio", "ac_stark_ratio", "nn_resonant_ratio"], rows)
    return {"crosstalk": out}


def _fig11_params(ratio: float) -> dict:
    """One Fock state probed at a given Rabi frequency / trap frequency."""
    return {
        "rabi_over_omega": ratio, "eta": 0.01, "n_pulses": 10, "initial_fock": 50, "fock_cutoff": 320,
        "t_wait_min_periods": max(0.55, 1.05 / ratio / 2.0), "t_wait_max_periods": 2.2, "n_points": 56,
    }


def _fig12(outdir: Path, seed: int) -> dict:
    nbar, n_pulses, omega = 60.0, 20, 2.0 * np.pi
    eta = float(np.sqrt(-np.log(0.4) / (4.0 * (nbar + 0.5) * (n_pulses + 1) ** 2)))
    quantum = {
        "rabi_over_omega": 50.0, "eta": eta, "n_pulses": n_pulses, "nbar": nbar, "fock_cutoff": 400,
        "t_wait_min_periods": 0.4, "t_wait_max_periods": 1.15, "n_points": 46,
    }
    paths = _runs({"quantum": ("fig12_quantum.csv", "wavefront-quantum", 0, quantum)})(outdir, seed)
    mass = mass_from_amu(40.0)
    temperature = motion.temperature_from_nbar(nbar, omega)
    k_z = eta / np.sqrt(HBAR / (2.0 * mass * omega))
    t_waits = np.linspace(0.4, 1.15, 151) * 2.0 * np.pi / omega
    excitation = motion.thermal_excitation(
        motion.SemiclassicalParams(
            omega=omega, t_wait=t_waits, n_pulses=n_pulses,
            k_z=k_z, temperature=temperature, mass=mass,
        )
    )
    paths["semiclassical"] = str(outdir / "fig12_semiclassical.csv")
    rows = np.column_stack([t_waits * 1e6, excitation]).tolist()
    export.write_csv(paths["semiclassical"], ["t_wait_us", "excitation"], rows)
    return paths


def _fig6_survival(tau_s: float) -> dict:
    return {"melt_rate_per_s": 1.0 / tau_s, "horizon_s": 60.0, "trials": 10000}


_FIGURES = {
    # desk-scale quench: magnetization dynamics plus pair negativities
    "fig1": _runs(
        {
            "magnetization": ("fig1a_magnetization.csv", "quench", 0, {"n_ions": 8}),
            "pair_negativity": ("fig1b_pair_negativity.csv", "negativity", 0, {"n_ions": 8, "time_s": 3e-3}),
        }
    ),
    "fig3": _runs({"heating": ("fig3_heating.csv", "heating-fit", 0, {"synthetic": {}})}),
    "fig4c": _fig4c,
    "fig4d": _fig4d,
    "fig6": _runs(
        {
            "25ion": ("fig6_survival_25ion.csv", "survival", 0, _fig6_survival(29.2)),
            "51ion": ("fig6_survival_51ion.csv", "survival", 1, _fig6_survival(27.0)),
        }
    ),
    "fig8": _fig8,
    "fig11": _runs(
        {
            f"rabi_{ratio:g}": (f"fig11_rabi_{ratio:g}.csv", "wavefront-quantum", 0, _fig11_params(ratio))
            for ratio in (0.5, 1.0, 5.0, 50.0)
        }
    ),
    "fig12": _fig12,
}

FIGURE_KINDS = tuple(_FIGURES)


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ionstring",
        description="Desk-scale trapped-ion string experiments from config files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="override the output path")
    run_p.add_argument("--format", default=None, choices=("csv", "json"), help="override the output format")

    fig_p = sub.add_parser("figure", help="emit CSV data for a figure analog")
    fig_p.add_argument("kind", choices=FIGURE_KINDS)
    fig_p.add_argument("--outdir", default=".", help="directory for the CSV bundle")
    fig_p.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            try:
                with open(args.config) as handle:
                    config = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 2
            summary = run_experiment(config, seed=args.seed, out=args.out, fmt=args.format)
            for path in summary["outputs"]:
                print(path)
            print(summary["summary_path"])
        else:
            paths = emit_figure_data(args.kind, outdir=args.outdir, seed=args.seed)
            for path in paths.values():
                print(path)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except (IonstringError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
