"""Config-driven command-line front end.

Two subcommands:

``ionstring run CONFIG.json [--seed N] [--out PATH] [--format csv|json]``
    Execute one experiment described by a JSON config file. The file
    carries ``kind``, ``seed``, ``out``, ``format``, and a kind-specific
    ``params`` block; command-line flags override the file. Every kind
    writes its main table to ``out`` through ``export.write_table``, as
    CSV or, in ``json`` format, as ``{"columns": [...], "rows": [...]}``
    with the same header, cells and number text. A summary JSON
    (input echo, package versions, stage times, output list) is written
    next to the main output as ``<out>.summary.json``. Its
    ``effective.params`` holds every field the run used, defaults filled
    in; its ``stages`` the parse, solve and write times, also logged at
    DEBUG; its ``result.solver`` the record of the solver the kind ran
    (the domain result's ``record()``, the chain's ``SolverRecord``), or
    ``{}`` for a closed-form kind. The solver runs with floating-point
    errors raised, underflow aside: each exits 3 naming the kind.

``ionstring figure KIND [--outdir DIR] [--seed N]``
    Emit the CSV bundle behind one of the canned figure analogs. Every
    table goes through ``_execute``, as a ``run`` does, and gets its
    summary next to it.

Each kind declares its ``params`` in one table of fields, read by
``_parse``. A ``OneOf`` entry there asks for exactly one of its fields
or, with a default, at most one: ``wavefront-semiclassical`` takes
``nbar`` or ``temperature_k`` (4.6 mK if neither), ``wavefront-quantum``
``nbar`` or ``initial_fock`` (``nbar`` 10 if neither). A kind's
cross-field check, if any, follows before any numerical work; the
limits of the quantum CPMG scan live in ``motion.scan_limits``, which
``wavefront-quantum``'s check calls, and its default ``fock_cutoff`` in
``motion.cutoff_rule``. Unknown fields, wrong types,
non-finite numbers and failed checks are config errors, all reported
at once. A number's range is a ``Bound``: it checks, words the message
and can be read back. Every integer field's has a top, so no count asks
for an unbounded loop or allocation; ``n_ions``'s is the solver's range. A
kind takes only fields that change its outputs: ``chain`` takes no
wavelength; ``quench`` and ``negativity`` scale J to
``target_max_j_rad_s``, which cancels the Rabi frequency, wavelength
and mass, so they take none of these; ``couplings`` writes J in rad/s.
Frequencies in config files are plain Hz and use ``_hz``-suffixed
keys; they are converted to angular frequencies internally. Exit codes: 0 success, 2 config
validation error, 3 numerical failure. Outputs are deterministic for a
fixed (config, seed) pair.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
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

logger = logging.getLogger(__name__)


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
    error. A choice between fields of a table is a ``OneOf`` entry.
    """

    name: str
    kind: object = float
    default: object = None
    check: Callable[[object], str | None] | None = None


class OneOf(NamedTuple):
    """A rule over fields of its table, read after them: exactly one of
    ``names`` given, or, with a ``default`` ({name: value}), at most one,
    the default filling in when none is."""

    names: tuple
    default: dict | None = None


_EXPECTED = {float: "a finite number", int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _parse(block: dict, table, context: str):
    """Namespace of ``table``'s fields read from ``block``, its ``OneOf`` rules applied, and every error found."""
    values, errors = {}, []
    for field in table:
        if isinstance(field, OneOf):
            continue
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
    for rule in (entry for entry in table if isinstance(entry, OneOf)):
        given = sum(name in block for name in rule.names)
        if given > 1 or not given and rule.default is None:
            how = "exactly" if rule.default is None else "at most"
            errors.append(f"{context}: give {how} one of {' / '.join(rule.names)}")
        elif not given:
            values.update(rule.default)
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


class Bound(NamedTuple):
    """A number's range, ``[low, high]`` or, with ``open_low``, ``(low, high]``; as a ``Field.check``, the message."""

    low: float
    high: float = math.inf
    open_low: bool = False

    def __str__(self):
        if self.high < math.inf:
            return f"{'(' if self.open_low else '['}{self.low:g}, {self.high:g}]"
        return "positive" if self.open_low else f">= {self.low:g}"

    def __call__(self, value):
        inside = (self.low < value if self.open_low else self.low <= value) and value <= self.high
        return None if inside else f"must {'lie in' if self.high < math.inf else 'be'} {self}"


_POSITIVE = Bound(0.0, open_low=True)


def _one_of(*choices):
    return lambda value: None if value in choices else f"must be one of {', '.join(choices)}"


def _plain(value):
    """A parsed namespace as plain dicts and lists, for the summary."""
    if isinstance(value, SimpleNamespace):
        return {key: _plain(item) for key, item in vars(value).items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return value


def _trap(most_ions, n_ions=8, least_ions=1):
    """Trap fields; ``most_ions`` is the largest string the kind's solver takes."""
    return (
        Field("n_ions", int, n_ions, Bound(least_ions, most_ions)),
        Field("omega_z_hz", float, 127e3, _TRAP_FREQUENCY),
        Field("omega_x_hz", float, 2.93e6, _TRAP_FREQUENCY),
        Field("omega_y_hz", float, 2.89e6, _TRAP_FREQUENCY),
    )


# trap frequencies in Hz: 2 pi f, the period and omega^2 stay normal floats (1e-308 Hz squares to 0)
_TRAP_FREQUENCY = Bound(1e-3, 1e12)
# from H+ (1.007 amu) to charged nanoparticles; the floor keeps the mass in kg from underflowing to 0
_MASS = Field("ion_mass_amu", float, 40.0, Bound(1.0, 1e9))
# from hard X-rays to radio waves: k = 2 pi / lambda and k^2 stay normal floats
_WAVELENGTH = Field("wavelength_m", float, 729e-9, Bound(1e-10, 1.0))
_RABI = Field("rabi_hz", float, 50e3, _POSITIVE)

_DRIVE = (
    # 1e-9 Hz, below any synthesizer's step, still moves the beatnote off a top mode under 10 MHz
    Field("beatnote_offset_hz", float, 100e3, Bound(1e-9)),
    Field("centerline_detuning_hz", float, 3000.0),
    Field("resonance_guard_hz", float, 10.0, _POSITIVE),
)


class _Run(NamedTuple):
    """What a runner hands back; ``_execute`` writes it, ``solver`` as ``result.solver``."""

    header: list
    columns: list  # as ``export.write_table`` takes them
    result: dict
    solver: dict = {}
    # file-name suffix -> (header, columns) for a ``.csv``, a payload for a ``.json``
    sidecars: dict = {}


def _trap_parameters(p) -> chain.TrapParameters:
    return chain.TrapParameters(
        omega_x=omega_from_hz(p.omega_x_hz),
        omega_y=omega_from_hz(p.omega_y_hz),
        omega_z=omega_from_hz(p.omega_z_hz),
        ion_mass=mass_from_amu(p.ion_mass_amu),
        ion_count=p.n_ions,
    )


def _coupling(p) -> tuple[coupling.CouplingMatrix, chain.SolverRecord]:
    """Chain + drive -> CouplingMatrix, in rad/s, and the chain solver's record."""
    trap = _trap_parameters(p)
    positions, record = chain.equilibrium_positions(trap, full_output=True)
    k = wavevector(p.wavelength_m)
    spectra = [chain.lamb_dicke(chain.normal_modes(trap, positions, d), k) for d in (chain.RADIAL_X, chain.RADIAL_Y)]
    beatnote = max(s.frequencies[-1] for s in spectra) + omega_from_hz(p.beatnote_offset_hz)
    drive = coupling.DriveParameters(
        rabi=omega_from_hz(p.rabi_hz),
        centerline_detuning=omega_from_hz(p.centerline_detuning_hz),
        mode_detunings=coupling.detunings_from_beatnote(spectra, beatnote),
    )
    return coupling.spin_spin_matrix(spectra, drive, resonance_guard=omega_from_hz(p.resonance_guard_hz)), record


# ----------------------------------------------------------------- runs


_CHAIN = (
    Field("direction", str, chain.AXIAL, _one_of(chain.AXIAL, chain.RADIAL_X, chain.RADIAL_Y)),
    *_trap(chain.MAX_IONS, n_ions=51),
    _MASS,
)


def _run_chain(p, seed):
    trap = _trap_parameters(p)
    positions, record = chain.equilibrium_positions(trap, full_output=True)
    header, columns = export.mode_spectrum_columns(chain.normal_modes(trap, positions, p.direction))
    return _Run(
        header, columns, {"span_m": chain.chain_span(positions)}, dataclasses.asdict(record),
        sidecars={"_positions.csv": (["ion", "z_m"], [np.arange(1, positions.size + 1), positions])},
    )


_COUPLINGS = (*_trap(chain.MAX_IONS, least_ions=coupling.POWERLAW_MIN_IONS), _MASS, _WAVELENGTH, *_DRIVE, _RABI)


def _run_couplings(p, seed):
    mat, record = _coupling(p)
    fit = coupling.powerlaw_fit(mat)
    summary = {
        "max_j_rad_s": float(np.max(np.abs(mat.j))),
        "field_b_rad_s": mat.field_b,
        "powerlaw_exponent": fit.exponent,
    }
    header = [f"j_ion{k + 1}_rad_s" for k in range(mat.ion_count)]
    return _Run(header, [mat.j], summary, dataclasses.asdict(record))


_SPINS = (
    Field("model", str, dynamics.XY_EFFECTIVE, _one_of(dynamics.ISING_TRANSVERSE, dynamics.XY_EFFECTIVE)),
    Field("alignment", str, "odd_up", _one_of("odd_up", "even_up")),
    *_trap(dynamics.DEFAULT_QUBIT_CAP),
    *_DRIVE,
    Field("target_max_j_rad_s", float, 240.0, _POSITIVE),
)

# J is rabi^2 k^2 / mass times a shape set by the trap frequencies alone,
# so scaling it to target_max_j_rad_s cancels these three inputs.
_SCALED_AWAY = {field.name: field.default for field in (_MASS, _WAVELENGTH, _RABI)}


def _quench_setup(p):
    mat, _ = _coupling(SimpleNamespace(**vars(p), **_SCALED_AWAY))
    current = float(np.max(np.abs(mat.j)))
    if current > 0:
        mat = coupling.CouplingMatrix(j=mat.j * (p.target_max_j_rad_s / current), field_b=mat.field_b)
    return dynamics.HamiltonianSpec(coupling=mat, model=p.model), dynamics.neel_state(mat.ion_count, p.alignment)


_QUENCH = (
    *_SPINS,
    Field("t_max_s", float, 3e-3, _POSITIVE),
    Field("time_points", int, 31, Bound(2, 10**4)),
)


def _run_quench(p, seed):
    spec, state = _quench_setup(p)
    times = np.linspace(0.0, p.t_max_s, p.time_points)
    grid = dynamics.evolve_grid(state, spec, times)
    columns = [times, dynamics.magnetization(grid.states)]
    header = ["t_s"] + [f"sz_ion{k + 1}" for k in range(p.n_ions)]
    return _Run(header, columns, {"n_ions": p.n_ions, "model": spec.model}, grid.record())


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
    Field("time_s", float, 3e-3, _POSITIVE),
    Field("shots_per_setting", int, None, Bound(1, 10**6)),
    Field("subsets", [list], None, _subset_shape),
)


def _check_negativity(p):
    """A pair at least and every subset inside the string; adjacent pairs by default."""
    if p.n_ions < 2:
        return [f"params.n_ions: {p.n_ions} ion has no pair to take a negativity of; give at least 2"]
    if p.subsets is None:
        p.subsets = [[i, i + 1] for i in range(1, p.n_ions)]
    return [
        f"params.subsets[{idx}]: {subset} has an ion outside 1..{p.n_ions}"
        for idx, subset in enumerate(p.subsets)
        if not all(1 <= i <= p.n_ions for i in subset)
    ]


def _run_negativity(p, seed):
    spec, state = _quench_setup(p)
    grid = dynamics.evolve_grid(state, spec, [p.time_s])
    evolved = grid[0]
    values = []
    for subset in map(tuple, p.subsets):
        if p.shots_per_setting is None:
            rho = entanglement.reduced_density_matrix(evolved, subset)
        else:
            rho = entanglement.simulate_tomography(evolved, subset, p.shots_per_setting, seed=seed)
        if len(subset) == 2:
            value = entanglement.log_negativity_2(rho).value
        else:
            value = entanglement.log_negativity_3(rho).value
        values.append(value)
    labels = ["-".join(str(i) for i in subset) for subset in p.subsets]
    columns = [labels, np.array(values), [p.shots_per_setting or 0] * len(values), [seed] * len(values)]
    header = ["subset", "log_negativity", "shots_per_setting", "seed"]
    return _Run(header, columns, {"time_s": p.time_s}, grid.record())


# A noise or sensing frequency in Hz: the scan's span 1/f stays finite at the floor, and with tau_s
# up to 1e3 s the sequence phase 2 pi f tau stays below 2 pi 1e9 rad, where it rounds by under
# 1e-6 rad. The amplitudes reach 1 kG (1e9 uG), so the phase the noise accumulates stays finite.
_NOISE_FREQUENCY = Bound(1e-3, 1e6)
_SEQUENCE_TAU = Field("tau_s", float, 0.02, Bound(0.0, 1e3, open_low=True))

_FIELD_BOUND = Bound(0.0, 1e9)  # its top, 1.76e10 rad/s, is the largest amplitude a component may have
_COMPONENT = (
    Field("f_hz", float, REQUIRED, _NOISE_FREQUENCY),
    Field("b_microgauss", float, None, _FIELD_BOUND),
    Field("amplitude_rad_s", float, None, Bound(0.0, 1e10)),
    Field("phase_rad", float, 0.0),
    OneOf(("b_microgauss", "amplitude_rad_s")),
)

_SCAN = (
    Field("components", [_COMPONENT], REQUIRED),
    Field("shots", int, 100, Bound(1, 10**6)),
    Field("scan_points", int, 41, Bound(8, 10**4)),
    Field("contrast", float, 1.0, Bound(0.0, 1.0)),
)


def _weak_response(seq: sequences.PulseSequence, f: float) -> list[str]:
    """The config error of a sequence that cannot sense any allowed component at ``f`` Hz: one whose inner
    amplitude sqrt(2 pi) |F(f)| A, at the largest amplitude A the bounds allow (1e9 uG), lies below
    ``sequences.GRID_STEP``, the first amplitude of the sensing grid. Below it a fit reads only noise,
    at amplitudes up to 8 pi / (sqrt(2 pi) |F(f)|), which grow without limit as the response falls."""
    b_max = _FIELD_BOUND.high
    z = np.sqrt(2.0 * np.pi) * abs(sequences.filter_function(seq, f)) * sequences.field_to_amplitude(b_max)
    if z >= sequences.GRID_STEP:
        return []
    return [
        f"params.sequence.tau_s: the sequence of {seq.tau:g} s responds too weakly at {f:g} Hz: {b_max:g} uG "
        f"would give an inner amplitude of {z:.3g} rad, below the {sequences.GRID_STEP:.3g} rad the fit resolves"
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
    Field("sequence", (Field("n_pulses", int, 2, Bound(1, sequences.MAX_PULSES)), _SEQUENCE_TAU), {}),
    Field("sense_frequency_hz", float, None, _NOISE_FREQUENCY),
)


def _check_cpmg_sense(p):
    """The first component is probed by default, with a sequence that can sense it (``_weak_response``)."""
    if p.sense_frequency_hz is None:
        p.sense_frequency_hz = p.components[0].f_hz
    return _weak_response(sequences.cpmg(p.sequence.n_pulses, p.sequence.tau_s), p.sense_frequency_hz)


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
    summary = {"amplitude_rad_s": fit.amplitude}
    return _Run(["t0_s", "p_up"], [t0, data], summary, fit.record(), sidecars={"_fit.json": fit_record})


_COMPENSATE = (
    *_SCAN,
    Field("sequence", (_SEQUENCE_TAU,), {}),
    Field("max_rounds", int, 2, Bound(1, 1000)),
    Field("phase_drift_rad", float, 0.0, Bound(0.0)),
)


def _check_compensate(p):
    """One component per frequency, as the loop senses each frequency once, with a sequence of at
    most ``sequences.MAX_PULSES`` pulses that can sense it (``_weak_response``): at a ``tau_s`` so
    short that the response underflows every sense would be skipped, and where it is merely tiny
    the loop would apply fits of noise."""
    freqs = [c.f_hz for c in p.components]
    errors = []
    for idx, f in enumerate(freqs):
        if f in freqs[:idx]:
            errors.append(f"params.components[{idx}].f_hz: {f:g} Hz repeats an earlier component's frequency")
            continue
        try:
            seq = sequences.sequence_for_frequency(f, p.sequence.tau_s)
        except ValueError as exc:
            errors.append(f"params.components[{idx}].f_hz: {exc}")
            continue
        errors += _weak_response(seq, f)
    return errors


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
    summary = {"reduction_factors": {str(k): v for k, v in reductions.items()}}
    return _Run(header, [np.array(rows, dtype=float)], summary, result.record())


_WAVEFRONT_SEMICLASSICAL = (
    # bounded so that 2 pi f, the peak wait pi / omega and omega^2 stay normal floats
    Field("omega_z_hz", float, 112e3, _TRAP_FREQUENCY),
    Field("n_pulses", int, 20, Bound(1, 10**4)),
    _MASS,
    _WAVELENGTH,
    Field("tilt_mrad", float, 4.8, Bound(0.0, 500.0 * np.pi)),
    Field("nbar", float, None, Bound(0.0)),
    Field("temperature_k", float, None, _POSITIVE),
    # the waits in seconds, t_us * 1e-6, stay normal floats: below 2.2e-302 us they are subnormal or 0
    Field("t_wait_min_us", float, 1.0, Bound(1e-300)),
    Field("t_wait_max_us", float, 20.0, Bound(1e-300)),
    Field("n_points", int, 200, Bound(1, 10**5)),
    OneOf(("nbar", "temperature_k"), {"temperature_k": 4.6e-3}),
)


def _check_wavefront_semiclassical(p):
    """Waits in order."""
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
    # C^2 peaks at 4 (n_pulses + 1)^2 where omega t_wait is pi
    peak = motion.thermal_excitation(motion.SemiclassicalParams(t_wait=np.pi / omega_z, **common))
    return _Run(["t_wait_us", "excitation"], [t_waits * 1e6, excitation], {"peak_excitation": peak})


_MAX_FOCK_CUTOFF = 10**5

_WAVEFRONT_QUANTUM = (
    # as the semiclassical omega_z_hz: the period, the waits and the level energies stay normal floats
    Field("omega_rad_s", float, 2.0 * np.pi, Bound(1e-3, 1e12)),
    # the Rabi frequency stays finite; a pi-pulse 1e-6 of a period long is as good as instantaneous
    Field("rabi_over_omega", float, 50.0, Bound(0.0, 1e6, open_low=True)),
    Field("eta", float, 0.01, Bound(0.0)),
    Field("n_pulses", int, 10, Bound(1, 10**4)),
    Field("nbar", float, None, Bound(0.0)),
    Field("initial_fock", int, None, Bound(0, 10**5)),
    Field("fock_cutoff", int, None, Bound(1, _MAX_FOCK_CUTOFF)),
    Field("detuning_rad_s", float, 0.0),
    Field("t_wait_min_periods", float, 0.55, _POSITIVE),
    # the free phase omega (n + 1/2) t_wait, up to 2 pi 1e4 x the cutoff, rounds by at most 1e-6 rad
    Field("t_wait_max_periods", float, 2.2, Bound(0.0, 1e4, open_low=True)),
    Field("n_points", int, 56, Bound(1, 10**4)),
    OneOf(("nbar", "initial_fock"), {"nbar": 10.0}),
)


def _spin_motion(p) -> motion.SpinMotionParams:
    return motion.SpinMotionParams(
        eta=p.eta, rabi=p.rabi_over_omega * p.omega_rad_s, omega=p.omega_rad_s,
        detuning=p.detuning_rad_s, nbar=p.nbar or 0.0, fock_cutoff=p.fock_cutoff,
    )


def _check_wavefront_quantum(p):
    """Waits in order; by default a cutoff that holds the state; the scan's limits, from ``motion.scan_limits``."""
    lo, hi = p.t_wait_min_periods, p.t_wait_max_periods
    errors = [f"params.t_wait_min_periods: {lo:g} exceeds t_wait_max_periods {hi:g}"] if lo > hi else []
    if p.fock_cutoff is None:
        source = "nbar" if p.initial_fock is None else "initial_fock"
        base = getattr(p, source)
        _, default = motion.cutoff_rule(base)
        # compared as a float: int() refuses the inf that 5 * 1e308 gives
        if default > _MAX_FOCK_CUTOFF:
            return errors + [f"params.{source}: {base:g} needs a fock_cutoff above {_MAX_FOCK_CUTOFF}"]
        p.fock_cutoff = int(default)
    limits = motion.scan_limits(_spin_motion(p), lo * (2.0 * np.pi / p.omega_rad_s), p.initial_fock)
    fields = {"t_wait": "t_wait_min_periods"}  # the other arguments of motion.scan_limits are fields by name
    return errors + [f"params.{fields.get(argument, argument)}: {message}" for argument, message in limits]


def _run_wavefront_quantum(p, seed):
    params = _spin_motion(p)
    period = 2.0 * np.pi / p.omega_rad_s
    t_waits = np.linspace(p.t_wait_min_periods * period, p.t_wait_max_periods * period, p.n_points)
    result = motion.quantum_cpmg_scan(params, p.n_pulses, t_waits, initial_fock=p.initial_fock)
    meta_keys = ("eta", "omega_rad_s", "detuning_rad_s", "nbar", "initial_fock", "fock_cutoff", "n_pulses")
    meta = {key: getattr(p, key) for key in meta_keys}
    meta.update(rabi_rad_s=params.rabi, truncated_weight=result.truncated_weight, max_leak=result.max_leak)
    columns = [result.t_wait * 1e6, result.excitation]
    return _Run(
        ["t_wait_us", "excitation"], columns, {"max_excitation": float(result.excitation.max())}, result.record(),
        sidecars={"_meta.json": meta},
    )


_HEATING_ROW = (
    Field("omega_z_hz", float, REQUIRED, _TRAP_FREQUENCY),
    Field("n_ions", int, 1, Bound(1, 10**5)),
    Field("rate_quanta_per_s", float, REQUIRED, _POSITIVE),
    Field("sigma", float, None, _POSITIVE),
)

_HEATING_SYNTHETIC = (
    # measured exponents lie near 1 to 4; far past 10, the synthetic omega^-alpha underflows to 0
    Field("alpha", float, 1.9, Bound(0.0, 10.0, open_low=True)),
    # at alpha 10 and 1e12 Hz, omega^-alpha is 1e-128, so the rates stay above 1e-298, normal floats
    Field("prefactor", float, 3e12, Bound(1e-170)),
    # a relative 1-sigma scatter: measured rates scatter by tens of percent, and at 1e308 the rates overflow
    Field("noise_fraction", float, 0.1, Bound(0.0, 10.0)),
    Field("freqs_hz", [float], list(np.geomspace(30e3, 500e3, 8)), _TRAP_FREQUENCY),
    Field("ion_counts", [int], [1, 28, 50], Bound(1, 10**5)),
)

_HEATING_FIT = (Field("data", [_HEATING_ROW]), Field("synthetic", _HEATING_SYNTHETIC), OneOf(("data", "synthetic")))


def _check_heating_fit(p):
    given = [row.sigma is not None for row in p.data or []]
    if any(given) and not all(given):
        return [f"params.data[{given.index(False)}].sigma: give sigma on every row or on none"]
    freqs = [row.omega_z_hz for row in p.data] if p.data else p.synthetic.freqs_hz
    if len(set(freqs)) < stochastics.HEATING_MIN_FREQUENCIES:
        where = "data[].omega_z_hz" if p.data else "synthetic.freqs_hz"
        return [f"params.{where}: {len(set(freqs))} distinct trap frequencies are too few for the fit"]
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
    fit_record = {
        "exponent": fit.exponent, "exponent_sigma": fit.exponent_sigma, "prefactor": fit.prefactor, "seed": seed,
    }
    header = ["omega_z_hz", "n_ions", "rate_per_ion"]
    return _Run(header, columns, {"exponent": fit.exponent}, sidecars={"_fit.json": fit_record})


_SURVIVAL = (
    Field("melt_rate_per_s", float, 1.0 / 29.2, Bound(0.0)),
    Field("horizon_s", float, 60.0, _POSITIVE),
    Field("trials", int, 10000, Bound(100, 10**6)),
    Field("n_bins", int, 60, Bound(1, 10**4)),
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
    result = {"tau_s": fit.tau if np.isfinite(fit.tau) else None}
    columns = [curve.times, curve.fraction]
    return _Run(["time_s", "surviving_fraction"], columns, result, sidecars={"_fit.json": fit_record})


_RAMSEY_CORRELATIONS = (
    Field("noise_kind", str, stochastics.RANDOM_WALK, _one_of(*stochastics._NOISE_KINDS)),
    Field("strength", float, 6.67, _POSITIVE),
    # repeats 1e6 s (11.6 days) apart are no drift record; near 1e300 s the fit's lag grid overflows
    Field("dt_s", float, 2e-3, Bound(0.0, 1e6, open_low=True)),
    Field("n_experiments", int, 30000, Bound(100, 10**7)),
    Field("max_lag_steps", int, 100, Bound(10, 10**5)),
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
    header, columns = ["lag_s", "correlation", "pairs"], [corr.lags, corr.values, corr.pair_counts]
    result = {"selected_model": selection.kind}
    return _Run(header, columns, result, selection.record(), sidecars={"_fit.json": fit_record})


class _Kind(NamedTuple):
    fields: tuple
    run: Callable[[SimpleNamespace, int], _Run]
    # cross-field errors; may fill defaults that depend on other fields
    check: Callable[[SimpleNamespace], list] | None = None


_KINDS = {
    "chain": _Kind(_CHAIN, _run_chain),
    "couplings": _Kind(_COUPLINGS, _run_couplings),
    "quench": _Kind(_QUENCH, _run_quench),
    "negativity": _Kind(_NEGATIVITY, _run_negativity, _check_negativity),
    "cpmg-sense": _Kind(_CPMG_SENSE, _run_cpmg_sense, _check_cpmg_sense),
    "compensate": _Kind(_COMPENSATE, _run_compensate, _check_compensate),
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
    Field("seed", int, 0, Bound(0, 2**63 - 1)),
    Field("out", str),
    Field("format", str, "csv", _one_of("csv", "json")),
    Field("params", dict, {}),
)


def _sibling(out, suffix: str) -> str:
    path = Path(out)
    return str(path.with_name(path.stem + suffix))


def _write(out: str, fmt: str, run: _Run) -> list[str]:
    """Write the main table in ``fmt`` and the sidecars; returns the paths."""
    export.write_table(out, run.header, run.columns, as_json=fmt == "json")
    outputs = [out]
    for suffix, content in run.sidecars.items():
        path = _sibling(out, suffix)
        if suffix.endswith(".csv"):
            export.write_table(path, *content)
        else:
            export.write_json(path, content)
        outputs.append(path)
    return outputs


def run_experiment(config: dict, seed=None, out=None, fmt=None) -> dict:
    """Validate and execute one experiment; returns the summary dict."""
    start = time.perf_counter()
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
    effective = {"kind": top.kind, "seed": top.seed, "out": out, "format": top.format, "params": params}
    return _execute(kind.run, config, effective, start)


def _execute(runner, config: dict, effective: dict, start: float) -> dict:
    """Run one table's solver with floating-point overflow, invalid operations and division by zero raised,
    then write its data files and summary; returns the summary. ``effective`` names the ``kind`` or ``figure``
    and holds the ``seed``, ``out``, ``format`` and ``params`` the runner takes."""
    name = effective.get("kind") or effective["figure"]
    parsed = time.perf_counter()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            run = runner(effective["params"], effective["seed"])
    except FloatingPointError as exc:
        raise FloatingPointError(f"{name}: {exc}") from exc
    solved = time.perf_counter()
    outputs = _write(effective["out"], effective["format"], run)
    stages = {"parse_s": parsed - start, "solve_s": solved - parsed, "write_s": time.perf_counter() - solved}
    logger.debug("run_experiment %s: stages %s", name, stages)

    summary = {
        "config": config,
        "effective": {**effective, "params": _plain(effective["params"])},
        "outputs": [str(o) for o in outputs],
        "result": {**run.result, "solver": run.solver},
        "stages": stages,
        "versions": {
            "ionstring": ionstring.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    summary_path = str(effective["out"]) + ".summary.json"
    export._atomic_write(summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    summary["summary_path"] = summary_path
    return summary


# --------------------------------------------------------------- figures


def emit_figure_data(kind: str, outdir=".", seed: int = 0) -> dict:
    """Write the CSV bundle for one figure analog, each table through ``_execute``; returns name -> path."""
    if kind not in _FIGURES:
        raise ConfigError([f"figure kind must be one of {', '.join(FIGURE_KINDS)}"])
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (file, job, offset, params) in _FIGURES[kind].items():
        paths[name] = str(outdir / file)
        if job in _KINDS:
            run_experiment({"kind": job, "seed": seed + offset, "out": paths[name], "params": params})
        else:
            config = {"figure": kind, "seed": seed + offset, "out": paths[name], "params": params}
            _execute(job, config, {**config, "format": "csv"}, time.perf_counter())
    return paths


# Table I line-noise components: (f_hz, b_microgauss, phase_rad)
_TABLE_I = ((50.0, 37.2, 0.4), (150.0, 9.3, 1.9), (250.0, 23.3, -1.1))


def _fig4c(params, seed):
    """One table of the scan before and after compensation, which no kind writes."""
    before = [sequences.NoiseComponent.from_field(*row) for row in _TABLE_I]
    result = sequences.compensate(before, seed=seed, max_rounds=2, shots=100)
    seq = sequences.cpmg(2, 0.02)
    rng = np.random.default_rng(seed + 1)
    t0 = np.arange(81) / 81 / 50.0
    p_before = sequences.simulate_scan(seq, before, 1.0, t0, shots=100, rng=rng)
    p_after = sequences.simulate_scan(seq, result.residuals, 1.0, t0, shots=100, rng=rng)
    return _Run(["t0_s", "p_up_before", "p_up_after"], [t0, p_before, p_after], {}, result.record())


def _fig4d(params, seed):
    """Fixed residuals: a real ``compensate`` costs 0.27 CPU-s, 30% of a benchmark ``analysis`` round."""
    table = tuple(sequences.NoiseComponent.from_field(*row) for row in _TABLE_I)
    residual = tuple(
        sequences.NoiseComponent.from_field(*row) for row in ((50.0, 1.3, 0.1), (150.0, 0.9, -0.5), (250.0, 0.7, 2.0))
    )
    scenario = sequences.RamseyScenario(uncompensated=table, residual=residual, base_contrast=0.85, shots=400)
    modes = (sequences.TRIGGER_AND_COMPENSATION, sequences.COMPENSATION_ONLY, sequences.BOTH_OFF)
    contrasts = [sequences.ramsey_contrast(4.5e-3, scenario, mode, seed=seed + i) for i, mode in enumerate(modes)]
    return _Run(["scenario", "contrast"], [list(modes), np.array(contrasts)], {})


def _fig8(params, seed):
    """The addressing crosstalk map, a table no kind writes."""
    # the chain kind's default 51-ion string
    positions, record = chain.equilibrium_positions(_trap_parameters(_parse({}, _CHAIN, "")[0]), full_output=True)
    n_ions = len(positions)
    addressed = range(0, n_ions, 5)
    maps, nn = [], []
    for ion in addressed:
        beam = coupling.AddressingBeam(waist=2.5e-6, center=positions[ion], pedestal_floor=0.03)
        maps.append(coupling.crosstalk_map(beam, positions))
        nn.append(max(maps[-1][i] for i in (ion - 1, ion + 1) if 0 <= i < n_ions))
    resonant = np.concatenate(maps)
    columns = [
        np.repeat(np.array(addressed) + 1, n_ions), np.tile(np.arange(1, n_ions + 1), len(addressed)),
        resonant, resonant**2, np.repeat(nn, n_ions),  # its square is the ac-Stark (intensity) ratio
    ]
    header = ["addressed_ion", "ion", "resonant_ratio", "ac_stark_ratio", "nn_resonant_ratio"]
    return _Run(header, columns, {}, dataclasses.asdict(record))


def _fig11_params(ratio: float) -> dict:
    """One Fock state probed at a given Rabi frequency / trap frequency."""
    return {
        "rabi_over_omega": ratio, "eta": 0.01, "n_pulses": 10, "initial_fock": 50, "fock_cutoff": 320,
        "t_wait_min_periods": max(0.55, 1.05 / ratio / 2.0), "t_wait_max_periods": 2.2, "n_points": 56,
    }


def _fig12_jobs() -> dict:
    """A thermal quantum scan and the semiclassical curve on a 1 Hz trap, at the tilt that explains a peak of 0.3."""
    nbar, n_pulses = 60.0, 20
    omega, mass, k = omega_from_hz(1.0), mass_from_amu(_MASS.default), wavevector(_WAVELENGTH.default)
    tilt = motion.infer_tilt(0.3, omega, n_pulses, motion.temperature_from_nbar(nbar, omega), mass, k)
    # eta = k_z sqrt(hbar / (2 m omega)), with k_z = k sin(tilt) the tilt's share of the 729 nm wavevector
    eta = float(k * np.sin(tilt) * np.sqrt(HBAR / (2.0 * mass * omega)))
    quantum = {
        "rabi_over_omega": 50.0, "eta": eta, "n_pulses": n_pulses, "nbar": nbar, "fock_cutoff": 400,
        "t_wait_min_periods": 0.4, "t_wait_max_periods": 1.15, "n_points": 46,
    }
    semiclassical = {
        "omega_z_hz": 1.0, "n_pulses": n_pulses, "nbar": nbar, "tilt_mrad": 1e3 * tilt,
        "t_wait_min_us": 0.4e6, "t_wait_max_us": 1.15e6, "n_points": 151,
    }
    return {
        "quantum": ("fig12_quantum.csv", "wavefront-quantum", 0, quantum),
        "semiclassical": ("fig12_semiclassical.csv", "wavefront-semiclassical", 0, semiclassical),
    }


def _fig6_survival(tau_s: float) -> dict:
    return {"melt_rate_per_s": 1.0 / tau_s, "horizon_s": 60.0, "trials": 10000}


# figure -> table name -> (file, job, seed offset, params); a job is a kind, or a runner for a table no kind writes
_FIGURES = {
    # desk-scale quench: magnetization dynamics plus pair negativities
    "fig1": {
        "magnetization": ("fig1a_magnetization.csv", "quench", 0, {"n_ions": 8}),
        "pair_negativity": ("fig1b_pair_negativity.csv", "negativity", 0, {"n_ions": 8, "time_s": 3e-3}),
    },
    "fig3": {"heating": ("fig3_heating.csv", "heating-fit", 0, {"synthetic": {}})},
    "fig4c": {"scan": ("fig4c_scan.csv", _fig4c, 0, {})},
    "fig4d": {"contrast": ("fig4d_contrast.csv", _fig4d, 0, {})},
    "fig6": {
        "25ion": ("fig6_survival_25ion.csv", "survival", 0, _fig6_survival(29.2)),
        "51ion": ("fig6_survival_51ion.csv", "survival", 1, _fig6_survival(27.0)),
    },
    "fig8": {"crosstalk": ("fig8_crosstalk.csv", _fig8, 0, {})},
    "fig11": {
        f"rabi_{ratio:g}": (f"fig11_rabi_{ratio:g}.csv", "wavefront-quantum", 0, _fig11_params(ratio))
        for ratio in (0.5, 1.0, 5.0, 50.0)
    },
    "fig12": _fig12_jobs(),
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
    except MemoryError as exc:
        print(f"numerical failure: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
