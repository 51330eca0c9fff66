"""Config-driven command-line front end.

Two subcommands:

``ionstring run CONFIG.json [--seed N] [--out PATH] [--format csv|json]``
    Execute one experiment described by a JSON config file. The file
    carries ``kind``, ``seed``, ``out``, ``format``, and a kind-specific
    ``params`` block; command-line flags override the file. A summary
    JSON (input echo, package versions, runtime, output list) is
    written next to the main output as ``<out>.summary.json``; for
    ``quench`` and ``negativity`` its ``result.solver`` holds the
    propagation steps taken, the worst norm error and the dimension of
    the symmetry sector propagated, for
    ``wavefront-quantum`` the Fock solver's boundary leak, norm error,
    truncated thermal weight, band half-width, squarings,
    dropped-band error bound and the share of (slab, column) products
    its row windows left to compute.

``ionstring figure KIND [--outdir DIR] [--seed N]``
    Emit the CSV bundle behind one of the canned figure analogs.

Frequencies in config files are plain Hz and use ``_hz``-suffixed keys;
they are converted to angular frequencies internally. Exit codes:
0 success, 2 config validation error, 3 numerical failure. Outputs are
deterministic for a fixed (config, seed) pair.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import ionstring
from ionstring import chain, coupling, dynamics, entanglement, motion, sequences, stochastics
from ionstring import export
from ionstring.constants import HBAR, mass_from_amu, omega_from_hz, wavevector
from ionstring.errors import IonstringError

EXPERIMENT_KINDS = (
    "chain",
    "couplings",
    "quench",
    "negativity",
    "cpmg-sense",
    "compensate",
    "wavefront-semiclassical",
    "wavefront-quantum",
    "heating-fit",
    "survival",
    "ramsey-correlations",
)

FIGURE_KINDS = ("fig1", "fig3", "fig4c", "fig4d", "fig6", "fig8", "fig11", "fig12")


class ConfigError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class _Params:
    """Typed field extraction that collects every offending field."""

    def __init__(self, block: dict, context: str):
        self.block = dict(block)
        self.context = context
        self.errors: list[str] = []

    def get(self, key, kind=float, default=None, required=False, check=None):
        if key not in self.block:
            if required:
                self.errors.append(f"{self.context}.{key}: missing required field")
            return default
        value = self.block.pop(key)
        try:
            if kind in (int, float) and isinstance(value, (str, bool)):
                raise ValueError
            if kind is float:
                value = float(value)
            elif kind is int:
                if isinstance(value, float) and not value.is_integer():
                    raise ValueError
                value = int(value)
            elif kind is str:
                if not isinstance(value, str):
                    raise ValueError
            elif kind is list:
                if not isinstance(value, list):
                    raise ValueError
            elif kind is dict:
                if not isinstance(value, dict):
                    raise ValueError
        except (TypeError, ValueError):
            self.errors.append(f"{self.context}.{key}: expected {kind.__name__}")
            return default
        if check is not None:
            message = check(value)
            if message:
                self.errors.append(f"{self.context}.{key}: {message}")
                return default
        return value

    def finish(self):
        for key in self.block:
            self.errors.append(f"{self.context}.{key}: unknown field")
        return self.errors


def _at_least_one(value):
    return None if value >= 1 else "must be >= 1"


def _positive(value):
    return None if value > 0 else "must be positive"


def _non_negative(value):
    return None if value >= 0 else "must be >= 0"


def _build_trap(p: _Params, default_n=8) -> chain.TrapParameters | None:
    n = p.get("n_ions", int, default=default_n, check=_at_least_one)
    omega_z = p.get("omega_z_hz", float, default=127e3, check=_positive)
    omega_x = p.get("omega_x_hz", float, default=2.93e6, check=_positive)
    omega_y = p.get("omega_y_hz", float, default=2.89e6, check=_positive)
    mass_amu = p.get("ion_mass_amu", float, default=40.0, check=_positive)
    wavelength = p.get("wavelength_m", float, default=729e-9, check=_positive)
    if p.errors:
        return None
    return chain.TrapParameters(
        omega_x=omega_from_hz(omega_x),
        omega_y=omega_from_hz(omega_y),
        omega_z=omega_from_hz(omega_z),
        ion_mass=mass_from_amu(mass_amu),
        ion_count=n,
        laser_wavelength=wavelength,
    )


def _coupling_from_params(p: _Params):
    """Chain + drive -> CouplingMatrix, scaled to a target max |J|."""
    trap = _build_trap(p)
    beat_offset = p.get("beatnote_offset_hz", float, default=100e3, check=_positive)
    delta_hz = p.get("centerline_detuning_hz", float, default=3000.0)
    rabi_hz = p.get("rabi_hz", float, default=50e3, check=_positive)
    j_max = p.get("target_max_j_rad_s", float, default=None)
    guard_hz = p.get("resonance_guard_hz", float, default=10.0, check=_positive)
    if p.errors or trap is None:
        return None, None
    positions = chain.equilibrium_positions(trap)
    k = wavevector(trap.laser_wavelength)
    spectra = []
    for direction in (chain.RADIAL_X, chain.RADIAL_Y):
        spec = chain.normal_modes(trap, positions, direction)
        spectra.append(chain.lamb_dicke(spec, k))
    beatnote = max(s.frequencies[-1] for s in spectra) + omega_from_hz(beat_offset)
    drive = coupling.DriveParameters(
        rabi=omega_from_hz(rabi_hz),
        centerline_detuning=omega_from_hz(delta_hz),
        mode_detunings=coupling.detunings_from_beatnote(spectra, beatnote),
    )
    mat = coupling.spin_spin_matrix(
        spectra, drive, resonance_guard=omega_from_hz(guard_hz)
    )
    if j_max is not None and j_max > 0:
        current = float(np.max(np.abs(mat.j)))
        if current > 0:
            mat = coupling.CouplingMatrix(j=mat.j * (j_max / current), field_b=mat.field_b)
    return mat, positions


def _components_from_list(p: _Params, raw) -> list[sequences.NoiseComponent]:
    comps = []
    for idx, entry in enumerate(raw or []):
        if not isinstance(entry, dict):
            p.errors.append(f"{p.context}.components[{idx}]: expected object")
            continue
        cp = _Params(entry, f"{p.context}.components[{idx}]")
        f_hz = cp.get("f_hz", float, required=True, check=_positive)
        b_ug = cp.get("b_microgauss", float, default=None, check=_non_negative)
        amp = cp.get("amplitude_rad_s", float, default=None, check=_non_negative)
        phase = cp.get("phase_rad", float, default=0.0)
        p.errors.extend(cp.finish())
        if f_hz is None:
            continue
        if (b_ug is None) == (amp is None):
            p.errors.append(
                f"{p.context}.components[{idx}]: give exactly one of "
                f"b_microgauss / amplitude_rad_s"
            )
            continue
        if b_ug is not None:
            comps.append(sequences.NoiseComponent.from_field(f_hz, b_ug, phase))
        else:
            comps.append(sequences.NoiseComponent(f_hz, amp, phase))
    return comps


# ----------------------------------------------------------------- runs


def _run_chain(p: _Params, seed, out, fmt):
    direction = p.get(
        "direction", str, default=chain.AXIAL,
        check=lambda v: None if v in (chain.AXIAL, chain.RADIAL_X, chain.RADIAL_Y) else "unknown direction",
    )
    trap = _build_trap(p, default_n=51)
    _raise_config(p)
    positions = chain.equilibrium_positions(trap)
    spectrum = chain.lamb_dicke(
        chain.normal_modes(trap, positions, direction),
        wavevector(trap.laser_wavelength),
    )
    outputs = []
    if fmt == "csv":
        export.write_mode_spectrum_csv(spectrum, out)
    else:
        export.write_json(out, export.mode_spectrum_dict(spectrum))
    outputs.append(out)
    pos_path = _sibling(out, "_positions.csv")
    export.write_csv(pos_path, ["ion", "z_m"], [[i + 1, z] for i, z in enumerate(positions)])
    outputs.append(pos_path)
    summary = {"span_m": chain.chain_span(positions)}
    return outputs, summary


def _run_couplings(p: _Params, seed, out, fmt):
    mat, _ = _coupling_from_params(p)
    _raise_config(p)
    if fmt == "csv":
        export.write_coupling_csv(mat, out)
    else:
        export.write_json(out, export.coupling_dict(mat))
    fit = coupling.powerlaw_fit(mat)
    summary = {
        "max_j_rad_s": float(np.max(np.abs(mat.j))),
        "field_b_rad_s": mat.field_b,
        "powerlaw_exponent": fit.exponent,
    }
    return [out], summary


def _quench_setup(p: _Params):
    model = p.get(
        "model", str, default=dynamics.XY_EFFECTIVE,
        check=lambda v: None if v in (dynamics.ISING_TRANSVERSE, dynamics.XY_EFFECTIVE) else "unknown model",
    )
    alignment = p.get(
        "alignment", str, default="odd_up",
        check=lambda v: None if v in ("odd_up", "even_up") else "unknown alignment",
    )
    t_max = p.get("t_max_s", float, default=3e-3, check=_positive)
    n_times = p.get("time_points", int, default=31, check=lambda v: None if v >= 2 else "need >= 2")
    p.block.setdefault("target_max_j_rad_s", 240.0)
    mat, _ = _coupling_from_params(p)
    _raise_config(p)
    spec = dynamics.HamiltonianSpec(coupling=mat, model=model)
    state = dynamics.neel_state(mat.ion_count, alignment)
    times = np.linspace(0.0, t_max, n_times)
    return spec, state, times


def _solver_summary(grid: dynamics.GridEvolution) -> dict:
    return {
        "propagation_steps": grid.propagation_steps,
        "max_norm_error": grid.max_norm_error,
        "sector_dim": grid.sector_dim,
    }


def _run_quench(p: _Params, seed, out, fmt):
    spec, state, times = _quench_setup(p)
    n = spec.coupling.ion_count
    grid = dynamics.evolve_grid(state, spec, times)
    rows = [[t, *dynamics.magnetization(evolved)] for t, evolved in zip(times, grid)]
    header = ["t_s"] + [f"sz_ion{k + 1}" for k in range(n)]
    if fmt == "csv":
        export.write_csv(out, header, rows)
    else:
        export.write_json(out, {"columns": header, "rows": rows})
    return [out], {"n_ions": n, "model": spec.model, "solver": _solver_summary(grid)}


def _subset_errors(raw: list, n: int) -> list[str]:
    """One message per subset that is not 2 or 3 distinct ions in 1..n."""
    errors = []
    for idx, subset in enumerate(raw):
        where = f"params.subsets[{idx}]"
        if not isinstance(subset, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in subset
        ):
            errors.append(f"{where}: expected a list of ion indices")
        elif len(subset) not in (2, 3):
            errors.append(f"{where}: {subset} must have 2 or 3 ions")
        elif not all(1 <= i <= n for i in subset):
            errors.append(f"{where}: {subset} has an ion outside 1..{n}")
        elif len(set(subset)) != len(subset):
            errors.append(f"{where}: {subset} repeats an ion")
    return errors


def _run_negativity(p: _Params, seed, out, fmt):
    time_s = p.get("time_s", float, default=3e-3, check=_positive)
    shots = p.get("shots_per_setting", int, default=None, check=_positive)
    subsets_raw = p.get("subsets", list, default=None)
    # the ion count is read here to check the subsets before the
    # coupling build, and read again, unchanged, by the trap build
    n = p.get("n_ions", int, default=8, check=_at_least_one)
    p.block["n_ions"] = n
    p.errors.extend(_subset_errors(subsets_raw or [], n))
    p.block["t_max_s"] = time_s
    spec, state, _ = _quench_setup(p)
    subsets = (
        [tuple(s) for s in subsets_raw]
        if subsets_raw
        else [(i, i + 1) for i in range(1, n)]
    )
    grid = dynamics.evolve_grid(state, spec, [time_s])
    evolved = grid[0]
    rows = []
    for subset in subsets:
        if shots is None:
            rho = entanglement.reduced_density_matrix(evolved, subset)
        else:
            rho = entanglement.simulate_tomography(evolved, subset, shots, seed=seed)
        if len(subset) == 2:
            value = entanglement.log_negativity_2(rho).value
        else:
            value = entanglement.log_negativity_3(rho).value
        rows.append(["-".join(str(i) for i in subset), value, shots or 0, seed])
    header = ["subset", "log_negativity", "shots_per_setting", "seed"]
    if fmt == "csv":
        export.write_csv(out, header, rows)
    else:
        export.write_json(out, {"columns": header, "rows": rows})
    return [out], {"time_s": time_s, "solver": _solver_summary(grid)}


def _sense_setup(p: _Params):
    comps = _components_from_list(p, p.get("components", list, required=True))
    seq_block = p.get("sequence", dict, default={"n_pulses": 2, "tau_s": 0.02})
    sp = _Params(seq_block, f"{p.context}.sequence")
    n_pulses = sp.get("n_pulses", int, default=2, check=_positive)
    tau = sp.get("tau_s", float, default=0.02, check=_positive)
    p.errors.extend(sp.finish())
    shots = p.get("shots", int, default=100, check=_positive)
    scan_points = p.get("scan_points", int, default=41, check=lambda v: None if v >= 8 else "need >= 8")
    contrast = p.get(
        "contrast", float, default=1.0,
        check=lambda v: None if 0 <= v <= 1 else "must lie in [0, 1]",
    )
    return comps, n_pulses, tau, shots, scan_points, contrast


def _run_cpmg_sense(p: _Params, seed, out, fmt):
    comps, n_pulses, tau, shots, scan_points, contrast = _sense_setup(p)
    f_probe = p.get(
        "sense_frequency_hz", float,
        default=comps[0].frequency_hz if comps else None, check=_positive,
    )
    if not comps:
        p.errors.append("params.components: need at least one component")
    _raise_config(p)
    seq = sequences.cpmg(n_pulses, tau)
    rng = np.random.default_rng(seed)
    t0 = np.arange(scan_points) / scan_points / f_probe
    data = sequences.simulate_scan(seq, comps, contrast, t0, shots=shots, rng=rng)
    fit = sequences.sense(t0, data, seq, f_probe)
    export.write_csv(out, ["t0_s", "p_up"], np.column_stack([t0, data]).tolist())
    fit_path = _sibling(out, "_fit.json")
    export.write_json(
        fit_path,
        {
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
        },
    )
    return [out, fit_path], {"amplitude_rad_s": fit.amplitude}


def _run_compensate(p: _Params, seed, out, fmt):
    comps, _, tau, shots, scan_points, contrast = _sense_setup(p)
    max_rounds = p.get("max_rounds", int, default=2, check=_positive)
    drift = p.get("phase_drift_rad", float, default=0.0, check=_non_negative)
    if not comps:
        p.errors.append("params.components: need at least one component")
    _raise_config(p)
    result = sequences.compensate(
        comps, seed=seed, max_rounds=max_rounds, shots=shots,
        scan_points=scan_points, tau=tau, contrast=contrast, phase_drift=drift,
    )
    rows = []
    for before in sorted(comps, key=lambda c: c.frequency_hz):
        after = next(r for r in result.residuals if r.frequency_hz == before.frequency_hz)
        rows.append(
            [
                before.frequency_hz,
                before.field_ug,
                after.field_ug,
                before.amplitude / (2 * np.pi),
                after.amplitude / (2 * np.pi),
            ]
        )
    header = [
        "f_hz",
        "b_microgauss",
        "b_after_microgauss",
        "delta_hz",
        "delta_after_hz",
    ]
    if fmt == "csv":
        export.write_csv(out, header, rows)
    else:
        export.write_json(out, {"columns": header, "rows": rows})
    reductions = result.reduction_factors(comps)
    return [out], {"reduction_factors": {str(k): v for k, v in reductions.items()}}


def _run_wavefront_semiclassical(p: _Params, seed, out, fmt):
    omega_z = omega_from_hz(p.get("omega_z_hz", float, default=112e3, check=_positive))
    n_pulses = p.get("n_pulses", int, default=20, check=_positive)
    mass = mass_from_amu(p.get("ion_mass_amu", float, default=40.0, check=_positive))
    wavelength = p.get("wavelength_m", float, default=729e-9, check=_positive)
    tilt = p.get("tilt_mrad", float, default=4.8) * 1e-3
    nbar = p.get("nbar", float, default=None, check=_non_negative)
    temperature = p.get("temperature_k", float, default=4.6e-3, check=_positive)
    lo = p.get("t_wait_min_us", float, default=1.0, check=_positive)
    hi = p.get("t_wait_max_us", float, default=20.0, check=_positive)
    n_points = p.get("n_points", int, default=200, check=_positive)
    if lo > hi:
        p.errors.append(f"{p.context}.t_wait_min_us: {lo:g} exceeds t_wait_max_us {hi:g}")
    _raise_config(p)
    if nbar is not None:
        temperature = motion.temperature_from_nbar(nbar, omega_z)
    k_z = wavevector(wavelength) * np.sin(tilt)
    t_waits = np.linspace(lo * 1e-6, hi * 1e-6, n_points)
    excitation = motion.thermal_excitation(
        motion.SemiclassicalParams(
            omega=omega_z, t_wait=t_waits, n_pulses=n_pulses,
            k_z=k_z, temperature=temperature, mass=mass,
        )
    )
    export.write_csv(out, ["t_wait_us", "excitation"], np.column_stack([t_waits * 1e6, excitation]).tolist())
    peak = motion.peak_excitation(
        motion.SemiclassicalParams(
            omega=omega_z, t_wait=np.pi / omega_z, n_pulses=n_pulses,
            k_z=k_z, temperature=temperature, mass=mass,
        )
    )
    return [out], {"peak_excitation": peak}


def _run_wavefront_quantum(p: _Params, seed, out, fmt):
    omega = p.get("omega_rad_s", float, default=2.0 * np.pi, check=_positive)
    ratio = p.get("rabi_over_omega", float, default=50.0, check=_positive)
    eta = p.get("eta", float, default=0.01, check=_non_negative)
    n_pulses = p.get("n_pulses", int, default=10, check=_positive)
    nbar = p.get("nbar", float, default=10.0, check=_non_negative)
    fock_n = p.get("initial_fock", int, default=None, check=_non_negative)
    cutoff = p.get("fock_cutoff", int, default=None, check=_positive)
    detuning = p.get("detuning_rad_s", float, default=0.0)
    lo = p.get("t_wait_min_periods", float, default=0.55, check=_positive)
    hi = p.get("t_wait_max_periods", float, default=2.2, check=_positive)
    n_points = p.get("n_points", int, default=56, check=_positive)
    period = 2.0 * np.pi / omega
    pi_time = np.pi / (ratio * omega)
    if lo * period < pi_time:
        p.errors.append(
            f"{p.context}.t_wait_min_periods: {lo:g} periods is shorter than the "
            f"pi-time of {pi_time / period:g} periods"
        )
    elif lo > hi:
        p.errors.append(f"{p.context}.t_wait_min_periods: {lo:g} exceeds t_wait_max_periods {hi:g}")
    if cutoff is None:
        base = fock_n if fock_n is not None else nbar
        cutoff = int(5 * base + 20) + motion._CUTOFF_MARGIN
    if cutoff < 5 * nbar + 20:
        p.errors.append(f"{p.context}.fock_cutoff: {cutoff} is below 5*nbar + 20 = {5 * nbar + 20:g}")
    if fock_n is not None and fock_n > cutoff - motion._CUTOFF_MARGIN:
        p.errors.append(
            f"{p.context}.initial_fock: {fock_n} is closer than {motion._CUTOFF_MARGIN} to fock_cutoff {cutoff}"
        )
    _raise_config(p)
    params = motion.SpinMotionParams(
        eta=eta, rabi=ratio * omega, omega=omega,
        detuning=detuning, nbar=nbar, fock_cutoff=cutoff,
    )
    t_waits = np.linspace(lo * period, hi * period, n_points)
    result = motion.quantum_cpmg_scan(params, n_pulses, t_waits, initial_fock=fock_n)
    rows = np.column_stack([result.t_wait * 1e6, result.excitation]).tolist()
    export.write_csv(out, ["t_wait_us", "excitation"], rows)
    meta_path = _sibling(out, "_meta.json")
    export.write_json(
        meta_path,
        {
            "eta": eta,
            "rabi_rad_s": params.rabi,
            "omega_rad_s": omega,
            "detuning_rad_s": detuning,
            "nbar": nbar,
            "initial_fock": fock_n,
            "fock_cutoff": cutoff,
            "n_pulses": n_pulses,
            "truncated_weight": result.truncated_weight,
            "max_leak": result.max_leak,
        },
    )
    solver = {
        key: getattr(result, key)
        for key in (
            "max_leak", "max_norm_error", "truncated_weight", "band_width", "squarings", "band_dropped_norm",
            "column_fill",
        )
    }
    return [out, meta_path], {"max_excitation": float(result.excitation.max()), "solver": solver}


def _run_heating_fit(p: _Params, seed, out, fmt):
    raw_rows = p.get("data", list, default=None)
    synth = p.get("synthetic", dict, default=None)
    if (raw_rows is None) == (synth is None):
        p.errors.append("params: give exactly one of data / synthetic")
    dataset = None
    if raw_rows is not None:
        omegas, counts, rates, sigmas = [], [], [], []
        for idx, entry in enumerate(raw_rows):
            if not isinstance(entry, dict):
                p.errors.append(f"params.data[{idx}]: expected object")
                continue
            rp = _Params(entry, f"params.data[{idx}]")
            omegas.append(omega_from_hz(rp.get("omega_z_hz", float, required=True, check=_positive) or 1.0))
            counts.append(rp.get("n_ions", int, default=1, check=_positive))
            rates.append(rp.get("rate_quanta_per_s", float, required=True, check=_positive) or 1.0)
            sigmas.append(rp.get("sigma", float, default=None, check=_positive))
            p.errors.extend(rp.finish())
        if not p.errors:
            sigma = None if any(s is None for s in sigmas) else np.array(sigmas)
            dataset = stochastics.HeatingDataset(
                omega_z=np.array(omegas), ion_count=np.array(counts),
                rate=np.array(rates), sigma=sigma,
            )
    elif synth is not None:
        sp = _Params(synth, "params.synthetic")
        alpha = sp.get("alpha", float, default=1.9, check=_positive)
        level = sp.get("prefactor", float, default=3e12, check=_positive)
        noise = sp.get("noise_fraction", float, default=0.1, check=_non_negative)
        freqs = sp.get("freqs_hz", list, default=list(np.geomspace(30e3, 500e3, 8)))
        ion_counts = sp.get("ion_counts", list, default=[1, 28, 50])
        p.errors.extend(sp.finish())
        if not p.errors:
            rng = np.random.default_rng(seed)
            om = omega_from_hz(np.asarray(freqs, dtype=float))
            omeg = np.concatenate([om] * len(ion_counts))
            counts = np.repeat(np.asarray(ion_counts, dtype=float), om.size)
            truth = level * omeg ** (-alpha) * counts
            rates = truth * (1.0 + noise * rng.normal(size=truth.size))
            dataset = stochastics.HeatingDataset(
                omega_z=omeg, ion_count=counts, rate=np.abs(rates),
                sigma=noise * truth if noise > 0 else None,
            )
    _raise_config(p)
    fit = stochastics.fit_heating(dataset)
    rows = np.column_stack(
        [
            dataset.omega_z / (2 * np.pi),
            dataset.ion_count,
            dataset.rate / dataset.ion_count,
        ]
    ).tolist()
    export.write_csv(out, ["omega_z_hz", "n_ions", "rate_per_ion"], rows)
    fit_path = _sibling(out, "_fit.json")
    export.write_json(
        fit_path,
        {"exponent": fit.exponent, "exponent_sigma": fit.exponent_sigma, "prefactor": fit.prefactor, "seed": seed},
    )
    return [out, fit_path], {"exponent": fit.exponent}


def _run_survival(p: _Params, seed, out, fmt):
    melt_rate = p.get("melt_rate_per_s", float, default=1.0 / 29.2, check=_non_negative)
    soft = p.get("soft_collision_rate_per_ms", float, default=0.0, check=_non_negative)
    horizon = p.get("horizon_s", float, default=60.0, check=_positive)
    trials = p.get("trials", int, default=10000, check=lambda v: None if v >= 100 else "need >= 100")
    n_bins = p.get("n_bins", int, default=60, check=_positive)
    _raise_config(p)
    model = stochastics.CollisionModel(melt_rate=melt_rate, soft_collision_rate=soft)
    curve = stochastics.simulate_survival(model, horizon, trials, seed=seed, n_bins=n_bins)
    fit = stochastics.fit_lifetime(curve)
    export.write_csv(
        out, ["time_s", "surviving_fraction"],
        np.column_stack([curve.times, curve.fraction]).tolist(),
    )
    fit_path = _sibling(out, "_fit.json")
    export.write_json(
        fit_path,
        {
            "tau_s": fit.tau if np.isfinite(fit.tau) else "inf",
            "tau_sigma_s": fit.tau_sigma if np.isfinite(fit.tau_sigma) else "inf",
            "flat": fit.flat,
            "trials": trials,
            "seed": seed,
        },
    )
    return [out, fit_path], {"tau_s": fit.tau if np.isfinite(fit.tau) else None}


def _run_ramsey_correlations(p: _Params, seed, out, fmt):
    kind = p.get(
        "noise_kind", str, default=stochastics.RANDOM_WALK,
        check=lambda v: None if v in stochastics._NOISE_KINDS else "unknown noise kind",
    )
    strength = p.get("strength", float, default=6.67, check=_positive)
    dt = p.get("dt_s", float, default=2e-3, check=_positive)
    n_exp = p.get("n_experiments", int, default=30000, check=lambda v: None if v >= 100 else "need >= 100")
    max_lag = p.get("max_lag_steps", int, default=100, check=lambda v: None if v >= 10 else "need >= 10")
    if max_lag >= n_exp:
        p.errors.append(f"params.max_lag_steps: must be below n_experiments ({n_exp})")
    _raise_config(p)
    series = stochastics.simulate_phase_noise(kind, strength, dt, n_exp, seed=seed)
    corr = stochastics.phase_correlations(series, dt, max_lag)
    selection = stochastics.select_decay_model(corr)
    export.write_csv(
        out, ["lag_s", "correlation", "pairs"],
        np.column_stack([corr.lags, corr.values, corr.pair_counts]).tolist(),
    )
    fit_path = _sibling(out, "_fit.json")
    export.write_json(
        fit_path,
        {
            "selected_model": selection.kind,
            "amplitude": selection.amplitude,
            "scale_s": selection.scale if np.isfinite(selection.scale) else "inf",
            "rss_exponential": _nan_to_none(selection.rss_exponential),
            "rss_gaussian": _nan_to_none(selection.rss_gaussian),
            "seed": seed,
        },
    )
    return [out, fit_path], {"selected_model": selection.kind}


def _nan_to_none(x):
    return None if x is None or not np.isfinite(x) else float(x)


_RUNNERS = {
    "chain": _run_chain,
    "couplings": _run_couplings,
    "quench": _run_quench,
    "negativity": _run_negativity,
    "cpmg-sense": _run_cpmg_sense,
    "compensate": _run_compensate,
    "wavefront-semiclassical": _run_wavefront_semiclassical,
    "wavefront-quantum": _run_wavefront_quantum,
    "heating-fit": _run_heating_fit,
    "survival": _run_survival,
    "ramsey-correlations": _run_ramsey_correlations,
}


def _sibling(out, suffix: str) -> str:
    path = Path(out)
    return str(path.with_name(path.stem + suffix))


def _raise_config(p: _Params):
    errors = p.finish()
    if errors:
        raise ConfigError(errors)


def run_experiment(config: dict, seed=None, out=None, fmt=None) -> dict:
    """Validate and execute one experiment; returns the summary dict."""
    if not isinstance(config, dict):
        raise ConfigError(["config: expected a JSON object"])
    errors = []
    kind = config.get("kind")
    if kind not in EXPERIMENT_KINDS:
        errors.append(f"kind: must be one of {', '.join(EXPERIMENT_KINDS)}")
    seed = seed if seed is not None else config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        errors.append("seed: expected integer")
    fmt = fmt or config.get("format", "csv")
    if fmt not in ("csv", "json"):
        errors.append("format: must be csv or json")
    out = out or config.get("out")
    if out is None and kind is not None:
        out = f"ionstring_{kind}.{'csv' if fmt == 'csv' else 'json'}"
    params_block = config.get("params", {})
    if not isinstance(params_block, dict):
        errors.append("params: expected object")
        params_block = {}
    if errors:
        raise ConfigError(errors)

    start = time.perf_counter()
    p = _Params(params_block, "params")
    outputs, extra = _RUNNERS[kind](p, seed, out, fmt)
    runtime = time.perf_counter() - start

    summary = {
        "config": config,
        "effective": {"kind": kind, "seed": seed, "out": out, "format": fmt},
        "outputs": [str(o) for o in outputs],
        "result": extra,
        "runtime_s": runtime,
        "versions": {
            "ionstring": ionstring.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
    }
    summary_path = str(out) + ".summary.json"
    with open(summary_path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    summary["summary_path"] = summary_path
    return summary


# --------------------------------------------------------------- figures


def emit_figure_data(kind: str, outdir=".", seed: int = 0) -> dict:
    """Write the CSV bundle for one figure analog; returns name -> path."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if kind not in FIGURE_KINDS:
        raise ConfigError([f"figure kind must be one of {', '.join(FIGURE_KINDS)}"])
    emitters = {
        "fig1": _fig1,
        "fig3": _fig3,
        "fig4c": _fig4c,
        "fig4d": _fig4d,
        "fig6": _fig6,
        "fig8": _fig8,
        "fig11": _fig11,
        "fig12": _fig12,
    }
    return emitters[kind](outdir, seed)


def _fig1(outdir: Path, seed: int) -> dict:
    """Desk-scale quench: magnetization dynamics plus pair negativities."""
    config = {"kind": "quench", "seed": seed, "out": str(outdir / "fig1a_magnetization.csv"), "params": {"n_ions": 8}}
    run_experiment(config)
    config_b = {
        "kind": "negativity",
        "seed": seed,
        "out": str(outdir / "fig1b_pair_negativity.csv"),
        "params": {"n_ions": 8, "time_s": 3e-3},
    }
    run_experiment(config_b)
    return {
        "magnetization": str(outdir / "fig1a_magnetization.csv"),
        "pair_negativity": str(outdir / "fig1b_pair_negativity.csv"),
    }


def _fig3(outdir: Path, seed: int) -> dict:
    out = str(outdir / "fig3_heating.csv")
    run_experiment({"kind": "heating-fit", "seed": seed, "out": out, "params": {"synthetic": {}}})
    return {"heating": out}


def _fig4c(outdir: Path, seed: int) -> dict:
    comps = [
        {"f_hz": 50.0, "b_microgauss": 37.2, "phase_rad": 0.4},
        {"f_hz": 150.0, "b_microgauss": 9.3, "phase_rad": 1.9},
        {"f_hz": 250.0, "b_microgauss": 23.3, "phase_rad": -1.1},
    ]
    before = [sequences.NoiseComponent.from_field(c["f_hz"], c["b_microgauss"], c["phase_rad"]) for c in comps]
    result = sequences.compensate(before, seed=seed, max_rounds=2, shots=100)
    seq = sequences.cpmg(2, 0.02)
    rng = np.random.default_rng(seed + 1)
    t0 = np.arange(81) / 81 / 50.0
    p_before = sequences.simulate_scan(seq, before, 1.0, t0, shots=100, rng=rng)
    p_after = sequences.simulate_scan(seq, result.residuals, 1.0, t0, shots=100, rng=rng)
    out = str(outdir / "fig4c_scan.csv")
    export.write_csv(
        out, ["t0_s", "p_up_before", "p_up_after"],
        np.column_stack([t0, p_before, p_after]).tolist(),
    )
    return {"scan": out}


def _fig4d(outdir: Path, seed: int) -> dict:
    table = (
        sequences.NoiseComponent.from_field(50.0, 37.2, 0.4),
        sequences.NoiseComponent.from_field(150.0, 9.3, 1.9),
        sequences.NoiseComponent.from_field(250.0, 23.3, -1.1),
    )
    residual = (
        sequences.NoiseComponent.from_field(50.0, 1.3, 0.1),
        sequences.NoiseComponent.from_field(150.0, 0.9, -0.5),
        sequences.NoiseComponent.from_field(250.0, 0.7, 2.0),
    )
    scenario = sequences.RamseyScenario(
        uncompensated=table, residual=residual, base_contrast=0.85, shots=400,
    )
    rows = []
    for idx, mode in enumerate(
        (sequences.TRIGGER_AND_COMPENSATION, sequences.COMPENSATION_ONLY, sequences.BOTH_OFF)
    ):
        contrast = sequences.ramsey_contrast(4.5e-3, scenario, mode, seed=seed + idx)
        rows.append([mode, contrast])
    out = str(outdir / "fig4d_contrast.csv")
    export.write_csv(out, ["scenario", "contrast"], rows)
    return {"contrast": out}


def _fig6(outdir: Path, seed: int) -> dict:
    paths = {}
    for label, tau, offset in (("25ion", 29.2, 0), ("51ion", 27.0, 1)):
        out = str(outdir / f"fig6_survival_{label}.csv")
        run_experiment(
            {
                "kind": "survival",
                "seed": seed + offset,
                "out": out,
                "params": {"melt_rate_per_s": 1.0 / tau, "horizon_s": 60.0, "trials": 10000},
            }
        )
        paths[label] = out
    return paths


def _fig8(outdir: Path, seed: int) -> dict:
    trap = chain.TrapParameters(
        omega_x=omega_from_hz(2.93e6), omega_y=omega_from_hz(2.89e6),
        omega_z=omega_from_hz(127e3), ion_mass=mass_from_amu(40.0), ion_count=51,
    )
    positions = chain.equilibrium_positions(trap)
    rows = []
    for addressed in range(0, 51, 5):
        beam = coupling.AddressingBeam(
            waist=2.5e-6, center=positions[addressed], pedestal_floor=0.03,
        )
        resonant = coupling.crosstalk_map(beam, positions, "resonant")
        stark = coupling.crosstalk_map(beam, positions, "ac_stark")
        neighbors = [i for i in (addressed - 1, addressed + 1) if 0 <= i < 51]
        nn = max(resonant[i] for i in neighbors)
        for ion in range(51):
            rows.append([addressed + 1, ion + 1, resonant[ion], stark[ion], nn])
    out = str(outdir / "fig8_crosstalk.csv")
    export.write_csv(
        out,
        ["addressed_ion", "ion", "resonant_ratio", "ac_stark_ratio", "nn_resonant_ratio"],
        rows,
    )
    return {"crosstalk": out}


def _fig11(outdir: Path, seed: int) -> dict:
    paths = {}
    for ratio in (0.5, 1.0, 5.0, 50.0):
        out = str(outdir / f"fig11_rabi_{ratio:g}.csv")
        run_experiment(
            {
                "kind": "wavefront-quantum",
                "seed": seed,
                "out": out,
                "params": {
                    "rabi_over_omega": ratio,
                    "eta": 0.01,
                    "n_pulses": 10,
                    "initial_fock": 50,
                    "fock_cutoff": 320,
                    "t_wait_min_periods": max(0.55, 1.05 / ratio / 2.0),
                    "t_wait_max_periods": 2.2,
                    "n_points": 56,
                },
            }
        )
        paths[f"rabi_{ratio:g}"] = out
    return paths


def _fig12(outdir: Path, seed: int) -> dict:
    nbar, n_pulses, omega = 60.0, 20, 2.0 * np.pi
    eta = float(np.sqrt(-np.log(0.4) / (4.0 * (nbar + 0.5) * (n_pulses + 1) ** 2)))
    out_q = str(outdir / "fig12_quantum.csv")
    run_experiment(
        {
            "kind": "wavefront-quantum",
            "seed": seed,
            "out": out_q,
            "params": {
                "rabi_over_omega": 50.0,
                "eta": eta,
                "n_pulses": n_pulses,
                "nbar": nbar,
                "fock_cutoff": 400,
                "t_wait_min_periods": 0.4,
                "t_wait_max_periods": 1.15,
                "n_points": 46,
            },
        }
    )
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
    out_s = str(outdir / "fig12_semiclassical.csv")
    export.write_csv(out_s, ["t_wait_us", "excitation"], np.column_stack([t_waits * 1e6, excitation]).tolist())
    return {"quantum": out_q, "semiclassical": out_s}


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
            summary = run_experiment(
                config, seed=args.seed, out=args.out, fmt=args.format
            )
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
