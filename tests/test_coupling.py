import numpy as np
import pytest

from conftest import small_trap
from ionstring import chain, cli, coupling
from ionstring.constants import omega_from_hz, wavevector
from ionstring.errors import FitError, ResonanceGuardError


def radial_spectra(trap, positions):
    k = wavevector(729e-9)
    return [
        chain.lamb_dicke(chain.normal_modes(trap, positions, d), k)
        for d in (chain.RADIAL_X, chain.RADIAL_Y)
    ]


def drive_above_band(spectra, rabi, delta=omega_from_hz(3000.0), offset=omega_from_hz(100e3)):
    beatnote = max(s.frequencies[-1] for s in spectra) + offset
    return coupling.DriveParameters(
        rabi=rabi,
        centerline_detuning=delta,
        mode_detunings=coupling.detunings_from_beatnote(spectra, beatnote),
    )


@pytest.fixture(scope="module")
def six_ion_setup():
    trap = small_trap(6)
    positions = chain.equilibrium_positions(trap)
    return trap, positions, radial_spectra(trap, positions)


def test_zero_rabi_gives_zero_couplings(six_ion_setup):
    _, _, spectra = six_ion_setup
    drive = drive_above_band(spectra, rabi=0.0, delta=omega_from_hz(3000.0))
    mat = coupling.spin_spin_matrix(spectra, drive)
    assert np.all(mat.j == 0.0)
    np.testing.assert_allclose(mat.field_b, omega_from_hz(1500.0))


def test_field_is_half_the_centerline_detuning(six_ion_setup):
    _, _, spectra = six_ion_setup
    drive = drive_above_band(spectra, rabi=omega_from_hz(20e3), delta=omega_from_hz(3000.0))
    mat = coupling.spin_spin_matrix(spectra, drive)
    np.testing.assert_allclose(mat.field_b, 0.5 * omega_from_hz(3000.0), rtol=1e-15)


def test_two_ion_hand_evaluated_mode_sum():
    trap = small_trap(2)
    positions = chain.equilibrium_positions(trap)
    spectrum = chain.lamb_dicke(
        chain.normal_modes(trap, positions, chain.RADIAL_X),
        wavevector(729e-9),
    )
    rabi = omega_from_hz(50e3)
    beatnote = spectrum.frequencies[-1] + omega_from_hz(80e3)
    detunings = beatnote - spectrum.frequencies
    drive = coupling.DriveParameters(
        rabi=rabi, centerline_detuning=0.0, mode_detunings=detunings
    )
    mat = coupling.spin_spin_matrix([spectrum], drive)
    eta = spectrum.lamb_dicke
    expected = 0.5 * rabi**2 * (
        eta[0, 0] * eta[1, 0] / detunings[0] + eta[0, 1] * eta[1, 1] / detunings[1]
    )
    np.testing.assert_allclose(mat.j[0, 1], expected, rtol=1e-12)
    np.testing.assert_allclose(mat.j, mat.j.T)
    assert mat.j[0, 0] == 0.0


def test_resonance_guard_names_the_mode(six_ion_setup):
    _, _, spectra = six_ion_setup
    beatnote = spectra[0].frequencies[2] + omega_from_hz(1.0)
    drive = coupling.DriveParameters(
        rabi=omega_from_hz(20e3),
        centerline_detuning=0.0,
        mode_detunings=coupling.detunings_from_beatnote(spectra, beatnote),
    )
    with pytest.raises(ResonanceGuardError, match="radial-x:2"):
        coupling.spin_spin_matrix(spectra, drive)


def test_quadratic_rabi_scaling(six_ion_setup):
    _, _, spectra = six_ion_setup
    base = drive_above_band(spectra, rabi=omega_from_hz(20e3))
    scaled = drive_above_band(spectra, rabi=3.0 * omega_from_hz(20e3))
    j1 = coupling.spin_spin_matrix(spectra, base).j
    j9 = coupling.spin_spin_matrix(spectra, scaled).j
    np.testing.assert_allclose(j9, 9.0 * j1, rtol=1e-13)


def test_mirror_symmetry(six_ion_setup):
    _, _, spectra = six_ion_setup
    mat = coupling.spin_spin_matrix(spectra, drive_above_band(spectra, omega_from_hz(20e3)))
    scale = np.max(np.abs(mat.j))
    np.testing.assert_allclose(mat.j, mat.j[::-1, ::-1], atol=1e-10 * scale)


def test_powerlaw_recovers_synthetic_exponent():
    n = 12
    j = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            j[i, k] = j[k, i] = abs(i - k) ** -1.5
    fit = coupling.powerlaw_fit(coupling.CouplingMatrix(j=j, field_b=0.0))
    assert abs(fit.exponent - 1.5) < 0.01
    assert fit.residual < 1e-12


def test_powerlaw_in_porras_cirac_band(six_ion_setup):
    _, _, spectra = six_ion_setup
    mat = coupling.spin_spin_matrix(spectra, drive_above_band(spectra, omega_from_hz(20e3)))
    fit = coupling.powerlaw_fit(mat)
    assert 0.0 < fit.exponent < 3.0


def test_powerlaw_needs_enough_ions():
    j = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(FitError):
        coupling.powerlaw_fit(coupling.CouplingMatrix(j=j, field_b=0.0))


def test_51_ion_max_coupling_capped(default_trap, default_positions):
    spectra = radial_spectra(default_trap, default_positions)
    mat = coupling.spin_spin_matrix(spectra, drive_above_band(spectra, omega_from_hz(20e3)))
    current = np.max(np.abs(mat.j))
    scale = np.sqrt(240.0 / current)  # J scales quadratically in the Rabi frequency
    tuned = coupling.spin_spin_matrix(
        spectra, drive_above_band(spectra, scale * omega_from_hz(20e3))
    )
    assert np.max(np.abs(tuned.j)) <= 240.0 * (1.0 + 1e-9)
    np.testing.assert_allclose(np.max(np.abs(tuned.j)), 240.0, rtol=1e-6)


def test_crosstalk_addressed_ion_is_unity(default_positions):
    beam = coupling.AddressingBeam(waist=2.5e-6, center=default_positions[25])
    ratios = coupling.crosstalk_map(beam, default_positions)
    assert ratios[25] == 1.0


def test_ac_stark_is_squared_resonant(tmp_path):
    # the fig8 map holds the AC-Stark (intensity) ratio as the resonant ratio squared
    path = cli.emit_figure_data("fig8", outdir=tmp_path)["crosstalk"]
    with open(path) as handle:
        header = handle.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    resonant, stark = (table[:, header.index(name)] for name in ("resonant_ratio", "ac_stark_ratio"))
    assert np.any(stark < 0.01)
    # each cell holds 12 significant digits
    np.testing.assert_allclose(stark, resonant**2, rtol=2e-11, atol=0.0)


def test_nearest_neighbor_crosstalk_band(default_positions):
    ratios = []
    for addressed in range(51):
        beam = coupling.AddressingBeam(
            waist=3.0e-6, center=default_positions[addressed], pedestal_floor=0.032
        )
        resonant = coupling.crosstalk_map(beam, default_positions)
        for neighbor in (addressed - 1, addressed + 1):
            if 0 <= neighbor < 51:
                ratios.append(resonant[neighbor])
    ratios = np.array(ratios)
    assert ratios.min() >= 0.03
    assert ratios.max() <= 0.3
