import copy
import json
import math
import os
import time
from functools import reduce
from operator import getitem

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ionstring import cli, sequences
from ionstring.errors import FitError

# One small valid params block per kind: at most 4 ions, 100 trials,
# 3 points, Fock cutoff 80.
_COMPONENT = {"f_hz": 50.0, "b_microgauss": 5.0, "phase_rad": 0.4}
SMALL = {
    "chain": {"n_ions": 4},
    "couplings": {"n_ions": 4},
    "quench": {"n_ions": 4, "time_points": 3, "t_max_s": 1e-3},
    "negativity": {"n_ions": 4, "time_s": 1e-3, "subsets": [[1, 2], [1, 2, 3]], "shots_per_setting": 100},
    "cpmg-sense": {
        "components": [_COMPONENT], "sequence": {"n_pulses": 2, "tau_s": 0.02}, "shots": 100, "scan_points": 8,
    },
    "compensate": {
        "components": [_COMPONENT], "sequence": {"tau_s": 0.02}, "max_rounds": 1, "shots": 100, "scan_points": 8,
    },
    "wavefront-semiclassical": {"n_points": 3},
    "wavefront-quantum": {"eta": 0.01, "nbar": 2.0, "fock_cutoff": 80, "n_points": 3, "n_pulses": 4},
    "heating-fit": {"synthetic": {"freqs_hz": [3e4, 1e5, 3e5], "ion_counts": [1, 2]}},
    "survival": {"trials": 100, "horizon_s": 10.0, "n_bins": 10},
    "ramsey-correlations": {"n_experiments": 100, "max_lag_steps": 10},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_run_quench_and_determinism(tmp_path):
    config = {
        "kind": "quench",
        "seed": 3,
        "out": str(tmp_path / "quench.csv"),
        "params": {"n_ions": 5, "time_points": 6, "t_max_s": 1e-3},
    }
    summary = cli.run_experiment(config)
    first = (tmp_path / "quench.csv").read_bytes()
    assert "runtime_s" in summary and "versions" in summary
    cli.run_experiment({**config, "out": str(tmp_path / "again.csv")})
    assert (tmp_path / "again.csv").read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header == "t_s,sz_ion1,sz_ion2,sz_ion3,sz_ion4,sz_ion5"


def test_summary_file_contents(tmp_path):
    config = {
        "kind": "survival",
        "seed": 1,
        "out": str(tmp_path / "surv.csv"),
        "params": {"trials": 500, "horizon_s": 30.0},
    }
    summary = cli.run_experiment(config)
    on_disk = json.loads((tmp_path / "surv.csv.summary.json").read_text())
    assert on_disk["config"]["kind"] == "survival"
    assert set(on_disk["versions"]) == {"ionstring", "numpy", "scipy", "python"}
    assert on_disk["runtime_s"] >= 0.0
    assert summary["outputs"][0].endswith("surv.csv")
    del summary["summary_path"]
    assert on_disk == json.loads(json.dumps(summary, default=str))


def test_failed_summary_write_leaves_no_summary(tmp_path, monkeypatch):
    replace = os.replace

    def failing_replace(src, dst):
        if str(dst).endswith(".summary.json"):
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    config = {"kind": "survival", "out": str(tmp_path / "surv.csv"), "params": {"trials": 100, "horizon_s": 10.0}}
    with pytest.raises(OSError, match="disk full"):
        cli.run_experiment(config)
    names = [path.name for path in tmp_path.iterdir()]
    assert "surv.csv" in names and not [name for name in names if name.endswith((".summary.json", ".tmp"))]


def test_validation_collects_every_field(tmp_path):
    config = {
        "kind": "survival",
        "out": str(tmp_path / "x.csv"),
        "params": {"trials": 5, "horizon_s": -1.0, "bogus": 2},
    }
    with pytest.raises(cli.ConfigError) as err:
        cli.run_experiment(config)
    text = str(err.value)
    assert "trials" in text and "horizon_s" in text and "bogus" in text


def test_main_exit_codes(tmp_path, capsys):
    good = write_config(
        tmp_path,
        {
            "kind": "heating-fit",
            "seed": 2,
            "out": str(tmp_path / "h.csv"),
            "params": {"synthetic": {"noise_fraction": 0.05}},
        },
    )
    assert cli.main(["run", good]) == 0

    bad = write_config(tmp_path, {"kind": "wrong"}, name="bad.json")
    assert cli.main(["run", bad]) == 2
    assert "kind" in capsys.readouterr().err

    # beatnote placed essentially on a mode -> resonance guard -> exit 3
    numerical = write_config(
        tmp_path,
        {
            "kind": "couplings",
            "out": str(tmp_path / "j.csv"),
            "params": {"n_ions": 4, "beatnote_offset_hz": 1e-9},
        },
        name="resonant.json",
    )
    assert cli.main(["run", numerical]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_flag_overrides(tmp_path):
    config = write_config(
        tmp_path,
        {
            "kind": "survival",
            "seed": 1,
            "out": str(tmp_path / "ignored.csv"),
            "params": {"trials": 300, "horizon_s": 20.0},
        },
    )
    out = str(tmp_path / "actual.csv")
    assert cli.main(["run", config, "--out", out, "--seed", "9"]) == 0
    assert (tmp_path / "actual.csv").exists()
    summary = json.loads((tmp_path / "actual.csv.summary.json").read_text())
    assert summary["effective"]["seed"] == 9


def test_cpmg_sense_outputs(tmp_path):
    config = {
        "kind": "cpmg-sense",
        "seed": 7,
        "out": str(tmp_path / "sense.csv"),
        "params": {
            "components": [{"f_hz": 50.0, "b_microgauss": 37.2, "phase_rad": 0.4}],
            "sequence": {"n_pulses": 2, "tau_s": 0.02},
            "shots": 100,
        },
    }
    cli.run_experiment(config)
    fit = json.loads((tmp_path / "sense_fit.json").read_text())
    assert abs(fit["field_microgauss"] - 37.2) / 37.2 < 0.05
    rows = (tmp_path / "sense.csv").read_text().splitlines()
    assert rows[0] == "t0_s,p_up"
    assert len(rows) == 42


def test_compensate_table_output(tmp_path):
    config = {
        "kind": "compensate",
        "seed": 5,
        "out": str(tmp_path / "comp.csv"),
        "params": {
            "components": [
                {"f_hz": 50.0, "b_microgauss": 37.2, "phase_rad": 0.4},
                {"f_hz": 150.0, "b_microgauss": 9.3, "phase_rad": 1.9},
                {"f_hz": 250.0, "b_microgauss": 23.3, "phase_rad": -1.1},
            ]
        },
    }
    summary = cli.run_experiment(config)
    rows = (tmp_path / "comp.csv").read_text().splitlines()
    assert rows[0] == "f_hz,b_microgauss,b_after_microgauss,delta_hz,delta_after_hz"
    assert len(rows) == 4
    for factor in summary["result"]["reduction_factors"].values():
        assert factor <= 0.1


def test_cpmg_sense_summary_reports_the_fit(tmp_path):
    config = {"kind": "cpmg-sense", "seed": 7, "out": str(tmp_path / "s.csv"), "params": SMALL["cpmg-sense"]}
    summary = cli.run_experiment(config)
    solver = json.loads((tmp_path / "s.csv.summary.json").read_text())["result"]["solver"]
    assert solver == summary["result"]["solver"]
    assert set(solver) == {"grid_points", "polishes", "nfev", "cost"}
    assert solver["grid_points"] == 36000 and solver["polishes"] == 4
    assert solver["nfev"] >= 4 and solver["cost"] >= 0.0
    assert set(json.loads((tmp_path / "s_fit.json").read_text())) == {
        "frequency_hz", "amplitude_rad_s", "amplitude_sigma_rad_s", "field_microgauss", "phase_rad",
        "phase_sigma_rad", "contrast", "contrast_sigma", "residual_rms", "seed",
    }
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "t0_s,p_up"


def test_compensate_summary_reports_skipped_senses(tmp_path, monkeypatch):
    # shot noise keeps every simulated scan from being flat, so the
    # 50 Hz sense is made to find nothing
    sense = sequences.sense

    def blind_at_50_hz(t0, data, seq, frequency_hz, **kwargs):
        if frequency_hz == 50.0:
            raise FitError("no modulation detected")
        return sense(t0, data, seq, frequency_hz, **kwargs)

    monkeypatch.setattr(sequences, "sense", blind_at_50_hz)
    params = {
        "components": [{"f_hz": 50.0, "amplitude_rad_s": 0.0}, {"f_hz": 250.0, "b_microgauss": 5.0}],
        "sequence": {"tau_s": 0.02}, "max_rounds": 1,
    }
    summary = cli.run_experiment({"kind": "compensate", "out": str(tmp_path / "c.csv"), "params": params})
    solver = json.loads((tmp_path / "c.csv.summary.json").read_text())["result"]["solver"]
    assert solver == summary["result"]["solver"]
    assert solver == {"skipped": [[0, 50.0]]}


def test_chain_emits_positions_and_spectrum(tmp_path):
    config = {
        "kind": "chain",
        "out": str(tmp_path / "modes.csv"),
        "params": {"n_ions": 5, "direction": "axial"},
    }
    summary = cli.run_experiment(config)
    assert (tmp_path / "modes.csv").exists()
    assert (tmp_path / "modes_positions.csv").exists()
    assert summary["result"]["span_m"] > 0


def test_negativity_run(tmp_path):
    config = {
        "kind": "negativity",
        "seed": 2,
        "out": str(tmp_path / "neg.csv"),
        "params": {"n_ions": 5, "time_s": 2e-3},
    }
    cli.run_experiment(config)
    rows = (tmp_path / "neg.csv").read_text().splitlines()
    assert rows[0] == "subset,log_negativity,shots_per_setting,seed"
    assert len(rows) == 5  # four adjacent pairs


def test_quench_and_negativity_summaries_report_the_solver(tmp_path):
    quench = cli.run_experiment(
        {
            "kind": "quench",
            "out": str(tmp_path / "q.csv"),
            "params": {"n_ions": 4, "time_points": 5, "t_max_s": 1e-3},
        }
    )
    negativity = cli.run_experiment(
        {"kind": "negativity", "out": str(tmp_path / "n.csv"), "params": {"n_ions": 4, "time_s": 1e-3}}
    )
    for summary, name in ((quench, "q.csv"), (negativity, "n.csv")):
        on_disk = json.loads((tmp_path / f"{name}.summary.json").read_text())
        solver = on_disk["result"]["solver"]
        keys = {"chebyshev_terms", "truncation_bound", "spectral_bounds", "max_norm_error", "sector_dim"}
        assert set(solver) == keys
        assert solver["chebyshev_terms"] > 0 and 0.0 < solver["truncation_bound"] < 1e-14
        lo, hi = solver["spectral_bounds"]
        assert lo < 0.0 < hi
        assert solver["sector_dim"] == 6  # the XY Neel sector of 4 ions, C(4, 2)
        assert 0.0 <= solver["max_norm_error"] < 1e-10
        assert summary["result"]["solver"] == solver


@pytest.mark.parametrize("shots", [None, 100])
@pytest.mark.parametrize(
    "subsets, message",
    [
        ([[1, 9]], "outside 1..8"),
        ([[2, 2]], "repeats an ion"),
        ([[1, 2], [1, 2, 3, 4]], "2 or 3 ions"),
        ([[1, "b"]], "list of ion indices"),
    ],
)
def test_negativity_bad_subsets_exit_2(tmp_path, capsys, monkeypatch, subsets, message, shots):
    def no_build(*args, **kwargs):
        raise AssertionError("subsets must be checked before the coupling build")

    monkeypatch.setattr(cli.coupling, "spin_spin_matrix", no_build)
    params = {"n_ions": 8, "subsets": subsets}
    if shots is not None:
        params["shots_per_setting"] = shots
    config = write_config(tmp_path, {"kind": "negativity", "out": str(tmp_path / "neg.csv"), "params": params})
    assert cli.main(["run", config]) == 2
    err = capsys.readouterr().err
    assert "params.subsets" in err and message in err
    assert not (tmp_path / "neg.csv").exists()


def test_ising_summaries_report_the_parity_sector(tmp_path):
    params = {"n_ions": 5, "model": "ising_transverse"}
    quench = cli.run_experiment(
        {"kind": "quench", "out": str(tmp_path / "q.csv"), "params": {**params, "time_points": 3, "t_max_s": 1e-3}}
    )
    negativity = cli.run_experiment(
        {"kind": "negativity", "out": str(tmp_path / "n.csv"), "params": {**params, "time_s": 1e-3}}
    )
    assert quench["result"]["solver"]["sector_dim"] == 16
    assert negativity["result"]["solver"]["sector_dim"] == 16


@pytest.mark.parametrize("model", ["ising_transverse", "xy_effective"])
def test_quench_truncation_bound_at_the_benchmark_settings(tmp_path, model):
    # the 12-ion jobs of a quench round, at the top of its parameter ranges
    params = {
        "n_ions": 12, "model": model, "centerline_detuning_hz": 3100.0, "target_max_j_rad_s": 245.0,
        "t_max_s": 3.02e-3, "time_points": 11,
    }
    summary = cli.run_experiment({"kind": "quench", "out": str(tmp_path / "q.csv"), "params": params})
    solver = summary["result"]["solver"]
    assert solver["chebyshev_terms"] > 0 and solver["truncation_bound"] <= 1e-13


def test_runaway_quench_exits_3_before_propagating(tmp_path, capsys):
    config = write_config(tmp_path, {"kind": "quench", "out": str(tmp_path / "q.csv"), "params": {"t_max_s": 1e3}})
    start = time.perf_counter()
    assert cli.main(["run", config]) == 3
    # the series would need about 10^8 matrix-vector products
    assert time.perf_counter() - start < 30.0
    err = capsys.readouterr().err
    assert "numerical failure" in err and "r*t_max = " in err
    assert not (tmp_path / "q.csv").exists()


# past the entry budget: an Ising-12 Bessel table of 1.17e9 entries (r*t_max =
# 1.16e5 over 9999 times) and 1.64e8 entries of 14-ion states
OVERSIZED_QUENCHES = {
    "ising12_table": {"n_ions": 12, "model": "ising_transverse", "t_max_s": 1.0, "time_points": 10**4},
    "ions14_states": {"n_ions": 14, "time_points": 10**4},
}


@pytest.mark.parametrize("params", OVERSIZED_QUENCHES.values(), ids=OVERSIZED_QUENCHES)
def test_oversized_quench_grids_exit_3_before_any_table_or_state_stack(tmp_path, capsys, monkeypatch, params):
    def no_table(z):
        raise AssertionError("the budget must be checked before the Bessel table is built")

    def small_only(allocate):
        def allocate_small(shape, *args, **kwargs):
            if np.prod(shape) > 10**6:
                raise AssertionError(f"an array of shape {shape} allocated before the budget check")
            return allocate(shape, *args, **kwargs)

        return allocate_small

    monkeypatch.setattr(cli.dynamics, "_bessel_table", no_table)
    for name in ("empty", "zeros"):
        monkeypatch.setattr(np, name, small_only(getattr(np, name)))
    config = write_config(tmp_path, {"kind": "quench", "out": str(tmp_path / "q.csv"), "params": params})
    assert cli.main(["run", config]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "r*t_max = " in err and " 10000 times " in err
    assert not (tmp_path / "q.csv").exists()


@pytest.mark.parametrize("kind", ["quench", "negativity"])
@pytest.mark.parametrize("n_ions", [15, 30, 50, 10**5])
def test_runs_past_the_qubit_cap_exit_2_before_any_work(tmp_path, capsys, monkeypatch, kind, n_ions):
    def no_work(*args, **kwargs):
        raise AssertionError("the qubit cap must be checked before the chain or any 2^N array")

    monkeypatch.setattr(cli.dynamics, "neel_state", no_work)
    monkeypatch.setattr(cli, "_coupling", no_work)
    config = write_config(tmp_path, {"kind": kind, "out": str(tmp_path / "q.csv"), "params": {"n_ions": n_ions}})
    assert cli.main(["run", config]) == 2
    err = capsys.readouterr().err
    assert f"config error: params.n_ions: {n_ions} ions exceed the {cli.dynamics.DEFAULT_QUBIT_CAP}-qubit cap" in err
    assert not (tmp_path / "q.csv").exists()


def test_runs_at_the_qubit_cap_pass_the_check():
    for kind in ("quench", "negativity"):
        params, errors = cli._parse({"n_ions": cli.dynamics.DEFAULT_QUBIT_CAP}, cli._KINDS[kind].fields, "params")
        assert not errors and not cli._KINDS[kind].check(params)


@pytest.mark.parametrize(
    "config, field",
    [
        ({"kind": "heating-fit", "params": {"data": [5]}}, "params.data[0]"),
        ([{"kind": "quench"}], "config"),
        (
            {"kind": "ramsey-correlations", "params": {"n_experiments": 200, "max_lag_steps": 200}},
            "params.max_lag_steps",
        ),
        ({"kind": "survival", "seed": -1, "params": {"trials": 100}}, "seed"),
        ({"kind": "wavefront-semiclassical", "params": {"tilt_mrad": -1.0}}, "params.tilt_mrad"),
    ],
)
def test_configs_that_ended_in_a_traceback_exit_2(tmp_path, capsys, config, field):
    path = write_config(tmp_path, config)
    assert cli.main(["run", path, "--out", str(tmp_path / "out.csv")]) == 2
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_wavefront_quantum_summary_reports_the_solver(tmp_path):
    out = tmp_path / "wq.csv"
    summary = cli.run_experiment(
        {
            "kind": "wavefront-quantum",
            "out": str(out),
            "params": {"eta": 0.01, "nbar": 2.0, "fock_cutoff": 80, "n_points": 3, "n_pulses": 4},
        }
    )
    solver = json.loads((tmp_path / "wq.csv.summary.json").read_text())["result"]["solver"]
    assert set(solver) == {
        "max_leak", "max_norm_error", "truncated_weight", "band_width", "squarings", "band_dropped_norm",
        "column_fill",
    }
    assert 0.0 <= solver["max_leak"] < 1e-6
    assert 0.0 <= solver["max_norm_error"] < 1e-8
    assert 0.0 <= solver["truncated_weight"] <= 1e-4
    assert 0 < solver["band_width"] < 80 and solver["squarings"] >= 1
    assert 0.0 <= solver["band_dropped_norm"] <= 1e-12
    assert 0.0 < solver["column_fill"] <= 1.0
    assert summary["result"]["solver"] == solver
    # the data file and its metadata keep their keys
    assert out.read_text().splitlines()[0] == "t_wait_us,excitation"
    meta = json.loads((tmp_path / "wq_meta.json").read_text())
    assert set(meta) == {
        "eta", "rabi_rad_s", "omega_rad_s", "detuning_rad_s", "nbar", "initial_fock",
        "fock_cutoff", "n_pulses", "truncated_weight", "max_leak",
    }


def test_ramsey_correlations_summary_reports_the_fits(tmp_path):
    params = {"noise_kind": "slow_drift", "strength": 4.0, "dt_s": 1e-3, "n_experiments": 20000, "max_lag_steps": 40}
    summary = cli.run_experiment({"kind": "ramsey-correlations", "out": str(tmp_path / "r.csv"), "params": params})
    solver = json.loads((tmp_path / "r.csv.summary.json").read_text())["result"]["solver"]
    assert solver == summary["result"]["solver"]
    fit = json.loads((tmp_path / "r_fit.json").read_text())
    assert fit["selected_model"] == "gaussian"
    assert set(solver) == {"exponential", "gaussian"}
    for name, record in solver.items():
        assert set(record) == {"nfev", "rss", "at_edge"}
        assert record["rss"] == pytest.approx(fit[f"rss_{name}"], rel=1e-11)  # the side file keeps 12 digits
        assert record["at_edge"] is False and record["nfev"] > 80
    # a flat series fits no model
    flat = {"noise_kind": "random_walk", "strength": 1e-12, "n_experiments": 1000, "max_lag_steps": 20}
    summary = cli.run_experiment({"kind": "ramsey-correlations", "out": str(tmp_path / "f.csv"), "params": flat})
    assert summary["result"] == {"selected_model": "flat", "solver": {}}


@pytest.mark.parametrize("params", [{"melt_rate_per_s": 1e6}, {"n_bins": 1}])
def test_survival_without_two_surviving_bins_exits_3(tmp_path, capsys, params):
    path = write_config(tmp_path, {"kind": "survival", "out": str(tmp_path / "s.csv"), "params": params})
    assert cli.main(["run", path]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "fewer than two time bins have survivors" in err


@pytest.mark.parametrize(
    "kind, params, field",
    [
        # 0.4 periods is below the pi-time of 1/(2 * 0.5) = 1 period
        ("wavefront-quantum", {"rabi_over_omega": 0.5, "t_wait_min_periods": 0.4}, "params.t_wait_min_periods"),
        ("wavefront-quantum", {"t_wait_min_periods": 1.5, "t_wait_max_periods": 1.0}, "params.t_wait_min_periods"),
        ("wavefront-quantum", {"nbar": 10.0, "fock_cutoff": 30}, "params.fock_cutoff"),
        ("wavefront-quantum", {"initial_fock": 60, "fock_cutoff": 100}, "params.initial_fock"),
        ("wavefront-semiclassical", {"t_wait_min_us": 20.0, "t_wait_max_us": 5.0}, "params.t_wait_min_us"),
        # the default Fock cutoff follows nbar or initial_fock; it is capped like a given one
        ("wavefront-quantum", {"nbar": 1e15}, "params.nbar"),
        ("wavefront-quantum", {"nbar": 1e308}, "params.nbar"),
        ("wavefront-quantum", {"nbar": 0.0, "initial_fock": 100000}, "params.initial_fock"),
    ],
)
def test_bad_wavefront_ranges_exit_2(tmp_path, capsys, monkeypatch, kind, params, field):
    def no_scan(*args, **kwargs):
        raise AssertionError("the config must be rejected before any propagator is built")

    monkeypatch.setattr(cli.motion, "quantum_cpmg_scan", no_scan)
    config = write_config(tmp_path, {"kind": kind, "out": str(tmp_path / "w.csv"), "params": params})
    assert cli.main(["run", config]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize(
    "config, field",
    [
        ({"kind": "quench", "params": {"n_ions": "4"}}, "params.n_ions"),
        ({"kind": "quench", "params": {"t_max_s": "1e-3"}}, "params.t_max_s"),
        ({"kind": "wavefront-quantum", "params": {"initial_fock": True, "fock_cutoff": 100}}, "params.initial_fock"),
        ({"kind": "survival", "seed": True, "params": {"trials": 100}}, "seed"),
        ({"kind": "survival", "params": {"horizon_s": False}}, "params.horizon_s"),
    ],
)
def test_strings_and_bools_are_not_numbers(tmp_path, capsys, config, field):
    path = write_config(tmp_path, {**config, "out": str(tmp_path / "x.csv")})
    assert cli.main(["run", path]) == 2
    assert f"{field}: expected" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_ints_stay_valid_for_float_fields(tmp_path):
    summary = cli.run_experiment(
        {
            "kind": "wavefront-semiclassical",
            "out": str(tmp_path / "s.csv"),
            "params": {"t_wait_min_us": 1, "t_wait_max_us": 20, "n_points": 5.0},
        }
    )
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 6
    assert 0.0 < summary["result"]["peak_excitation"] < 0.5


def test_figure_kind_validation(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.emit_figure_data("fig99", outdir=tmp_path)


def test_figure_fig3_bundle(tmp_path):
    paths = cli.emit_figure_data("fig3", outdir=tmp_path, seed=1)
    for path in paths.values():
        assert (tmp_path / path.split("/")[-1]).exists()


def test_run_writes_only_declared_outputs(tmp_path):
    out_dir = tmp_path / "sandbox"
    out_dir.mkdir()
    config = {
        "kind": "survival",
        "seed": 1,
        "out": str(out_dir / "s.csv"),
        "params": {"trials": 300, "horizon_s": 10.0},
    }
    summary = cli.run_experiment(config)
    created = {p.name for p in out_dir.iterdir()}
    declared = {p.split("/")[-1] for p in summary["outputs"]}
    declared.add("s.csv.summary.json")
    assert created == declared


def test_small_configs_cover_every_kind():
    assert set(SMALL) == set(cli.EXPERIMENT_KINDS)


@pytest.mark.parametrize(
    "kind, params, field",
    [
        ("couplings", {"n_ions": 4, "rabi_hz": math.inf}, "params.rabi_hz"),
        ("couplings", {"n_ions": 4, "centerline_detuning_hz": math.nan}, "params.centerline_detuning_hz"),
        ("wavefront-semiclassical", {"t_wait_max_us": math.inf}, "params.t_wait_max_us"),
        ("quench", {"n_ions": 4, "t_max_s": math.inf}, "params.t_max_s"),
        ("ramsey-correlations", {"strength": math.inf}, "params.strength"),
        ("wavefront-quantum", {"detuning_rad_s": math.nan}, "params.detuning_rad_s"),
        ("cpmg-sense", {"components": [{**_COMPONENT, "phase_rad": math.nan}]}, "params.components[0].phase_rad"),
    ],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, kind, params, field):
    path = write_config(tmp_path, {"kind": kind, "out": str(tmp_path / "x.csv"), "params": params})
    assert cli.main(["run", path]) == 2
    assert f"config error: {field}: expected a finite number" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "synthetic, field",
    [
        ({"freqs_hz": ["a"]}, "params.synthetic.freqs_hz[0]"),
        ({"freqs_hz": []}, "params.synthetic.freqs_hz"),
        ({"freqs_hz": [-1e3, 2e3]}, "params.synthetic.freqs_hz[0]"),
        ({"ion_counts": ["x"]}, "params.synthetic.ion_counts[0]"),
        ({"ion_counts": [0]}, "params.synthetic.ion_counts[0]"),
        ({"ion_counts": [1, 2.5]}, "params.synthetic.ion_counts[1]"),
    ],
)
def test_heating_fit_list_elements_are_typed(tmp_path, capsys, synthetic, field):
    path = write_config(tmp_path, {"kind": "heating-fit", "out": str(tmp_path / "h.csv"), "params": {"synthetic": synthetic}})
    assert cli.main(["run", path]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("sigmas", [[4.0, 1.2, 0.4, 0.15], [None] * 4, [4.0, None, 0.4, None]])
def test_heating_fit_takes_sigma_on_every_row_or_on_none(tmp_path, capsys, sigmas):
    rows = [
        {"omega_z_hz": f, "rate_quanta_per_s": rate, **({} if sigma is None else {"sigma": sigma})}
        for f, rate, sigma in zip([3e4, 1e5, 3e5, 5e5], [40.0, 12.0, 4.0, 1.5], sigmas)
    ]
    params = {"data": rows}
    path = write_config(tmp_path, {"kind": "heating-fit", "out": str(tmp_path / "h.csv"), "params": params})
    if None in sigmas and any(sigma is not None for sigma in sigmas):
        assert cli.main(["run", path]) == 2
        assert "config error: params.data[1].sigma: give sigma on every row or on none" in capsys.readouterr().err
        assert not (tmp_path / "h.csv").exists()
        return
    assert cli.main(["run", path]) == 0
    parsed, errors = cli._parse(params, cli._KINDS["heating-fit"].fields, "params")
    sigma = cli._heating_dataset(parsed, 0).sigma
    assert not errors and (sigma is None if None in sigmas else list(sigma) == sigmas)


def test_non_string_out_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, {"kind": "heating-fit", "out": ["a"], "params": {"synthetic": {}}})
    assert cli.main(["run", path]) == 2
    assert "config error: out: expected a string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, params, message",
    [
        ("negativity", {"n_ions": 4, "time_points": 5}, "params.time_points: unknown field"),
        ("negativity", {"n_ions": 4, "t_max_s": 1e-3}, "params.t_max_s: unknown field"),
        (
            "compensate",
            {"components": [_COMPONENT], "sequence": {"n_pulses": 4, "tau_s": 0.02}},
            "params.sequence.n_pulses: unknown field",
        ),
        ("survival", {"soft_collision_rate_per_ms": 1e-3}, "params.soft_collision_rate_per_ms: unknown field"),
        ("quench", {"n_ions": 4, "target_max_j_rad_s": 0.0}, "params.target_max_j_rad_s: must be positive"),
        ("couplings", {"n_ions": 4, "target_max_j_rad_s": -5.0}, "params.target_max_j_rad_s: must be positive"),
        ("negativity", {"n_ions": 4, "subsets": []}, "params.subsets: expected a non-empty list"),
    ],
)
def test_ignored_inputs_exit_2(tmp_path, capsys, kind, params, message):
    path = write_config(tmp_path, {"kind": kind, "out": str(tmp_path / "x.csv"), "params": params})
    assert cli.main(["run", path]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_every_kind_honours_json_format(tmp_path, kind):
    config = write_config(tmp_path, {"kind": kind, "seed": 3, "params": SMALL[kind]})
    out = tmp_path / "main.json"
    assert cli.main(["run", config, "--format", "json", "--out", str(out)]) == 0
    with open(out) as handle:
        payload = json.load(handle)
    if kind == "chain":
        assert len(payload["frequencies_hz"]) == 4 and len(payload["eigenvectors"]) == 4
    elif kind == "couplings":
        assert len(payload["j_rad_s"]) == 4 and "field_b_rad_s" in payload
    else:
        assert set(payload) == {"columns", "rows"}
        assert payload["rows"] and all(len(row) == len(payload["columns"]) for row in payload["rows"])


def test_summary_records_the_resolved_params(tmp_path):
    summary = cli.run_experiment(
        {"kind": "quench", "out": str(tmp_path / "q.csv"), "params": {"n_ions": 4, "time_points": 3}}
    )
    on_disk = json.loads((tmp_path / "q.csv.summary.json").read_text())
    params = on_disk["effective"]["params"]
    assert params["target_max_j_rad_s"] == 240.0
    assert params["n_ions"] == 4 and params["t_max_s"] == 3e-3 and params["model"] == "xy_effective"
    assert summary["effective"]["params"] == params
    # defaults that depend on other fields are recorded resolved
    cli.run_experiment({"kind": "negativity", "out": str(tmp_path / "n.csv"), "params": {"n_ions": 3}})
    params = json.loads((tmp_path / "n.csv.summary.json").read_text())["effective"]["params"]
    assert params["subsets"] == [[1, 2], [2, 3]]


_POOL = [None, True, "x", [], {}, -1, 0, 1.5, math.nan, math.inf, -math.inf, "unknown key"]


def _field_paths(table, block, prefix=()):
    """Key path and field of every field of ``table``, into ``block``'s nested objects."""
    for field in table:
        path = prefix + (field.name,)
        yield path, field
        inner = block.get(field.name)
        if isinstance(field.kind, tuple) and isinstance(inner, dict):
            yield from _field_paths(field.kind, inner, path)
        elif isinstance(field.kind, list) and isinstance(field.kind[0], tuple) and inner:
            yield from _field_paths(field.kind[0], inner[0], path + (0,))


@pytest.mark.parametrize("kind", sorted(SMALL))
@settings(
    max_examples=40, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_any_one_bad_field_exits_0_2_or_3(tmp_path, monkeypatch, kind, data):
    monkeypatch.chdir(tmp_path)
    config = {"kind": kind, "seed": 1, "out": "run.csv", "format": "csv", "params": copy.deepcopy(SMALL[kind])}
    paths = [(field.name,) for field in cli._CONFIG]
    paths += [("params", *path) for path, _ in _field_paths(cli._KINDS[kind].fields, config["params"])]
    *parents, name = data.draw(st.sampled_from(paths))
    value = data.draw(st.sampled_from(_POOL))
    block = reduce(getitem, parents, config)
    if value == "unknown key":
        block[f"{name}_unknown"] = 1
    else:
        block[name] = value
    path = write_config(tmp_path, config)
    assert cli.main(["run", path]) in (0, 2, 3)


# every integer field of the small configs, and of a heating-fit from data rows
_INT_FIELDS = {
    f"{kind}:{'.'.join(map(str, path))}": (kind, params, path, field.kind)
    for kind, params in [*SMALL.items(), ("heating-fit", {"data": [{"omega_z_hz": 1e5, "rate_quanta_per_s": 10.0}]})]
    for path, field in _field_paths(cli._KINDS[kind].fields, params)
    if field.kind in (int, [int])
}


@pytest.mark.parametrize("case", sorted(_INT_FIELDS))
def test_every_integer_field_is_capped(tmp_path, capsys, case):
    kind, params, path, field_kind = _INT_FIELDS[case]
    params = copy.deepcopy(params)
    *parents, name = path
    reduce(getitem, parents, params)[name] = 10**15 if field_kind is int else [10**15]
    config = write_config(tmp_path, {"kind": kind, "out": str(tmp_path / "x.csv"), "params": params})
    assert cli.main(["run", config]) == 2
    where = "params" + "".join(f"[{key}]" if key == 0 else f".{key}" for key in path)
    where += "" if field_kind is int else "[0]"
    assert f"config error: {where}: must lie in" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_seed_is_capped(tmp_path, capsys):
    config = write_config(tmp_path, {"kind": "survival", "seed": 2**63, "params": {"trials": 100}})
    assert cli.main(["run", config, "--out", str(tmp_path / "x.csv")]) == 2
    assert "config error: seed: must lie in" in capsys.readouterr().err
