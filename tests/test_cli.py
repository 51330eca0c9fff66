import copy
import csv
import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
import time
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ionstring import chain, cli, motion, sequences
from ionstring.constants import HBAR, mass_from_amu, wavevector
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
    assert "versions" in summary
    cli.run_experiment({**config, "out": str(tmp_path / "again.csv")})
    assert (tmp_path / "again.csv").read_bytes() == first
    header = first.decode().splitlines()[0]
    assert header == "t_s,sz_ion1,sz_ion2,sz_ion3,sz_ion4,sz_ion5"


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_every_kind_records_its_stages_and_solver(tmp_path, caplog, kind):
    config = {"kind": kind, "seed": 1, "out": str(tmp_path / "out.csv"), "params": SMALL[kind]}
    with caplog.at_level(logging.DEBUG, logger="ionstring.cli"):
        summary = cli.run_experiment(config)
    on_disk = json.loads((tmp_path / "out.csv.summary.json").read_text())
    stages = on_disk["stages"]
    assert set(stages) == {"parse_s", "solve_s", "write_s"} and min(stages.values()) >= 0.0
    assert "runtime_s" not in on_disk
    assert isinstance(on_disk["result"]["solver"], dict)
    assert f"run_experiment {kind}: stages {summary['stages']}" in caplog.text
    if kind == "couplings":
        trap = cli._trap_parameters(SimpleNamespace(**on_disk["effective"]["params"]))
        _, record = chain.equilibrium_positions(trap, full_output=True)
        assert on_disk["result"]["solver"] == dataclasses.asdict(record)


def test_memory_errors_exit_3_and_leave_no_output(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.11 PiB")

    monkeypatch.setitem(cli._KINDS, "survival", cli._KINDS["survival"]._replace(run=out_of_memory))
    path = write_config(tmp_path, {"kind": "survival", "out": str(tmp_path / "s.csv"), "params": SMALL["survival"]})
    assert cli.main(["run", path]) == 3
    assert "numerical failure: out of memory: Unable to allocate" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


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
    assert summary["outputs"][0].endswith("surv.csv")
    del summary["summary_path"]
    assert on_disk == json.loads(json.dumps(summary))


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
    assert set(solver) == {"grid_points", "polishes", "nfev", "cost", "grid_truncation_bound", "covariance_failed"}
    assert solver["covariance_failed"] is False
    assert solver["grid_points"] == 36000 and solver["polishes"] == 4
    assert 0.0 < solver["grid_truncation_bound"] < 1e-14
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
    assert set(solver) == {"skipped", "senses", "nfev", "max_cost"}
    # the 250 Hz sense alone was fitted
    assert solver["skipped"] == [[0, 50.0]] and solver["senses"] == 1
    assert solver["nfev"] >= sequences.POLISHES and solver["max_cost"] >= 0.0


@pytest.mark.parametrize("kind", ["compensate", "cpmg-sense"])
def test_sensing_kinds_run_or_refuse_every_decade_of_tau(tmp_path, capsys, kind):
    # below some tau_s the sequence's response is too weak for any allowed field to reach the fit's
    # grid, and a fit of the noise wrote fields of 1e95 uG or more, or overflowed with an unnamed
    # reason; an underflowed response of 0 skipped every sense
    refused = []
    for tau_s in [10.0**-e for e in range(1, 301)] + [5e-324]:
        params = {**SMALL[kind], "sequence": {**SMALL[kind]["sequence"], "tau_s": tau_s}}
        out = tmp_path / f"{tau_s:g}.csv"
        config = write_config(tmp_path, {"kind": kind, "seed": 1, "out": str(out), "params": params})
        code = cli.main(["run", config])
        err = capsys.readouterr().err
        if code == 2:
            message = f"config error: params.sequence.tau_s: the sequence of {tau_s:g} s responds too weakly at 50 Hz"
            assert message in err and "below the 0.0126 rad the fit resolves" in err, (tau_s, err)
            assert not out.exists()
            refused.append(tau_s)
            continue
        assert code == 0, (tau_s, err)
        with open(out, newline="") as handle:
            cells = [float(cell) for row in list(csv.reader(handle))[1:] for cell in row]
        if kind == "cpmg-sense":
            fit = json.loads((tmp_path / f"{tau_s:g}_fit.json").read_text())
            cells += list(fit.values())
        assert all(math.isfinite(cell) for cell in cells), tau_s
    # the refused sequences are the shortest ones, from 1e-8 s (compensate) or 1e-6 s (cpmg-sense) down
    assert refused == [10.0**-e for e in range({"compensate": 8, "cpmg-sense": 6}[kind], 301)] + [5e-324]


def _scipy_loaded(*argv):
    """(exit code, scipy.optimize loaded, scipy.special loaded) of a fresh process that imports
    ``ionstring.cli`` and, given arguments, runs ``cli.main`` on them."""
    script = (
        "import json, sys\nfrom ionstring import cli\ncode = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(json.dumps([code, 'scipy.optimize' in sys.modules, 'scipy.special' in sys.modules]))"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_neither_scipy_optimize_nor_scipy_special():
    assert _scipy_loaded() == (0, False, False)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_only_the_fitting_kinds_load_scipy_optimize(tmp_path, kind):
    # scipy.optimize loads scipy.special; the semiclassical wavefront's closed form needs scipy.special alone
    config = write_config(tmp_path, {"kind": kind, "seed": 1, "out": str(tmp_path / "out.csv"), "params": SMALL[kind]})
    fits = kind in {"cpmg-sense", "compensate", "ramsey-correlations"}
    assert _scipy_loaded("run", config) == (0, fits, fits or kind == "wavefront-semiclassical")


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


def test_long_chain_records_its_solver_in_the_summary_and_the_log(tmp_path, caplog):
    config = {"kind": "chain", "out": str(tmp_path / "modes.csv"), "params": {"n_ions": 200}}
    with caplog.at_level(logging.DEBUG, logger="ionstring.chain"):
        summary = cli.run_experiment(config)
    solver = summary["result"]["solver"]
    assert set(solver) == {"iterations", "halvings", "residual", "acceptance"}
    assert solver["iterations"] > 0 and solver["residual"] < solver["acceptance"] == chain.ACCEPTANCE
    on_disk = json.loads((tmp_path / "modes.csv.summary.json").read_text())
    assert on_disk["result"]["solver"] == solver
    assert f"200 ions, {chain.SolverRecord(**solver)}" in caplog.text


# the ions each chain-solver kind takes: (fewest, most)
_ION_RANGES = {
    "chain": (1, chain.MAX_IONS),
    "couplings": (cli.coupling.POWERLAW_MIN_IONS, chain.MAX_IONS),
}


@pytest.mark.parametrize("kind", sorted(_ION_RANGES))
def test_runs_past_the_ion_cap_exit_2_before_any_work(tmp_path, capsys, monkeypatch, kind):
    least, cap = _ION_RANGES[kind]
    params, errors = cli._parse({"n_ions": cap}, cli._KINDS[kind].fields, "params")
    check = cli._KINDS[kind].check
    assert not errors and not (check and check(params))

    def no_work(*args, **kwargs):
        raise AssertionError("the ion cap must be checked before the chain solve")

    monkeypatch.setattr(cli.chain, "equilibrium_positions", no_work)
    config = write_config(tmp_path, {"kind": kind, "out": str(tmp_path / "c.csv"), "params": {"n_ions": cap + 1}})
    assert cli.main(["run", config]) == 2
    assert f"config error: params.n_ions: must lie in [{least}, {cap}]" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def _fail_if_run(monkeypatch, kind):
    def no_work(*args, **kwargs):
        raise AssertionError("the config must be refused before the run")

    monkeypatch.setitem(cli._KINDS, kind, cli._KINDS[kind]._replace(run=no_work))


@pytest.mark.parametrize("n_ions, code", [(3, 2), (4, 0)])
def test_couplings_too_short_for_the_power_law_fit_exit_2_before_any_work(
    tmp_path, capsys, monkeypatch, n_ions, code
):
    if code == 2:
        _fail_if_run(monkeypatch, "couplings")
    config = write_config(tmp_path, {"kind": "couplings", "out": str(tmp_path / "j.csv"), "params": {"n_ions": n_ions}})
    assert cli.main(["run", config]) == code
    if code == 2:
        assert "config error: params.n_ions: must lie in [4, 2000]" in capsys.readouterr().err
        assert not (tmp_path / "j.csv").exists()


_HEATING_FREQS = {2: [3e4, 1e5, 1e5], 3: [3e4, 1e5, 3e5]}


@pytest.mark.parametrize("source", ["data", "synthetic"])
@pytest.mark.parametrize("distinct, code", [(2, 2), (3, 0)])
def test_heating_fits_with_too_few_frequencies_exit_2_before_any_work(
    tmp_path, capsys, monkeypatch, source, distinct, code
):
    freqs = _HEATING_FREQS[distinct]
    if source == "data":
        params = {"data": [{"omega_z_hz": f, "rate_quanta_per_s": 1e12 * f ** -1.9} for f in freqs]}
        where = "params.data[].omega_z_hz"
    else:
        params = {"synthetic": {"freqs_hz": freqs, "ion_counts": [1, 2]}}
        where = "params.synthetic.freqs_hz"
    if code == 2:
        _fail_if_run(monkeypatch, "heating-fit")
    config = write_config(tmp_path, {"kind": "heating-fit", "out": str(tmp_path / "h.csv"), "params": params})
    assert cli.main(["run", config]) == code
    if code == 2:
        message = f"config error: {where}: 2 distinct trap frequencies are too few for the fit"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "h.csv").exists()


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
    assert f"config error: params.n_ions: must lie in [1, {cli.dynamics.DEFAULT_QUBIT_CAP}]" in err
    assert not (tmp_path / "q.csv").exists()


def test_runs_at_the_qubit_cap_pass_the_check():
    for kind in ("quench", "negativity"):
        params, errors = cli._parse({"n_ions": cli.dynamics.DEFAULT_QUBIT_CAP}, cli._KINDS[kind].fields, "params")
        check = cli._KINDS[kind].check
        assert not errors and not (check and check(params))


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
        "levels", "first_level", "stack_bytes", "column_fill",
    }
    # 23 thermal states, one wait at a time: a complex stack of 2 L rows and 23 columns
    assert solver["stack_bytes"] == 2 * solver["levels"] * 23 * 16
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


# a Fock-5 scan at cutoff 60 whose detuning or Lamb-Dicke parameter is past
# what the pulse propagators resolve: the norm error of the states or the
# bound on the dropped propagator entries passes 1e-6
PAST_THE_PROPAGATOR = {
    **{f"detuning_{value:g}": {"detuning_rad_s": value} for value in (1e13, 1e17, 1e18, 1e24, 1e27, 1e30)},
    "eta_1e+20": {"eta": 1e20},
}


@pytest.mark.parametrize("extra", PAST_THE_PROPAGATOR.values(), ids=PAST_THE_PROPAGATOR)
def test_wavefront_quantum_past_the_propagator_range_exits_3(tmp_path, capsys, extra):
    params = {"initial_fock": 5, "fock_cutoff": 60, "n_points": 2, "n_pulses": 2, **extra}
    config = write_config(tmp_path, {"kind": "wavefront-quantum", "out": str(tmp_path / "w.csv"), "params": params})
    assert cli.main(["run", config]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: " in err and "exceeds 1e-06: the pulse propagators are out of range" in err
    assert "max_norm_error" in err or "band_dropped_norm" in err
    assert not (tmp_path / "w.csv").exists()


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
        ("wavefront-quantum", {"initial_fock": 100000}, "params.initial_fock"),
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


# the first wait at the pi-time, one trap period at rabi_over_omega 0.5; a
# thermal scan at fock_cutoff = 5 nbar + 20; a Fock scan at initial_fock =
# fock_cutoff - 50
_AT_THE_SCAN_LIMITS = {"t_wait_min_periods": 1.0, "nbar": 2.0, "fock_cutoff": 30}
_FOCK_AT_THE_MARGIN = {"t_wait_min_periods": 1.0, "initial_fock": 10, "fock_cutoff": 60}


@pytest.mark.parametrize(
    "limits, field, argument",
    [
        (_AT_THE_SCAN_LIMITS, None, None),
        (_FOCK_AT_THE_MARGIN, None, None),
        # one step past each limit
        ({**_AT_THE_SCAN_LIMITS, "t_wait_min_periods": math.nextafter(1.0, 0.0)}, "t_wait_min_periods", "t_wait"),
        ({**_AT_THE_SCAN_LIMITS, "fock_cutoff": 29}, "fock_cutoff", "fock_cutoff"),
        ({**_FOCK_AT_THE_MARGIN, "initial_fock": 11}, "initial_fock", "initial_fock"),
    ],
)
def test_cli_and_scan_hold_the_same_scan_limits(tmp_path, capsys, limits, field, argument):
    params = {
        "omega_rad_s": 2.0 * np.pi, "rabi_over_omega": 0.5, "t_wait_max_periods": 1.5, "n_points": 2, "n_pulses": 2,
        **limits,
    }
    config = write_config(tmp_path, {"kind": "wavefront-quantum", "out": str(tmp_path / "w.csv"), "params": params})
    # pi-time and trap period are both exactly 1 s
    scan_params = cli.motion.SpinMotionParams(
        eta=0.01, rabi=np.pi, omega=2.0 * np.pi, nbar=limits.get("nbar", 0.0), fock_cutoff=limits["fock_cutoff"]
    )
    waits = np.array([limits["t_wait_min_periods"], 1.5])
    initial_fock = limits.get("initial_fock")
    if field is None:
        assert cli.main(["run", config]) == 0
        assert cli.motion.quantum_cpmg_scan(scan_params, 2, waits, initial_fock=initial_fock).excitation.size == 2
        return
    assert cli.main(["run", config]) == 2
    assert f"config error: params.{field}: " in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"^{argument}: "):
        cli.motion.quantum_cpmg_scan(scan_params, 2, waits, initial_fock=initial_fock)


@pytest.mark.parametrize(
    "kind, params, code, message",
    [
        # the displacement generator's 1-norm is inf
        ("wavefront-quantum", {"eta": 1e308}, 3, "numerical failure: generator 1-norm inf is not finite"),
        # above 10.7 MHz the top mode's ulp swallows a 1e-9 Hz offset: a zero detuning is a resonance
        (
            "couplings", {"omega_x_hz": 2e7, "omega_y_hz": 2e7, "beatnote_offset_hz": 1e-9}, 3,
            "numerical failure: mode detunings must be nonzero",
        ),
        # compensate's sequence for a component has round(2 tau f) pulses, at most as many as cpmg-sense's
        (
            "compensate", {"components": [{**_COMPONENT, "f_hz": 1e6}]}, 2,
            "config error: params.components[0].f_hz: 1e+06 Hz needs 4e+04 pulses in 0.02 s, above the 10000 allowed",
        ),
    ],
)
def test_extreme_finite_inputs_name_the_field_or_the_reason(tmp_path, capsys, kind, params, code, message):
    params = {**SMALL[kind], **params}
    config = write_config(tmp_path, {"kind": kind, "out": str(tmp_path / "x.csv"), "params": params})
    assert cli.main(["run", config]) == code
    err = capsys.readouterr().err
    assert message in err
    # a refused config does no numerical work, so it prints no warning
    assert code == 3 or "Warning" not in err
    assert not (tmp_path / "x.csv").exists()


def _field_paths(table, block, prefix=()):
    """Key path and field of every field of ``table``, into ``block``'s nested objects."""
    for field in (entry for entry in table if isinstance(entry, cli.Field)):
        path = prefix + (field.name,)
        yield path, field
        inner = block.get(field.name)
        if isinstance(field.kind, tuple) and isinstance(inner, dict):
            yield from _field_paths(field.kind, inner, path)
        elif isinstance(field.kind, list) and isinstance(field.kind[0], tuple) and inner:
            yield from _field_paths(field.kind[0], inner[0], path + (0,))


_HEATING_ROWS = {"data": [{"omega_z_hz": f, "rate_quanta_per_s": 1e6 / f, "sigma": 1.0} for f in (1e5, 2e5, 3e5)]}


def _scalar(field):
    return field.kind[0] if isinstance(field.kind, list) else field.kind


def numeric_fields():
    """(kind, config, key path, field) of every int and float field: the top level's in the small survival
    config, and each kind's in its small config and in a heating-fit from data rows, nested fields and list
    fields included. CI runs each ``Bound``'s top through these."""
    survival = {"kind": "survival", "seed": 1, "params": SMALL["survival"]}
    for path, field in _field_paths(cli._CONFIG, survival):
        if field.kind in (int, float):
            yield "survival", survival, path, field
    for kind, params in [*SMALL.items(), ("heating-fit", _HEATING_ROWS)]:
        for path, field in _field_paths(cli._KINDS[kind].fields, params):
            if field.kind in (int, float, [int], [float]):
                yield kind, {"kind": kind, "seed": 1, "params": params}, ("params", *path), field


def _one_of_partners(table, path):
    """The other fields of the one-of rules of the field at ``path`` into ``table``."""
    *parents, name = path
    for key in (key for key in parents if isinstance(key, str)):
        kind = next(field.kind for field in table if isinstance(field, cli.Field) and field.name == key)
        table = kind[0] if isinstance(kind, list) else kind
    rules = [entry.names for entry in table if isinstance(entry, cli.OneOf) and name in entry.names]
    return {other for names in rules for other in names if other != name}


def with_value(config, path, field, value):
    """A copy of ``config`` with the field at ``path``, or a list field's first element, set to ``value``, and
    the other fields of its one-of rules dropped."""
    config = copy.deepcopy(config)
    *parents, key = path
    block = reduce(getitem, parents, config)
    block[key] = [value, *block.get(key, [])[1:]] if isinstance(field.kind, list) else value
    if path[0] == "params":
        for partner in _one_of_partners(cli._KINDS[config["kind"]].fields, path[1:]):
            block.pop(partner, None)
    return config


_EXTREMES = (1e308, -1e308, 1e-308, -1e-308)


def _sweep(field):
    """The values a numeric field runs at and those it is refused at: each end of its ``Bound`` (the next value
    inside an open one) and the float extremes inside it; one step past each end."""
    bound = field.check
    if bound is None:
        return list(_EXTREMES), []
    step = math.nextafter if _scalar(field) is float else lambda value, to: value + (1 if to > value else -1)
    inside = [step(bound.low, math.inf) if bound.open_low else bound.low]
    past = [bound.low if bound.open_low else step(bound.low, -math.inf)]
    if bound.high < math.inf:
        inside.append(bound.high)
        past.append(step(bound.high, math.inf))
    if _scalar(field) is float:
        inside += [value for value in _EXTREMES if bound(value) is None and value not in inside]
    return inside, past


def _parse_errors(config):
    top, errors = cli._parse(config, cli._CONFIG, "")
    return errors or cli._parse(top.params, cli._KINDS[top.kind].fields, "params")[1]


def _where(path, field):
    """The name a config error gives the field at ``path``, a list field by its first element."""
    keys = [*path, 0] if isinstance(field.kind, list) else path
    return keys[0] + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in keys[1:])


_NUMERIC_FIELDS = {f"{case[0]}:{_where(*case[2:])}": case for case in numeric_fields()}
# one row per value of the sweep: the field's name and the value, run inside its bound or refused past it
_INSIDE = {
    f"{name}={value!r}": (*case, value)
    for name, case in _NUMERIC_FIELDS.items()
    for value in _sweep(case[3])[0]
    # a count at its cap can take seconds; CI runs each under a CPU-time limit
    if not (_scalar(case[3]) is int and value == case[3].check.high)
}
_PAST = {f"{name}={value!r}": (*case, value) for name, case in _NUMERIC_FIELDS.items() for value in _sweep(case[3])[1]}


@pytest.mark.parametrize("kind, config, path, field", _NUMERIC_FIELDS.values(), ids=list(_NUMERIC_FIELDS))
def test_every_numeric_field_parses_at_each_end_of_its_bound(tmp_path, kind, config, path, field):
    if _scalar(field) is int:
        # no count can ask for an unbounded allocation or loop
        assert isinstance(field.check, cli.Bound) and field.check.high < math.inf
    for value in _sweep(field)[0]:
        assert not _parse_errors({**with_value(config, path, field, value), "out": str(tmp_path / "x.csv")}), value


@pytest.mark.parametrize("kind, config, path, field, value", _PAST.values(), ids=list(_PAST))
def test_every_numeric_field_is_refused_one_step_past_its_bound(tmp_path, capsys, kind, config, path, field, value):
    out = tmp_path / "x.csv"
    config_path = write_config(tmp_path, {**with_value(config, path, field, value), "out": str(out)})
    assert cli.main(["run", config_path]) == 2
    assert f"config error: {_where(path, field)}: {field.check(value)}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, config, path, field, value", _INSIDE.values(), ids=list(_INSIDE))
def test_every_numeric_field_runs_inside_its_bound(tmp_path, capsys, kind, config, path, field, value):
    run = {**with_value(config, path, field, value), "out": str(tmp_path / "x.csv")}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", write_config(tmp_path, run)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (code, err)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # a floating-point error names only the kind; inside its bounds a field should never cause one
    assert f"numerical failure: {kind}: " not in err, err


def test_bound_messages():
    # one message per shape, the same at either end of an interval
    assert cli._TRAP_FREQUENCY(1e-308) == cli._TRAP_FREQUENCY(1e308) == "must lie in [0.001, 1e+12]"
    assert cli.Bound(0.0, 1e3, open_low=True)(0.0) == "must lie in (0, 1000]"
    assert cli.Bound(1e-9)(0.0) == "must be >= 1e-09"
    assert cli.Bound(0.0, open_low=True)(0.0) == "must be positive"
    assert cli.Bound(0.0, open_low=True)(5e-324) is cli.Bound(1e-9)(1e-9) is cli._TRAP_FREQUENCY(1e12) is None


_HEATING_PAST_THE_FLOAT_RANGE = {
    "noise_fraction_1e308": (
        {"synthetic": {**SMALL["heating-fit"]["synthetic"], "noise_fraction": 1e308}}, 2,
        "config error: params.synthetic.noise_fraction: must lie in [0, 10]",
    ),
    # the weights rate/sigma reach 1e308, and scaled by a power of two they fit the true law
    "noise_fraction_1e-308": ({"synthetic": {**SMALL["heating-fit"]["synthetic"], "noise_fraction": 1e-308}}, 0, ""),
    "rate_1e308": (
        {"data": [{**_HEATING_ROWS["data"][0], "rate_quanta_per_s": 1e308}, *_HEATING_ROWS["data"][1:]]}, 3,
        "numerical failure: singular regression (the smallest weight rate/sigma is",
    ),
    "sigma_1e-308": (
        {"data": [{**_HEATING_ROWS["data"][0], "sigma": 1e-308}, *_HEATING_ROWS["data"][1:]]}, 3,
        "numerical failure: row 0: weight rate/sigma = 10/1e-308 is not positive and finite",
    ),
}


@pytest.mark.parametrize(
    "params, code, message", _HEATING_PAST_THE_FLOAT_RANGE.values(), ids=list(_HEATING_PAST_THE_FLOAT_RANGE)
)
def test_heating_fits_past_the_float_range_name_the_cause(tmp_path, capsys, params, code, message):
    config = write_config(tmp_path, {"kind": "heating-fit", "out": str(tmp_path / "h.csv"), "params": params})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", config]) == code
    assert message in capsys.readouterr().err
    if code == 0:
        assert json.loads((tmp_path / "h_fit.json").read_text())["exponent"] == pytest.approx(1.9, abs=1e-12)


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


def test_semiclassical_nbar_and_temperature_exclude_each_other(tmp_path, capsys, monkeypatch):
    def run(name, params):
        out = tmp_path / f"{name}.csv"
        summary = cli.run_experiment({"kind": "wavefront-semiclassical", "out": str(out), "params": params})
        return out.read_bytes(), summary["effective"]["params"]

    # neither given: 4.6 mK
    _, params = run("neither", {"n_points": 3})
    assert params["temperature_k"] == 4.6e-3 and params["nbar"] is None
    # nbar alone sets the temperature, and the temperature field stays unset
    table, params = run("nbar", {"n_points": 3, "nbar": 170.0})
    assert params["nbar"] == 170.0 and params["temperature_k"] is None
    temperature = cli.motion.temperature_from_nbar(170.0, cli.omega_from_hz(params["omega_z_hz"]))
    assert run("temperature", {"n_points": 3, "temperature_k": temperature})[0] == table
    # both given
    _fail_if_run(monkeypatch, "wavefront-semiclassical")
    both = {"kind": "wavefront-semiclassical", "out": str(tmp_path / "both.csv")}
    config = write_config(tmp_path, {**both, "params": {"nbar": 1.0, "temperature_k": 1e-3}})
    assert cli.main(["run", config]) == 2
    assert "config error: params: give at most one of nbar / temperature_k" in capsys.readouterr().err
    assert not (tmp_path / "both.csv").exists()


@pytest.mark.parametrize(
    "kind, params, message",
    [
        # the displacement generator, and the Chebyshev budget's r * t_max, overflow
        ("wavefront-quantum", {"eta": 1e308}, "numerical failure: generator 1-norm inf is not finite"),
        ("quench", {"t_max_s": 1e308}, "r*t_max = inf"),
        ("negativity", {"time_s": 1e308}, "r*t_max = inf"),
    ],
)
def test_overflows_past_the_float_range_exit_3_with_no_warning(tmp_path, capsys, kind, params, message):
    config = write_config(tmp_path, {"kind": kind, "out": str(tmp_path / "x.csv"), "params": {**SMALL[kind], **params}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", config]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "state, first_level, levels",
    # a thermal state from level 0; the top Fock level from a few slabs below it, at an eta whose kicks
    # keep it off the cutoff
    [({"nbar": 2.0}, 0, 128), ({"initial_fock": 10**5 - 50, "eta": 0.001}, 99872, 129)],
    ids=["thermal", "top_fock"],
)
def test_wavefront_quantum_at_the_top_cutoff_scans_a_small_basis(tmp_path, state, first_level, levels):
    params = {**SMALL["wavefront-quantum"], "fock_cutoff": 10**5}
    del params["nbar"]
    summary = cli.run_experiment(
        {"kind": "wavefront-quantum", "out": str(tmp_path / "w.csv"), "params": {**params, **state}}
    )
    assert summary["result"]["solver"]["levels"] <= levels
    assert summary["result"]["solver"]["first_level"] == first_level
    assert json.loads((tmp_path / "w_meta.json").read_text())["fock_cutoff"] == 10**5


def test_wavefront_quantum_nbar_and_initial_fock_exclude_each_other(tmp_path, capsys, monkeypatch):
    # a Fock-state scan is held to no thermal cutoff rule, and records no nbar
    fock = {"initial_fock": 5, "fock_cutoff": 60, "n_points": 3, "n_pulses": 2}
    summary = cli.run_experiment({"kind": "wavefront-quantum", "out": str(tmp_path / "f.csv"), "params": fock})
    assert summary["effective"]["params"]["nbar"] is None
    assert json.loads((tmp_path / "f_meta.json").read_text())["nbar"] is None
    # neither given: nbar 10
    params, errors = cli._parse({}, cli._KINDS["wavefront-quantum"].fields, "params")
    assert not errors and not cli._check_wavefront_quantum(params) and params.nbar == 10.0
    # both given
    _fail_if_run(monkeypatch, "wavefront-quantum")
    config = write_config(
        tmp_path, {"kind": "wavefront-quantum", "out": str(tmp_path / "both.csv"), "params": {**fock, "nbar": 0.0}}
    )
    assert cli.main(["run", config]) == 2
    assert "config error: params: give at most one of nbar / initial_fock" in capsys.readouterr().err
    assert not (tmp_path / "both.csv").exists()


def test_figure_kind_validation(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.emit_figure_data("fig99", outdir=tmp_path)
    # a refused kind leaves no directory behind
    with pytest.raises(cli.ConfigError):
        cli.emit_figure_data("fig99", outdir=tmp_path / "new")
    assert not (tmp_path / "new").exists()


def test_every_figure_table_has_a_summary_with_its_stages_and_solver(tmp_path):
    summaries = {}
    for kind in cli.FIGURE_KINDS:
        for path in cli.emit_figure_data(kind, outdir=tmp_path / kind, seed=3).values():
            with open(path + ".summary.json") as handle:
                summary = json.load(handle)
            assert set(summary["stages"]) == {"parse_s", "solve_s", "write_s"}, path
            assert isinstance(summary["result"]["solver"], dict) and summary["outputs"][0] == path
            summaries[os.path.basename(path)] = summary
    assert len(summaries) == 14
    fig4c = summaries["fig4c_scan.csv"]["result"]["solver"]
    # two rounds over Table I's three components
    assert fig4c["skipped"] == [] and fig4c["senses"] == 6 and fig4c["nfev"] >= 6 * sequences.POLISHES
    assert 0.0 <= fig4c["max_cost"] < 1.0
    assert summaries["fig4d_contrast.csv"]["result"]["solver"] == {}
    fig8 = summaries["fig8_crosstalk.csv"]
    assert set(fig8["result"]["solver"]) == {field.name for field in dataclasses.fields(chain.SolverRecord)}
    out = str(tmp_path / "fig8" / "fig8_crosstalk.csv")
    assert fig8["effective"] == {"figure": "fig8", "seed": 3, "out": out, "format": "csv", "params": {}}


def _overflow(params, seed):
    np.array([1e308]) * 10.0


@pytest.mark.parametrize("command, name", [("run", "survival"), ("figure", "fig8")])
def test_floating_point_errors_in_a_solver_exit_3_naming_the_kind_or_figure(
    tmp_path, capsys, monkeypatch, command, name
):
    monkeypatch.setitem(cli._KINDS, "survival", cli._KINDS["survival"]._replace(run=_overflow))
    monkeypatch.setitem(cli._FIGURES, "fig8", {"crosstalk": ("fig8_crosstalk.csv", _overflow, 0, {})})
    out = tmp_path / "out"
    out.mkdir()
    if command == "run":
        argv = ["run", write_config(tmp_path, {"kind": "survival", "out": str(out / "s.csv"), "params": {}})]
    else:
        argv = ["figure", "fig8", "--outdir", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == 3
    assert f"numerical failure: {name}: overflow encountered in multiply" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_figure_fig3_bundle(tmp_path):
    paths = cli.emit_figure_data("fig3", outdir=tmp_path, seed=1)
    for path in paths.values():
        assert (tmp_path / path.split("/")[-1]).exists()


def test_fig4c_compensation_flattens_the_scan(tmp_path):
    # Table I's line noise swings the scan by 1.0 peak to peak, the residuals by 0.21 (seed 3)
    path = cli.emit_figure_data("fig4c", outdir=tmp_path, seed=3)["scan"]
    with open(path) as handle:
        assert handle.readline().strip() == "t0_s,p_up_before,p_up_after"
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.ptp(table[:, 2]) < 0.5 * np.ptp(table[:, 1])


def test_figure_command_prints_its_paths_and_fig4d_ranks_the_scenarios(tmp_path, capsys):
    assert cli.main(["figure", "fig4d", "--outdir", str(tmp_path), "--seed", "3"]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == [str(tmp_path / "fig4d_contrast.csv")]
    with open(printed[0], newline="") as handle:
        contrast = {row["scenario"]: float(row["contrast"]) for row in csv.DictReader(handle)}
    # 0.857 > 0.834 > 0.185 at seed 3
    ranked = [contrast[mode] for mode in (sequences.TRIGGER_AND_COMPENSATION, sequences.COMPENSATION_ONLY, sequences.BOTH_OFF)]
    assert ranked == sorted(ranked, reverse=True) and len(set(ranked)) == 3


@pytest.mark.parametrize("text", [None, "{\"kind\": ", ""], ids=["missing", "malformed", "empty"])
def test_unreadable_config_files_exit_2(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_fig12_tilt_explains_a_peak_of_0_3_and_sets_eta():
    jobs = cli._fig12_jobs()
    quantum, semiclassical = jobs["quantum"][3], jobs["semiclassical"][3]
    omega, mass, k = 2.0 * np.pi * semiclassical["omega_z_hz"], mass_from_amu(40.0), wavevector(729e-9)
    tilt = 1e-3 * semiclassical["tilt_mrad"]
    assert quantum["nbar"] == semiclassical["nbar"] == 60.0 and semiclassical["omega_z_hz"] == 1.0
    peak = motion.thermal_excitation(
        motion.SemiclassicalParams(
            omega=omega, t_wait=np.pi / omega, n_pulses=semiclassical["n_pulses"], k_z=k * np.sin(tilt),
            temperature=motion.temperature_from_nbar(60.0, omega), mass=mass,
        )
    )
    assert peak == pytest.approx(0.3, abs=1e-12)
    assert quantum["eta"] == pytest.approx(k * np.sin(tilt) * np.sqrt(HBAR / (2.0 * mass * omega)), rel=1e-14)


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
        # couplings are written in rad/s, unscaled
        ("couplings", {"n_ions": 4, "target_max_j_rad_s": 240.0}, "params.target_max_j_rad_s: unknown field"),
        ("negativity", {"n_ions": 4, "subsets": []}, "params.subsets: expected a non-empty list"),
        # scaling J to target_max_j_rad_s cancels the Rabi frequency, the wavelength and the mass
        *(
            (kind, {"n_ions": 4, field: value}, f"params.{field}: unknown field")
            for kind in ("quench", "negativity")
            for field, value in (("rabi_hz", 80e3), ("wavelength_m", 400e-9), ("ion_mass_amu", 9.0))
        ),
        # one ion has no pair to take a negativity of
        ("negativity", {"n_ions": 1}, "params.n_ions: 1 ion has no pair"),
        ("negativity", {"n_ions": 1, "subsets": [[1, 2]]}, "params.n_ions: 1 ion has no pair"),
        # the loop senses each frequency once, as one phasor
        (
            "compensate",
            {"components": [{"f_hz": 50.0, "b_microgauss": 30.0}, {**_COMPONENT, "b_microgauss": 10.0}]},
            "params.components[1].f_hz: 50 Hz repeats",
        ),
        # chain modes and positions do not depend on the laser
        ("chain", {"n_ions": 4, "wavelength_m": 780e-9}, "params.wavelength_m: unknown field"),
        # one strength per component, and one source of heating rates
        (
            "cpmg-sense",
            {"components": [{**_COMPONENT, "amplitude_rad_s": 1.0}]},
            "params.components[0]: give exactly one of b_microgauss / amplitude_rad_s",
        ),
        (
            "compensate",
            {"components": [_COMPONENT, {"f_hz": 150.0}]},
            "params.components[1]: give exactly one of b_microgauss / amplitude_rad_s",
        ),
        (
            "heating-fit",
            {"data": [{"omega_z_hz": 1e5, "rate_quanta_per_s": 10.0}], "synthetic": {}},
            "params: give exactly one of data / synthetic",
        ),
        ("heating-fit", {}, "params: give exactly one of data / synthetic"),
    ],
)
def test_ignored_inputs_exit_2(tmp_path, capsys, monkeypatch, kind, params, message):
    _fail_if_run(monkeypatch, kind)
    path = write_config(tmp_path, {"kind": kind, "out": str(tmp_path / "x.csv"), "params": params})
    assert cli.main(["run", path]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_every_kind_honours_json_format(tmp_path, kind):
    config = write_config(tmp_path, {"kind": kind, "seed": 3, "params": SMALL[kind]})
    out_json, out_csv = tmp_path / "main.json", tmp_path / "main.csv"
    assert cli.main(["run", config, "--format", "json", "--out", str(out_json)]) == 0
    assert cli.main(["run", config, "--format", "csv", "--out", str(out_csv)]) == 0
    with open(out_csv, newline="") as handle:
        header, *rows = list(csv.reader(handle))
    payload = json.loads(out_json.read_text())
    # the CSV's table: its header, and every cell read back as the JSON cell's type
    assert set(payload) == {"columns", "rows"} and payload["columns"] == header
    assert rows and len(payload["rows"]) == len(rows)
    for json_row, csv_row in zip(payload["rows"], rows):
        assert json_row == [type(cell)(text) for cell, text in zip(json_row, csv_row)]
        assert len(json_row) == len(header)


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
