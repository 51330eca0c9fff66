import json

import pytest

from ionstring import cli


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
    for summary, steps, name in ((quench, 4, "q.csv"), (negativity, 1, "n.csv")):
        on_disk = json.loads((tmp_path / f"{name}.summary.json").read_text())
        solver = on_disk["result"]["solver"]
        assert set(solver) == {"propagation_steps", "max_norm_error"}
        assert solver["propagation_steps"] == steps
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
