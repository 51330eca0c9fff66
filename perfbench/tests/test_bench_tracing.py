import pytest

import tracing


def span(sid, parent, name, start, end, error=None, extra=None):
    layer = name.split(".")[0]
    return [sid, parent, "job", name, layer, start, end, error, extra]


def nested_spans():
    # cli.run_experiment [0, 10]
    #   sequences.compensate [1, 9]
    #     sequences.sense [1.5, 8.5]
    #       sequences.least_squares [2, 5]
    #       dynamics.evolve [6, 8]        (another layer, inside sequences)
    #         sequences.cpmg [6.5, 7]    (back in sequences, inside dynamics)
    #   export.write_csv [9.2, 9.8]
    return [
        span(0, None, "cli.run_experiment", 0.0, 10.0),
        span(1, 0, "sequences.compensate", 1.0, 9.0),
        span(2, 1, "sequences.sense", 1.5, 8.5),
        span(3, 2, "sequences.least_squares", 2.0, 5.0, extra={"cost": 1.0, "nfev": 7}),
        span(4, 2, "dynamics.evolve", 6.0, 8.0),
        span(5, 4, "sequences.cpmg", 6.5, 7.0),
        span(6, 0, "export.write_csv", 9.2, 9.8, extra={"bytes": 10}),
    ]


def test_self_time_subtracts_other_layer_children_only():
    by_layer, by_name = tracing.self_times(nested_spans())
    assert by_name["cli.run_experiment"] == pytest.approx(10.0 - 8.0 - 0.6)
    # same-layer children are not subtracted; the dynamics grandchild is
    assert by_name["sequences.compensate"] == pytest.approx(8.0 - 2.0)
    assert by_name["sequences.sense"] == pytest.approx(7.0 - 2.0)
    assert by_name["dynamics.evolve"] == pytest.approx(2.0 - 0.5)
    assert by_name["sequences.cpmg"] == pytest.approx(0.5)
    assert by_layer["cli"] == pytest.approx(1.4)
    assert by_layer["sequences"] == pytest.approx(6.0 + 0.5)
    assert by_layer["dynamics"] == pytest.approx(1.5)
    assert by_layer["export"] == pytest.approx(0.6)
    # layers partition the root span: nothing counted twice
    assert sum(by_layer.values()) == pytest.approx(10.0)


def test_layer_metrics_counts_and_ratios():
    spans = [
        span(0, None, "sequences.sense", 0.0, 4.0),
        span(1, 0, "sequences.least_squares", 0.0, 1.0, extra={"cost": 0.5, "nfev": 10}),
        span(2, 0, "sequences.least_squares", 1.0, 2.0, extra={"cost": 0.2, "nfev": 20}),
        span(3, 0, "sequences.least_squares", 2.0, 3.0, extra={"cost": 0.2 * (1 + 1e-9), "nfev": 30}),
        span(4, None, "sequences.sense", 5.0, 6.0, error="FitError"),
        span(5, None, "chain.equilibrium_positions", 6.0, 7.0, error="ConvergenceError"),
        span(6, 4, "sequences.least_squares", 5.1, 5.2, extra={"counter_error": "AttributeError()"}),
    ]
    m = tracing.layer_metrics(spans, rounds=2)
    assert m["sequences.fit_starts"] == 2.0
    assert m["sequences.fit_nfev"] == 30.0
    assert m["sequences.fit_useful_ratio"] == pytest.approx(2 / 3)
    assert m["sequences.sense_skipped"] == 0.5
    assert m["sequences.sense.calls"] == 1.0
    assert m["sequences.calls"] == 1.0  # entries into the layer, per round
    assert m["chain.errors"] == 0.5
    assert m["sequences.busy_s"] == pytest.approx(2.5)
    assert m["dynamics.busy_s"] == 0.0
    names = {name for name, _, _ in tracing.PER_LAYER} - {"error_rate", "trace.overhead_s"}
    assert names <= set(m)


def test_export_bytes_count_entry_spans_once():
    spans = [
        span(0, None, "export.write_mode_spectrum_csv", 0.0, 1.0, extra={"bytes": 100}),
        span(1, 0, "export.write_csv", 0.1, 0.9, extra={"bytes": 100}),
    ]
    assert tracing.layer_metrics(spans, rounds=1)["export.bytes_written"] == 100


def test_removed_name_is_reported_absent(monkeypatch):
    from ionstring import sequences

    monkeypatch.delattr(sequences, "least_squares")
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    assert "sequences.least_squares" in tracer.absent
    assert "sequences.sense" in tracer.wrapped
    assert tracing.layer_metrics(tracer.spans, rounds=1)["sequences.fit_starts"] == 0


def test_installed_restores_originals_and_records_spans(tmp_path):
    from ionstring import chain, cli

    original = chain.equilibrium_positions
    tracer = tracing.Tracer()
    with tracer.installed():
        cli.run_experiment({"kind": "chain", "params": {"n_ions": 5}}, out=str(tmp_path / "c.csv"))
    assert chain.equilibrium_positions is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "cli.run_experiment"
    assert "chain.equilibrium_positions" in names
    assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)
    assert tracer.absent == []
