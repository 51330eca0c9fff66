import json
from pathlib import Path

import pytest

import run
import tracing
import workloads
from ionstring.errors import ConvergenceError


def test_tail_is_eleventh_largest_with_ten_beyond():
    values = list(range(100))
    value, percentile, n = run.tail(values)
    assert (value, percentile, n) == (89, 90.0, 100)
    assert sum(1 for v in values if v > value) == 10
    value, percentile, n = run.tail(list(range(11)))
    assert (value, n) == (0, 11)
    assert percentile == pytest.approx(100.0 / 11)


def test_tail_below_eleven_samples_is_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        run.tail([])


class FakeCli:
    class ConfigError(Exception):
        pass

    def __init__(self, action):
        self.action = action

    def run_experiment(self, config, out):
        return self.action(Path(out))


def _raise(exc):
    def action(out):
        raise exc

    return action


def _write_heating_fit(exponent):
    def action(out):
        out.write_text("omega_z_hz,n_ions,rate_per_ion\n")
        fit = {"exponent": exponent, "exponent_sigma": 0.01, "prefactor": 1.0, "seed": 0}
        out.with_name(out.stem + "_fit.json").write_text(json.dumps(fit))

    return action


HEATING_JOB = {"entry": "run", "config": {"kind": "heating-fit", "params": {}}, "truth": {"alpha": 2.0}}


@pytest.mark.parametrize(
    "action, outcome",
    [
        (_raise(FakeCli.ConfigError("params.x: unknown field")), run.CONFIG),
        (_raise(ConvergenceError("stalled")), run.NUMERICAL),
        (_raise(FloatingPointError("norm")), run.NUMERICAL),
        (_raise(TypeError("boom")), run.RAISED),
        (_write_heating_fit(2.5), run.MISS),
        (_write_heating_fit(2.001), run.OK),
    ],
)
def test_execute_classifies_each_failure(tmp_path, action, outcome):
    record = run.execute(HEATING_JOB, FakeCli(action), tmp_path)
    assert record["outcome"] == outcome
    assert list(tmp_path.iterdir()) == []  # job outputs are removed


def test_error_rate_counts_every_failure_class():
    outcomes = [run.OK, run.RAISED, run.CONFIG, run.NUMERICAL, run.CHECK, run.MISS, run.OK]
    assert run.error_rate(outcomes) == pytest.approx(5 / 7)
    assert run.error_rate([run.OK] * 3) == 0.0


def record(outcome, statistical=False):
    return {"outcome": outcome, "statistical": statistical}


def test_result_line_keys_and_correctness():
    records = [record(run.OK), record(run.NUMERICAL)]
    line = json.loads(run.result_line(records, {"a": 1.5}, {"a": "s"}))
    assert line == {"correct": True, "attempted": 2, "failed": 1, "metrics": {"a": {"value": 1.5, "unit": "s"}}}
    records.append(record(run.CHECK))
    assert json.loads(run.result_line(records, {"a": 1.5}, {"a": "s"}))["correct"] is False


def test_statistical_misses_within_chance_keep_the_run_correct():
    records = [record(run.OK, True)] * 9 + [record(run.MISS, True), record(run.OK)]
    assert run.outputs_correct(records)  # one miss in ten checks
    two_misses = records + [record(run.MISS, True)]
    assert not run.outputs_correct(two_misses)
    assert run.outputs_correct(two_misses + [record(run.OK, True)] * 29)  # two in forty
    assert run.error_rate(r["outcome"] for r in records) == pytest.approx(1 / 11)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BENCHMARKED)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WHY[w] for w in workloads.BENCHMARKED]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_cpu_clock_counts_children_it_waited_for():
    import subprocess
    import sys

    start = run.cpu_clock()
    subprocess.run([sys.executable, "-c", "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass"], check=True)
    assert run.cpu_clock() - start >= 0.3
