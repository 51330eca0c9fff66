import json

import pytest

import run
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_configs(workload):
    first = [workloads.generate(workload, 11, i) for i in range(3)]
    again = [workloads.generate(workload, 11, i) for i in range(3)]
    assert json.dumps(first, sort_keys=True) == json.dumps(again, sort_keys=True)
    other = [workloads.generate(workload, 12, i) for i in range(3)]
    assert json.dumps(first, sort_keys=True) != json.dumps(other, sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_round_has_the_same_job_mix(workload):
    mixes = {tuple(run.job_label(job) for job in workloads.generate(workload, seed, i)) for seed in (1, 2) for i in range(4)}
    assert len(mixes) == 1


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.generate("tier1", 1, 0)
