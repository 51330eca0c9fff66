"""Seeded workload generator.

A workload is an endless sequence of *rounds*. Every round of a
workload has the same job mix (kinds and sizes); the seed only moves
the physical parameters inside narrow ranges, so that timings stay
comparable between seeds while outputs differ. Round ``i`` of a seed
depends on nothing but ``(workload, seed, i)``.

A job is a plain dict:

``{"entry": "run", "config": {...}, "truth": {...}}``
    executed as ``ionstring.cli.run_experiment(config, out=...)``;
``{"entry": "figure", "figure": "fig8", "seed": 3, "truth": {}}``
    executed as ``ionstring.cli.emit_figure_data(figure, outdir, seed)``.

``truth`` holds what the correctness checks compare the outputs with;
the program never sees it. This module imports nothing from ionstring.
"""

from __future__ import annotations

import math
import random

# One line per workload: why it is in the benchmark.
WHY = {
    "sensing": (
        "cpmg-sense and single-round compensate jobs: the sequences fit "
        "(least_squares multi-starts) takes almost all the time here and "
        "almost none elsewhere"
    ),
    "quench": (
        "Ising and XY quench/negativity jobs at 8-12 ions: dynamics.evolve "
        "dominates, full space for Ising, magnetisation-conserving for XY"
    ),
    "wavefront": (
        "wavefront-quantum jobs: dense Fock propagation on one column "
        "(fig11, cutoff 320) and on hundreds (thermal, cutoff 400 and 550)"
    ),
    "analysis": (
        "control with no hot kernel: chain at N 51-1000, couplings, "
        "stochastics fits, semiclassical wavefront, fig8/fig4d; cli and "
        "export overhead show"
    ),
}

WORKLOADS = tuple(WHY)

# The workloads BENCHMARK.json lists. `sensing` is left out of it: on a
# 2-vCPU VM its least_squares-bound jobs ran up to 20% slower or faster
# from one minute to the next, so ten runs on ten seeds spread by 0.24
# to 0.25 of their median in each of three sets, against the largest
# allowed bound of 0.25. It stays runnable by hand (`--workload
# sensing`), where alternating runs of a parent and a change cancel
# that drift.
BENCHMARKED = ("quench", "wavefront", "analysis")

# CPU seconds one round takes at the seed commit on an x86 box with one
# BLAS thread. A run of S seconds measures max(1, S // ROUND_S) whole
# rounds, so parent and change always time the same jobs.
ROUND_S = {"sensing": 22.0, "quench": 15.0, "wavefront": 18.0, "analysis": 2.4}

# Untimed rounds run before the timed ones. The first chain solve at
# N = 400 in a process takes twice as long as the later ones, which
# would put the analysis tail on whichever round runs first; the other
# workloads' jobs are long enough for first-call costs not to show.
WARMUP_ROUNDS = {"sensing": 0, "quench": 0, "wavefront": 0, "analysis": 1}

# Inner phase amplitude is 0.224 rad per microgauss for a line harmonic
# probed by the CPMG sequence whose filter peak sits on it (tau = 20 ms):
# above 7 uG it wraps beyond pi/2.
_TAU_S = 0.02
_HARMONICS_HZ = (50.0, 150.0, 250.0)
# Criterion 1: 51-ion span per axial confinement.
CHAIN51_SPAN_M = {127e3: 246e-6, 112e3: 269e-6}
CHAIN_LADDER = (60, 80, 100, 200, 400, 1000)
# Decay shape select_decay_model should return for each noise kind.
RAMSEY_MODEL = {"random_walk": "exponential", "slow_drift": "gaussian"}


def _rng(workload: str, seed: int, index: int) -> random.Random:
    # str seeds are hashed with SHA-512: stable across processes and runs
    return random.Random(f"{workload}/{seed}/{index}")


def _run(kind: str, cli_seed: int, params: dict, **truth) -> dict:
    return {
        "entry": "run",
        "config": {"kind": kind, "seed": cli_seed, "params": params},
        "truth": truth,
    }


def _sequence(f_hz: float) -> dict:
    return {"n_pulses": max(1, round(2.0 * _TAU_S * f_hz)), "tau_s": _TAU_S}


def _sensing(r: random.Random) -> list[dict]:
    jobs = []
    # free-contrast single-component scans: a low contrast one and six
    # with a wrapped inner amplitude (> pi/2). All seven take about the
    # same time, so the median job is one of them on every seed. (A
    # small-signal scan is left out: its fit takes 3 to 8 s by seed.)
    for count, field_lo, field_hi, c_lo, c_hi in (
        (1, 12.0, 16.0, 0.35, 0.45),
        (6, 28.0, 30.0, 0.9, 1.0),
    ):
        for _ in range(count):
            f_hz = r.choice(_HARMONICS_HZ)
            b_ug = r.uniform(field_lo, field_hi)
            phase = r.uniform(-math.pi, math.pi)
            params = {
                "components": [{"f_hz": f_hz, "b_microgauss": b_ug, "phase_rad": phase}],
                "sequence": _sequence(f_hz),
                "contrast": r.uniform(c_lo, c_hi),
                "shots": 100,
            }
            jobs.append(_run("cpmg-sense", r.randrange(2**31), params, field_microgauss=b_ug, phase_rad=phase))
    # Table I-like compensation, one round, contrast known to the loop.
    # This job is the tail; with amplitudes within +-3% and 1000 shots
    # its fit work (least_squares evaluations) varies by +-4% between
    # seeds, against +-10% with +-8% and 100 shots.
    comps = [
        {"f_hz": 50.0, "b_microgauss": r.uniform(36.5, 37.5), "phase_rad": r.uniform(-math.pi, math.pi)},
        {"f_hz": 150.0, "b_microgauss": r.uniform(9.1, 9.4), "phase_rad": r.uniform(-math.pi, math.pi)},
        {"f_hz": 250.0, "b_microgauss": r.uniform(22.7, 23.3), "phase_rad": r.uniform(-math.pi, math.pi)},
    ]
    jobs.append(
        _run(
            "compensate", r.randrange(2**31),
            {"components": comps, "max_rounds": 1, "contrast": r.uniform(0.95, 1.0), "shots": 1000},
            max_residual_ratio=0.1,
        )
    )
    return jobs


def _quench_params(r: random.Random, n: int, model: str) -> dict:
    return {
        "n_ions": n,
        "model": model,
        "alignment": r.choice(("odd_up", "even_up")),
        "centerline_detuning_hz": r.uniform(2900.0, 3100.0),
        "target_max_j_rad_s": r.uniform(235.0, 245.0),
    }


def _quench(r: random.Random) -> list[dict]:
    jobs = []
    # five XY-12 quenches fill the middle of the job-time order, so the
    # median job is one of them on every seed; the Ising-12 quench is
    # the slowest
    for n, model in (
        (12, "ising_transverse"), (10, "ising_transverse"),
        (12, "xy_effective"), (12, "xy_effective"), (12, "xy_effective"), (12, "xy_effective"),
        (12, "xy_effective"), (10, "xy_effective"),
    ):
        params = _quench_params(r, n, model)
        # evolve's cost grows with |H| t: narrow ranges keep the Ising-12
        # tail within a few percent from seed to seed
        params["t_max_s"] = r.uniform(2.98e-3, 3.02e-3)
        params["time_points"] = 11
        jobs.append(_run("quench", r.randrange(2**31), params, alignment=params["alignment"]))
    # negativity: exact and shot-limited tomography on pair and triplet
    for n, model, shots in ((12, "ising_transverse", None), (8, "ising_transverse", 200)):
        params = _quench_params(r, n, model)
        params["time_s"] = r.uniform(2.98e-3, 3.02e-3)
        first = r.randrange(1, n - 2)
        params["subsets"] = [[first, first + 1], [first, first + 1, first + 2]]
        if shots is not None:
            params["shots_per_setting"] = shots
        jobs.append(_run("negativity", r.randrange(2**31), params))
    return jobs


def _wavefront(r: random.Random) -> list[dict]:
    jobs = []
    # fig11 settings: one Fock state, cutoff 320, eight points
    for ratio in (0.5, 1.0, 5.0, 50.0, 0.5, 5.0, 50.0):
        params = {
            "rabi_over_omega": ratio,
            "eta": r.uniform(0.009, 0.011),
            "n_pulses": 10,
            "initial_fock": r.randrange(40, 61),
            "fock_cutoff": 320,
            "t_wait_min_periods": max(0.55, 1.05 / ratio / 2.0),
            "t_wait_max_periods": 2.2,
            "n_points": 8,
        }
        jobs.append(_run("wavefront-quantum", r.randrange(2**31), params))
    # fig12 / criterion 6 settings: thermal ensemble around the main peak
    # (cutoff 700 would take 18 s alone; the 550 job is the slowest)
    for cutoff, nbar_lo, nbar_hi, points in ((400, 32.0, 34.0, 3), (550, 46.0, 48.0, 2)):
        nbar = r.uniform(nbar_lo, nbar_hi)
        n_pulses = 20
        target = r.uniform(0.25, 0.35)
        eta = math.sqrt(-math.log(1.0 - 2.0 * target) / (4.0 * (nbar + 0.5) * (n_pulses + 1) ** 2))
        params = {
            "rabi_over_omega": 50.0,
            "eta": eta,
            "n_pulses": n_pulses,
            "nbar": nbar,
            "fock_cutoff": cutoff,
            "t_wait_min_periods": 0.498,
            "t_wait_max_periods": 0.506,
            "n_points": points,
        }
        jobs.append(_run("wavefront-quantum", r.randrange(2**31), params, semiclassical_peak=target))
    return jobs


def _analysis(r: random.Random) -> list[dict]:
    omega_z = r.choice(tuple(CHAIN51_SPAN_M))
    jobs = [_run("chain", r.randrange(2**31), {"n_ions": 51, "omega_z_hz": omega_z}, span_m=CHAIN51_SPAN_M[omega_z])]
    for n in CHAIN_LADDER:
        jobs.append(_run("chain", r.randrange(2**31), {"n_ions": n, "omega_z_hz": r.uniform(110e3, 130e3)}))
    for n in (10, 14):
        params = {"n_ions": n, "centerline_detuning_hz": r.uniform(2500.0, 3500.0)}
        jobs.append(_run("couplings", r.randrange(2**31), params))
    for _ in range(2):
        alpha = r.uniform(1.5, 2.5)
        synthetic = {"alpha": alpha, "prefactor": r.uniform(1e12, 5e12), "noise_fraction": 0.1}
        jobs.append(_run("heating-fit", r.randrange(2**31), {"synthetic": synthetic}, alpha=alpha))
    for _ in range(2):
        tau = r.uniform(20.0, 40.0)
        jobs.append(
            _run("survival", r.randrange(2**31), {"melt_rate_per_s": 1.0 / tau, "trials": 10000}, tau_s=tau)
        )
    ramsey = (
        {"noise_kind": "random_walk", "strength": r.uniform(5.0, 8.0), "dt_s": 2e-3,
         "n_experiments": 30000, "max_lag_steps": 100},
        {"noise_kind": "slow_drift", "strength": r.uniform(3.0, 5.0), "dt_s": 1e-3,
         "n_experiments": 20000, "max_lag_steps": 40},
    )
    for params in ramsey:
        jobs.append(
            _run("ramsey-correlations", r.randrange(2**31), params, model=RAMSEY_MODEL[params["noise_kind"]])
        )
    # twelve of the 29 jobs, so the median job is one of these on every
    # seed rather than whichever of fig8 or chain 51/100 (all near 10 ms)
    # lands on it
    for _ in range(12):
        params = {"omega_z_hz": r.uniform(100e3, 125e3), "tilt_mrad": r.uniform(3.0, 6.0), "n_points": 200}
        jobs.append(_run("wavefront-semiclassical", r.randrange(2**31), params))
    for figure in ("fig8", "fig4d"):
        jobs.append({"entry": "figure", "figure": figure, "seed": r.randrange(2**31), "truth": {}})
    return jobs


_BUILDERS = {"sensing": _sensing, "quench": _quench, "wavefront": _wavefront, "analysis": _analysis}


def generate(workload: str, seed: int, index: int) -> list[dict]:
    """Jobs of round ``index`` of ``workload`` for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](_rng(workload, seed, index))
