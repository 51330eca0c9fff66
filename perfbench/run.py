#!/usr/bin/env python3
"""Benchmark for ionstring: seeded workloads run through the public CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sensing --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process runs the workload's jobs in a closed loop with a single
client, one job after another, through ``ionstring.cli.run_experiment``
and ``ionstring.cli.emit_figure_data``. Jobs come in rounds of a fixed
mix (see ``workloads.py``). ``--seconds`` sets how many whole rounds
run: as many as fill it at the seed commit, at least one, so a parent
and a change always time the same jobs.

Job time is CPU time: the seconds this process (all its threads) and
the children it waited for ran on a CPU during the job, with BLAS on one
thread. On an idle core that is the job's wall time. On a host that
steals time from its virtual CPUs, the stolen time counts in wall time
but not in CPU time: on a 2-vCPU VM that lost 5 to 30% of its CPU time
to the host, the median wall time of one job repeated in batches of 15
moved by 28% from batch to batch and its median CPU time by 2%. So the
metrics use CPU time, and wall time is printed alongside. Set-up time
is the CPU time of fresh probe processes, for the same reason.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates an untraced and a traced pass over the same
rounds, reports the per-layer metrics of the traced passes and the
tracing overhead (traced minus untraced job time), and writes the spans
to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed job
(an exception, an exit-2/3 class error or a failed correctness check)
counts in ``failed`` and does not stop the run; ``correct`` is false
when an output breaks an invariant, or when more statistical checks
miss their sigma band than chance explains (``outputs_correct``). The process
exits non-zero only on a fault of the benchmark itself, such as a
checkout without ``src/ionstring``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: a second one spin-waits, which adds CPU time that
# depends on how busy the host is.
BLAS_THREADS = 1

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# End-to-end metrics of a --trace 0 run: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("job_p50_s", "s", "lower"),
    ("job_tail_s", "s", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Job outcomes; every one but "ok" counts as failed. "miss" is a
# statistical check outside its sigma band, "check" any other check.
OK, CHECK, MISS, CONFIG, NUMERICAL, RAISED = "ok", "check", "miss", "config", "numerical", "raised"


class BenchmarkFault(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_blas_threads() -> tuple[int, int]:
    """Run BLAS on BLAS_THREADS threads; must run before numpy loads."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0)), BLAS_THREADS


def cpu_clock() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def import_cli():
    """Import ionstring.cli from this checkout's ``src``, never elsewhere."""
    if not (SRC / "ionstring" / "cli.py").is_file():
        raise BenchmarkFault(f"no ionstring sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from ionstring import cli

    if Path(cli.__file__).resolve().parent != SRC / "ionstring":
        raise BenchmarkFault(f"imported ionstring from {cli.__file__}, not from {SRC}")
    return cli


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, count) at the highest percentile with >= 10 beyond.

    With n samples that is the nearest-rank percentile 100 (n - 10) / n,
    i.e. the 11th largest sample. Below 11 samples no percentile has ten
    beyond it; the maximum is reported as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n < 11:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def outputs_correct(records) -> bool:
    """No invariant broken, and no more statistical misses than chance gives.

    A 3- or 5-sigma band is missed by a correct program in well under 1%
    of jobs; one miss plus one per 20 statistical checks is allowed.
    """
    if any(r["outcome"] == CHECK for r in records):
        return False
    statistical = sum(1 for r in records if r["statistical"])
    return sum(1 for r in records if r["outcome"] == MISS) <= 1 + statistical // 20


def error_rate(outcomes) -> float:
    """Failed share of attempted jobs: raised, exit 2/3 class or failed check."""
    outcomes = list(outcomes)
    return sum(1 for o in outcomes if o != OK) / len(outcomes) if outcomes else 0.0


def classify(exc: BaseException, cli) -> str:
    """Map an exception to the exit class ``ionstring run`` would give it."""
    import numpy as np
    from ionstring.errors import IonstringError

    if isinstance(exc, cli.ConfigError):
        return CONFIG
    if isinstance(exc, (IonstringError, FloatingPointError, np.linalg.LinAlgError)):
        return NUMERICAL
    return RAISED


def job_label(job: dict) -> str:
    if job["entry"] == "figure":
        return f"figure {job['figure']}"
    params = job["config"]["params"]
    size = params.get("n_ions", params.get("fock_cutoff", ""))
    return f"{job['config']['kind']} {size}".strip()


def execute(job: dict, cli, workdir: Path) -> dict:
    """Run one job through the CLI entry point, then check its outputs."""
    jobdir = Path(tempfile.mkdtemp(dir=workdir))
    statistical = checks.is_statistical(job)
    start_wall, start_cpu = time.perf_counter(), cpu_clock()
    detail = ""
    try:
        if job["entry"] == "run":
            out = jobdir / "out.csv"
            cli.run_experiment(job["config"], out=str(out))
            result = out
        else:
            result = cli.emit_figure_data(job["figure"], outdir=jobdir, seed=job["seed"])
        outcome = OK
    except Exception as exc:  # a failed job is a measurement, not a fault
        outcome, detail = classify(exc, cli), f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start_wall
    cpu = cpu_clock() - start_cpu
    if outcome == OK:
        problem = checks.check(job, result)
        if problem:
            outcome, detail = (MISS if statistical else CHECK), problem
    shutil.rmtree(jobdir)
    return {
        "job": job_label(job), "wall_s": wall, "cpu_s": cpu, "outcome": outcome, "detail": detail,
        "statistical": statistical,
    }


def run_round(jobs, cli, workdir: Path, tracer=None, round_index=0) -> list[dict]:
    records = []
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = f"r{round_index}j{idx}"
        records.append(execute(job, cli, workdir))
    return records


def measure_setup(workload: str, seed: int) -> float:
    """Median CPU time of fresh processes that import and generate."""
    times = []
    for _ in range(SETUP_PROBES):
        start = cpu_clock()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload, "--seed", str(seed)],
            check=True, cwd=ROOT, stdout=subprocess.DEVNULL,
        )
        times.append(cpu_clock() - start)
    return statistics.median(times)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // workloads.ROUND_S[workload]))


def warm_up(workload, seed, cli, workdir) -> None:
    """Untimed rounds; negative indices repeat no timed round's inputs."""
    for index in range(workloads.WARMUP_ROUNDS[workload]):
        run_round(workloads.generate(workload, seed, -1 - index), cli, workdir)


def timed_run(workload, seed, rounds, cli, workdir) -> list[dict]:
    warm_up(workload, seed, cli, workdir)
    records = []
    for index in range(rounds):
        records += run_round(workloads.generate(workload, seed, index), cli, workdir)
    return records


def traced_run(workload, seed, rounds, cli, workdir):
    """Alternate untraced and traced passes over the same rounds."""
    warm_up(workload, seed, cli, workdir)
    tracer = tracing.Tracer()
    plain, traced = [], []
    for index in range(rounds):
        jobs = workloads.generate(workload, seed, index)
        plain += run_round(jobs, cli, workdir)
        with tracer.installed():
            traced += run_round(jobs, cli, workdir, tracer, index)
    metrics = tracing.layer_metrics(tracer.spans, rounds)
    metrics["error_rate"] = error_rate(r["outcome"] for r in plain + traced)
    untraced_s = sum(r["cpu_s"] for r in plain)
    metrics["trace.overhead_s"] = (sum(r["cpu_s"] for r in traced) - untraced_s) / rounds
    return plain + traced, tracer, metrics, untraced_s / rounds


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(nproc: int, threads: int) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": nproc,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "loop": "closed, 1 client",
    }


def summarize(records) -> tuple[dict, dict]:
    times = [r["cpu_s"] for r in records]
    tail_value, tail_pct, n = tail(times)
    metrics = {
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_value,
        "jobs_per_s": len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "jobs": n, "tail_percentile": tail_pct, "error_rate": error_rate(r["outcome"] for r in records),
        "cpu_s_per_job": sum(times) / n, "wall_s_per_job": sum(r["wall_s"] for r in records) / n,
        "wall_p50_s": statistics.median(r["wall_s"] for r in records),
    }
    return metrics, info


def report_jobs(records) -> None:
    by_label: dict[str, list[float]] = {}
    for r in records:
        by_label.setdefault(r["job"], []).append(r["cpu_s"])
    for label, times in sorted(by_label.items(), key=lambda item: statistics.median(item[1])):
        print(f"  {label:<28} n={len(times):<4} median_s={statistics.median(times):.4g} max_s={max(times):.4g}")


def report_failures(records) -> None:
    seen = {}
    for r in records:
        if r["outcome"] != OK:
            key = (r["job"], r["outcome"])
            seen.setdefault(key, [0, r["detail"]])[0] += 1
    for (job, outcome), (count, detail) in sorted(seen.items()):
        print(f"  failed {count}x {job} [{outcome}]: {detail[:160]}")


def result_line(records, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": outputs_correct(records),
            "attempted": len(records),
            "failed": sum(1 for r in records if r["outcome"] != OK),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
    )


def run_one(args, nproc: int, threads: int) -> int:
    cli = import_cli()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    env = environment(nproc, threads)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="jobs-") as workdir:
        if not args.trace:
            rounds = rounds_for(args.workload, args.seconds)
            records = timed_run(args.workload, args.seed, rounds, cli, Path(workdir))
            metrics, info = summarize(records)
            metrics["setup_s"] = setup_s
            print(
                f"{args.workload:<10} rounds={rounds} jobs={info['jobs']} "
                + " ".join(f"{name}={metrics[name]:.6g}{unit}" for name, unit, _ in END_TO_END)
                + f" cpu_s_per_job={info['cpu_s_per_job']:.6g}s error_rate={info['error_rate']:.4g}"
                + f" (job_tail_s at p{info['tail_percentile']:.1f} of n={info['jobs']};"
                + f" wall: wall_p50_s={info['wall_p50_s']:.6g}s wall_s_per_job={info['wall_s_per_job']:.6g}s)"
            )
            report_jobs(records)
            report_failures(records)
            units = {name: unit for name, unit, _ in END_TO_END}
        else:
            # two passes per round: about as long as an untraced run
            rounds = max(1, rounds_for(args.workload, args.seconds) // 2)
            records, tracer, metrics, untraced_s = traced_run(args.workload, args.seed, rounds, cli, Path(workdir))
            spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(spans_path)
            print(f"traced rounds={rounds} spans={len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
            print(f"absent (wrapped names not found): {', '.join(tracer.absent) or 'none'}")
            print(
                f"tracing overhead: {metrics['trace.overhead_s']:.4g} s per round "
                f"on {untraced_s:.4g} s of untraced job time per round (CPU time)"
            )
            by_layer, _ = tracing.self_times(tracer.spans)
            total = sum(by_layer.values())
            print("layer share of traced job time: " + ", ".join(
                f"{layer} {busy / total:.1%}" for layer, busy in sorted(by_layer.items(), key=lambda kv: -kv[1])
            ))
            for name, unit, _ in tracing.PER_LAYER:
                print(f"  {name:<42} {metrics[name]:.6g} {unit}")
            print("  per-function self time over all traced rounds:")
            for name, calls, busy in tracing.function_table(tracer.spans):
                print(f"    {name:<40} calls={calls:<8} self_s={busy:.4f}")
            report_failures(records)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    print(result_line(records, metrics, units))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one summary row per workload."""
    rows, total = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchmarkFault(f"workload {name} exited with {proc.returncode}")
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        rows.append(
            f"{name:<10} "
            + " ".join(f"{metric}={v['value']:.6g}{v['unit']}" for metric, v in result["metrics"].items())
            + f" attempted={result['attempted']} failed={result['failed']}"
            + f" error_rate={result['failed'] / result['attempted']:.4g}"
        )
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print("summary, one row per workload:")
    print("\n".join(rows))
    print(json.dumps(total))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc, threads = pin_blas_threads()
    try:
        if args.probe:
            # set-up probe: what every `ionstring run` pays before a job
            import_cli()
            workloads.generate(args.workload, args.seed, 0)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_one(args, nproc, threads)
    except BenchmarkFault as exc:
        print(f"benchmark fault: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
