"""Closed-loop benchmark of gaussforge: one client, each job after the last.

Run from the root of a checkout:

    python3 perfbench/run.py --workload forge --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload untraced and then traced, each for half of ``--seconds``, and
reports the per-layer metrics.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report.  README.md in
this directory describes the workloads and every metric.
"""

import os

BLAS_THREADS = 1
# pinned before numpy loads; CLI children inherit the environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import scaling  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Cli  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
MIN_JOBS = 100  # so that p90 has at least 10 samples beyond it
SETUP_REPEATS = 7

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def _per_layer():
    units = {}
    for name in spans.WRAPPED:
        units[f"{name}.calls"] = "calls/job"
        units[f"{name}.ms"] = "ms"
    for module in spans.MODULES:
        units[f"{module}.self_ms"] = "ms/job"
        units[f"{module}.share"] = "ratio"
    units["jsonio.dumps.bytes"] = "bytes"
    for kind in Cli.block:
        units[f"cli.{kind}.ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units["cli.interpreter_ms"] = "ms"
    units["trace.overhead"] = "ratio"
    units["standard_form.reconstruct_diagonal.newton_iters"] = "iterations"
    for name in scaling.LADDERS:
        units[f"{name}.exp"] = "exponent"
    return units


PER_LAYER = _per_layer()


@dataclass
class Outcome:
    label: str
    seconds: float
    status: str  # ok, refused (the library raised its own error), wrong, error
    detail: str = ""
    block: int = 0
    scale: float = 1.0  # factor to nominal host speed, see calibration.py

    @property
    def ms(self):
        return self.seconds * self.scale * 1e3


def import_gaussforge():
    src = ROOT / "src"
    if not (src / "gaussforge" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gaussforge sources under {src}")
    sys.path.insert(0, str(src))
    import gaussforge
    import gaussforge.jsonio  # the package does not import it; the scaling ladder times it

    return gaussforge


def build(gf, name, seed):
    if name == Cli.name:
        return Cli(gf, seed, root=ROOT, work_dir=ROOT / ".perfbench-work" / str(os.getpid()))
    return WORKLOADS[name](gf, seed)


def run_job(gf, job, tracer=None, job_id=None):
    if tracer is not None:
        tracer.job = job_id
    start = time.perf_counter()
    try:
        out = job.run()
    except gf.GaussForgeError as exc:
        return Outcome(job.label, time.perf_counter() - start, "refused", f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # any other exception is a wrong result: count it and go on
        return Outcome(job.label, time.perf_counter() - start, "error", repr(exc))
    finally:
        if tracer is not None:
            tracer.job = None
    seconds = time.perf_counter() - start
    try:
        job.check(out)
    except CheckFailed as exc:
        return Outcome(job.label, seconds, "wrong", str(exc))
    return Outcome(job.label, seconds, "ok")


def closed_loop(gf, workload, seconds, min_jobs, tracer=None):
    """Run whole blocks until ``seconds`` have passed and ``min_jobs`` jobs ran.

    Returns the job outcomes and, per block, the scaled seconds its jobs
    took including their checks.
    """
    task = workload.calibration
    records, blocks = [], []
    start = time.perf_counter()
    for index, block in enumerate(workload.blocks()):
        samples, busy, first = [], 0.0, len(records)
        for job in block:
            samples.append(task.sample())
            job_start = time.perf_counter()
            records.append(run_job(gf, job, tracer, len(records)))
            busy += time.perf_counter() - job_start
        scale = task.scale(samples)
        for record in records[first:]:
            record.block, record.scale = index, scale
        blocks.append(busy * scale)
        if time.perf_counter() - start >= seconds and len(records) >= min_jobs:
            return records, blocks


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def latencies_ms(records, blocks):
    """Scaled job latencies; a failed job counts as waiting the whole timed run."""
    return [r.ms if r.status == "ok" else sum(blocks) * 1e3 for r in records]


def measure_setup(args):
    """Median over fresh processes of interpreter start, import and input generation.

    Each probe is scaled by the workload's reference task, timed just
    before and after it.
    """
    task = WORKLOADS[args.workload].calibration
    times = []
    command = [sys.executable, str(pathlib.Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        before = [task.sample() for _ in range(5)]
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe exited {code} without finishing set-up")
        times.append(seconds * task.scale(before + [task.sample() for _ in range(5)]))
    return statistics.median(times)


def end_to_end(args, workload, records, blocks):
    children = isinstance(workload, Cli)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF).ru_maxrss
    latencies = latencies_ms(records, blocks)
    passed = sum(r.status == "ok" for r in records)
    # every block has the same size mix, so the median block rate resists
    # slow spells of a shared host better than the overall rate
    per_block = [0] * len(blocks)
    for record in records:
        per_block[record.block] += record.status == "ok"
    return {
        "jobs_per_s": statistics.median(n / busy for n, busy in zip(per_block, blocks)),
        "job_p50_ms": percentile(latencies, 0.5),
        "job_p90_ms": percentile(latencies, 0.9),
        "setup_s": measure_setup(args),
        "peak_rss_mb": peak / 1024.0,
        "pass_ratio": passed / len(records),
    }


def per_layer(gf, args, workload):
    half = args.seconds / 2.0
    plain, plain_blocks = closed_loop(gf, workload, half, 1)
    tracer = spans.Tracer()
    restore = spans.install(tracer, gf)
    workload.tracer = tracer
    try:
        traced, traced_blocks = closed_loop(gf, workload, half, 1, tracer)
    finally:
        workload.tracer = None
        restore()
    metrics = spans.summarize(tracer.spans, [r.scale for r in traced], sum(r.ms for r in traced) / 1e3,
                              workload.extra_self(traced, tracer.spans))
    plain_rate = sum(r.status == "ok" for r in plain) / sum(plain_blocks)
    traced_rate = sum(r.status == "ok" for r in traced) / sum(traced_blocks)
    metrics["trace.overhead"] = 1.0 - traced_rate / plain_rate if plain_rate else 0.0
    for kind in Cli.block:
        times = [r.ms for r in plain if r.label == kind and r.status == "ok"]
        metrics[f"cli.{kind}.ms"] = statistics.median(times) if times else 0.0
    launches = getattr(workload, "launches", [])
    for index, name in ((1, "cli.interpreter_ms"), (2, "cli.import_ms")):
        times = [launch[index] * traced[launch[0]].scale for launch in launches]
        metrics[name] = statistics.median(times) if times else 0.0
    metrics["standard_form.reconstruct_diagonal.newton_iters"] = scaling.newton_iters(
        gf, workload.newton_cases())
    metrics.update(scaling.exponents(gf, args.seed))
    return metrics, plain + traced


def provenance(seed):
    import numpy as np

    def git(*command):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            proc = subprocess.run(["git", *command], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gaussforge").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": seed,
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(git("status", "--porcelain", "--untracked-files=no")),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": min(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def report(args, records, metrics, units):
    counts = {status: sum(r.status == status for r in records)
              for status in ("ok", "refused", "wrong", "error")}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args.seed)))
    print("jobs " + " ".join(f"{status}={count}" for status, count in counts.items()))
    by_label = {}
    for record in records:
        by_label.setdefault(record.label, []).append(record)
    for label, group in sorted(by_label.items()):
        passed = sum(r.status == "ok" for r in group)
        raw = statistics.median(r.seconds * 1e3 for r in group)
        scaled = statistics.median(r.ms for r in group)
        print(f"class {label}: n={len(group)} passed={passed} median {scaled:.4g} ms scaled, {raw:.4g} ms raw")
    if records:
        scales = [r.scale for r in records]
        task = WORKLOADS[args.workload].calibration
        print(f"host speed scale: median {statistics.median(scales):.3f}, "
              f"range {min(scales):.3f}-{max(scales):.3f} "
              f"(reference task {task.name}, nominal {task.nominal_ms} ms)")
    for name, unit in units.items():
        suffix = f" (n={len(records)})" if name.startswith("job_p") else ""
        print(f"{name} = {metrics[name]:.6g} {unit}{suffix}")
    for record in [r for r in records if r.status != "ok"][:5]:
        print(f"failed job {record.label}: {record.status}: {record.detail}", file=sys.stderr)
    failed = len(records) - counts["ok"]
    result = {
        "correct": counts["wrong"] == 0 and counts["error"] == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # one CPU for this process and its children: the reference task then
    # runs on the CPU that the jobs, CLI children included, run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gf = import_gaussforge()
    workload = build(gf, args.workload, args.seed)
    try:
        if args.setup_only:
            print("ready", flush=True)
            return
        for job in workload.warmup():
            run_job(gf, job)
        if args.trace:
            metrics, records = per_layer(gf, args, workload)
        else:
            records, blocks = closed_loop(gf, workload, args.seconds, MIN_JOBS)
            metrics = end_to_end(args, workload, records, blocks)
    finally:
        workload.close()
    report(args, records, metrics, PER_LAYER if args.trace else END_TO_END)


if __name__ == "__main__":
    main()
