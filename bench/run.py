"""harmarea benchmark: the real CLI end to end, and a traced in-process run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ./src; nothing is
installed.  One client drives the CLI in a closed loop: each job starts only
after the previous one ends, and no job uses more than two threads.

--trace 0 (end to end).  Each cycle runs every job of the workload twice, as
`python -m harmarea ...` in a child process and through harmarea.cli.main in
this process, and checks both outputs.  Metrics:
  setup_s      median time of SETUP_PROBES runs of `python -m harmarea --help`
               (interpreter start, import, parser build), spread evenly
               between the jobs so they sample the whole run
  wall_s       one pass over the job list as child processes: the sum over
               jobs of each job's median child time
  compute_s    the same pass in process, untraced
  job_p50_s    median child time over every child job run
  job_tail_s   the highest percentile with at least 10 child runs beyond it
               (the median when fewer than 20 runs exist); printed with its
               percentile and sample count
  peak_rss_mb  the largest maximum resident set size of any child
The failure ratio (failed / attempted job runs) is printed; it is also the
`failed` and `attempted` fields of the result.

--trace 1 (per layer).  Each cycle runs every job in process untraced and then
traced (tracing.py); counts come from the first traced cycle and must repeat
exactly in later ones, self times are summed per-job medians, and
trace.overhead_s is traced minus untraced compute time.

The run repeats the cycle as many times as nominal cycles fit in --seconds
(CYCLE_SECONDS, at least once): a fixed number for a given --seconds, so
every run of a workload measures the same jobs.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in this process and its children; a job's only
# parallelism is then its own --workers pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# Nominal seconds of one cycle per workload, (trace 0, trace 1), measured on a
# shared 2-vCPU x86 VM; they only set the number of cycles.
CYCLE_SECONDS = {
    "verify-presets": (21.0, 19.0),
    "family-search": (15.0, 13.0),
}
# A run stops starting jobs after RUN_LIMIT_S, so with the job timeout it
# ends within 180 s even on a machine far slower than the nominal one.
JOB_TIMEOUT_S = 30.0
RUN_LIMIT_S = 140.0
TAIL_BEYOND = 10
SETUP_PROBES = 9


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CYCLE_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


class Runner:
    """Runs jobs, judges every output, and keeps the timings."""

    def __init__(self, jobs, out_dir: Path):
        import harmarea.cli

        self.cli = harmarea.cli
        self.jobs = jobs
        self.out_dir = out_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.times: dict[tuple[str, str], list[float]] = {}

    def _argv(self, job, mode: str) -> tuple[list[str], Path]:
        out = self.out_dir / mode / job.name
        shutil.rmtree(out, ignore_errors=True)
        return [*job.argv, "--out", str(out)], out

    def child(self, argv: list[str]) -> tuple[float, int, str]:
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "harmarea", *argv],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=JOB_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, -1, ""
        return time.perf_counter() - start, proc.returncode, proc.stdout

    def in_process(self, argv: list[str]) -> tuple[float, int, str]:
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed job, not a failed benchmark
                traceback.print_exc(file=sys.__stderr__)
                rc = -1
        return time.perf_counter() - start, rc, stdout.getvalue()

    def run(self, job, mode: str, execute) -> None:
        if time.monotonic() - self.started > RUN_LIMIT_S:
            raise TimeoutError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        argv, out = self._argv(job, mode)
        seconds, rc, stdout = execute(argv)
        self.judge(job, mode, rc, stdout, out)
        self.times.setdefault((job.name, mode), []).append(seconds)

    def judge(self, job, mode: str, rc: int, stdout: str, out: Path) -> None:
        errors = []
        if rc != job.expect_rc:
            errors.append(f"exit code {rc}, expected {job.expect_rc}")
        files = {}
        for name in job.outputs:
            try:
                files[name] = (out / name).read_bytes()
            except FileNotFoundError:
                errors.append(f"missing report file {name}")
        if len(files) == len(job.outputs):
            errors.extend(job.check(stdout, files))
            digest = hashlib.sha256(
                b"".join(name.encode() + b"\0" + files[name] for name in sorted(files))
            ).hexdigest()
            first = self.digests.setdefault(job.name, digest)
            if digest != first:
                errors.append("report files differ from an earlier run of the same job")
            if job.same_as and self.digests.get(job.same_as) not in (None, digest):
                errors.append(f"report files differ from {job.same_as}")
        self.record(f"{job.name} [{mode}]", errors)

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for error in errors[:5]:
                print(f"FAIL {what}: {error}", file=sys.stderr)

    def pass_seconds(self, mode: str) -> float:
        """One pass over the job list: the sum of per-job medians."""
        return math.fsum(statistics.median(self.times[(job.name, mode)]) for job in self.jobs)

    def setup_probe(self) -> float:
        seconds, rc, stdout = self.child(["--help"])
        ok = rc == 0 and "usage: harmarea" in stdout
        self.record("setup --help", [] if ok else [f"exit code {rc}"])
        return seconds


def tail(samples: list[float]) -> tuple[float, int]:
    """Highest percentile (nearest rank) with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct / 100 * n)
        if sum(1 for x in ordered if x > ordered[rank - 1]) >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    return statistics.median(ordered), 50


def end_to_end(runner: Runner, cycles: int) -> dict[str, tuple[float, str]]:
    runner.setup_probe()  # warms the file cache and writes bytecode; not timed
    total = cycles * len(runner.jobs)
    probe_before = {k * total // SETUP_PROBES for k in range(SETUP_PROBES)}
    setup = []
    for cycle in range(cycles):
        for i, job in enumerate(runner.jobs):
            if cycle * len(runner.jobs) + i in probe_before:
                setup.append(runner.setup_probe())
            runner.run(job, "child", runner.child)
            runner.run(job, "inproc", runner.in_process)
    latencies = [t for job in runner.jobs for t in runner.times[(job.name, "child")]]
    tail_value, tail_pct = tail(latencies)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"job_tail_s is p{tail_pct} of {len(latencies)} child job runs")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (runner.pass_seconds("child"), "s"),
        "compute_s": (runner.pass_seconds("inproc"), "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_value, "s"),
        "peak_rss_mb": (peak, "MB"),
    }


def per_layer(runner: Runner, cycles: int) -> dict[str, tuple[float, str]]:
    import tracing

    tracer = tracing.Tracer()
    summaries: dict[str, list[dict[str, float]]] = {}

    def traced(job, argv):
        with tracer.installed(), tracer.job_scope(job.name):
            result = runner.in_process(argv)
        summaries.setdefault(job.name, []).append(tracing.summarize(tracer.take()))
        return result

    for _ in range(cycles):
        for job in runner.jobs:
            runner.run(job, "inproc", runner.in_process)
            runner.run(job, "traced", lambda argv, job=job: traced(job, argv))

    metrics: dict[str, tuple[float, str]] = {}
    for name in tracing.COUNTS:
        metrics[name] = (sum(summaries[job.name][0][name] for job in runner.jobs), "count")
    for job in runner.jobs:
        runs = summaries[job.name]
        if any(run[c] != runs[0][c] for run in runs for c in tracing.COUNTS):
            runner.failed += 1
            print(f"FAIL {job.name} [traced]: layer counts differ between cycles", file=sys.stderr)
    for name in tracing.SELF_TIMES:
        metrics[name] = (
            math.fsum(statistics.median(run[name] for run in summaries[job.name]) for job in runner.jobs),
            "s",
        )
    counts = {name: value for name, (value, _) in metrics.items()}
    metrics["search.feasible_ratio"] = (tracing.feasible_ratio(counts), "ratio")
    metrics["trace.overhead_s"] = (
        runner.pass_seconds("traced") - runner.pass_seconds("inproc"),
        "s",
    )
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    # SIGTERM unwinds like Ctrl-C: a running child is killed and waited for,
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if not (SRC / "harmarea" / "cli.py").is_file():
        print(f"error: the harmarea sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import inputs

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = inputs.build(args.workload, args.seed, work / "inputs")
        runner = Runner(jobs, work / "out")
        cycles = max(1, int(args.seconds // CYCLE_SECONDS[args.workload][args.trace]))
        print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs, {cycles} cycle(s)")
        measure = per_layer if args.trace else end_to_end
        try:
            metrics = measure(runner, cycles)
        except TimeoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.6g}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
