"""chronon-lab batch benchmark.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 40 --trace 0

Run it from anywhere: the program is imported from ``src/`` beside this
directory, and nothing is installed or built.  Without ``src/chronon_lab``
it exits 1 before measuring anything.

Load: one closed-loop client in one process, starting no thread of its own.
It makes whole passes over the workload's seeded job list, one job after
another, through ``chronon_lab.cli.run`` with stdout captured in memory:
at least ``MIN_PASSES[workload]`` passes, then more while another pass
fits in ``--seconds``.  A pass runs each job ``per_pass`` times (once,
or a few times for the few-ms job classes of ``ticks``).  One job of each
class runs first as a warm-up, checked but not timed.  BLAS threading is
left as the environment sets it (OPENBLAS_NUM_THREADS is not pinned, so a
later change to the program's thread policy shows) and the effective
thread count is recorded.

Every job's output is checked by ``oracle.py``, which never calls the
program; a repeat that prints exactly the output that passed before is
not parsed again.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones.  A job's latency is
the mean of its repeats, which are spread over the whole run (see
``end_to_end``).

    jobs_per_s      job runs that passed the check per wall-second of
                    timed job execution over every whole pass of the job
                    list (checks and set-up samples excluded), so
                    intermittent costs such as GC pauses count
    job_p50_ms      median job latency over the job list
    job_p90_ms      90th-percentile job latency (lists hold >= 100 jobs)
    cpu_ms_per_job  process CPU time per job, BLAS threads included,
                    mean of the same repeats, mean over the job list
    peak_rss_mb     peak resident memory of this fresh process; the
                    report records how far the checks raised it
    pass_ratio      jobs passed / jobs attempted, i.e. 1 - fail_ratio
    setup_s         median wall time of a fresh interpreter importing
                    chronon_lab.cli and building its parser, sampled
                    SETUP_REPEATS times between jobs over the run

With ``--trace 1`` untraced passes alternate with passes that have every
layer boundary wrapped (``tracing.py``); the metrics are the per-layer
ones, ``trace.overhead_pct`` and the import-time split of set-up.
Sample counts, run metadata, failures, per-job-class figures and spans go
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 9
# Whole passes a run makes at least, so that every job's mean rests on
# that many repeats; each is at most the fewest passes the workload makes
# in 40 s on a 2-core host at its slowest.
MIN_PASSES = {"spectral": 16, "scan": 10, "ticks": 12}
IMPORTTIME_REPEATS = 5
P90 = 90.0
FAILURES_KEPT = 20

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "cpu_ms_per_job": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "setup_s": "s",
}


@dataclass
class Timings:
    """Every timed repeat of every job in one phase of a run, by list index."""

    wall: list
    cpu: list
    passed: int = 0
    output_bytes: int = 0

    @classmethod
    def empty(cls, n: int) -> "Timings":
        return cls([[] for _ in range(n)], [[] for _ in range(n)])

    def add(self, i: int, wall: float, cpu: float, ok: bool, nbytes: int) -> None:
        self.wall[i].append(wall)
        self.cpu[i].append(cpu)
        self.passed += ok
        self.output_bytes += nbytes

    @property
    def executed(self) -> int:
        return sum(len(w) for w in self.wall)

    def mean_wall_ms(self) -> np.ndarray:
        """Each job's mean over its repeats, in ms."""
        return 1e3 * np.array([statistics.fmean(w) for w in self.wall])

    def mean_cpu_ms(self) -> np.ndarray:
        return 1e3 * np.array([statistics.fmean(c) for c in self.cpu])

    def jobs_per_s(self) -> float:
        """Job runs that passed per wall-second of timed job execution."""
        return self.passed / sum(sum(w) for w in self.wall)


class Client:
    """The single closed-loop client: runs jobs one after another."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.failure_examples: list = []
        self.job_labels: dict[int, str] = {}  # traced job id -> job class
        # Peak RSS (KB) after the program's part and after the check's part
        # of each class's first job, and how far checks raised the peak.
        self.rss_kb: dict[str, tuple] = {}
        self.check_raised_kb = 0
        # argv -> (exit code, output digest) of the output that passed the
        # check; a repeat that prints exactly that passes without a re-parse.
        self.passed_output: dict[tuple, tuple] = {}

    def run_job(self, job, tracer=None) -> tuple[float, float, bool, int]:
        """Run one job in process; (wall s, cpu s, passed check, output bytes)."""
        if tracer is not None:
            tracer.current_job = self.attempted
            self.job_labels[self.attempted] = job.label
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = self.cli.run(list(job.argv))
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
            except Exception as exc:  # a traceback is a failed job, not a crash
                code = f"raised {type(exc).__name__}: {exc}"
            t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.current_job = -1
        text = out.getvalue()
        digest = (code, hashlib.blake2b(text.encode()).digest())
        if self.passed_output.get(job.argv) == digest:
            reason = None  # the very output that passed the check before
        else:
            rss_program = _maxrss_kb()
            reason = oracle.check(job.argv, code, text, job.expect)
            rss_check = _maxrss_kb()
            self.check_raised_kb += rss_check - rss_program
            self.rss_kb.setdefault(job.label, (rss_program, rss_check))
            if reason is None:
                self.passed_output[job.argv] = digest
        if reason is not None and err.getvalue():
            reason += f" (stderr: {err.getvalue().strip()[:200]})"
        self.attempted += 1
        if reason is not None:
            key = f"{job.label}: {reason.split(':')[0]}"
            self.failures[key] = self.failures.get(key, 0) + 1
            if len(self.failure_examples) < FAILURES_KEPT:
                self.failure_examples.append({"label": job.label, "argv": job.argv, "reason": reason})
        return t1 - t0, c1 - c0, reason is None, len(text)

    def run_for(self, jobs, seconds: float, min_passes: int, between=None) -> Timings:
        """Whole passes over jobs: at least min_passes, then more while one
        more pass, at the mean pass time so far, ends within seconds.
        between() is called after each job, outside its timing."""
        timings = Timings.empty(len(jobs))
        start = time.perf_counter()
        passes = 0
        while True:
            elapsed = time.perf_counter() - start
            if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
                return timings
            for i in pass_order(jobs):
                timings.add(i, *self.run_job(jobs[i]))
                if between is not None:
                    between()
            passes += 1

    def run_passes(self, jobs, passes: int, tracer=None, timings=None) -> Timings:
        """Exactly passes whole passes over jobs, added to timings if given."""
        if timings is None:
            timings = Timings.empty(len(jobs))
        for _ in range(passes):
            for i in pass_order(jobs):
                timings.add(i, *self.run_job(jobs[i], tracer))
        return timings


def pass_order(jobs) -> list:
    """Job indices of one pass: every job once, then again in further
    rounds for the jobs whose per_pass asks for more, so the repeats of a
    cheap job are spread over the pass."""
    rounds = max(job.per_pass for job in jobs)
    return [i for r in range(rounds) for i, job in enumerate(jobs) if job.per_pass > r]


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- set-up measurements (fresh interpreters) ---


def _python(args: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=True, cwd=ROOT
    )


_IMPORT_CLI = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import chronon_lab.cli as cli; cli.build_parser()"
)


def measure_import_ms(repeats: int) -> tuple[float, float]:
    """Median (numpy, chronon_lab) import ms from ``python -X importtime``.

    numpy is imported first, so chronon_lab's cumulative time excludes it.
    """
    code = "import sys; sys.path.insert(0, sys.argv[1]); import numpy; import chronon_lab.cli"
    numpy_ms, own_ms = [], []
    _python(["-c", code, str(SRC)])
    for _ in range(repeats):
        err = _python(["-X", "importtime", "-c", code, str(SRC)]).stderr
        top = {}
        for line in err.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = (part.strip() for part in line[12:].split("|"))
            indent = len(line.rsplit("|", 1)[1]) - len(line.rsplit("|", 1)[1].lstrip())
            if indent == 1 and cumulative.isdigit():
                top[name] = int(cumulative) / 1e3
        numpy_ms.append(top.get("numpy", 0.0))
        own_ms.append(sum(v for k, v in top.items() if k.split(".")[0] == "chronon_lab"))
    return statistics.median(numpy_ms), statistics.median(own_ms)


# --- run metadata ---


def _blas_threads():
    """Effective OpenBLAS thread count of this process, if it can be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    """HEAD commit of the checkout, or None outside a git work tree.

    git is kept from looking for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def run_metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "clients": 1,
        "loop": "closed",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_effective": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "src_lines": _src_lines(),
    }


# --- the two kinds of run ---


def _label_medians(jobs, timings: Timings) -> dict:
    """Per job class: jobs, repeats and median of the jobs' mean ms."""
    by_label: dict[str, list] = {}
    for job, b, w in zip(jobs, timings.mean_wall_ms(), timings.wall):
        by_label.setdefault(job.label, []).append((b, len(w)))
    return {
        label: {
            "jobs": len(v),
            "repeats": sum(n for _, n in v),
            "mean_p50_ms": statistics.median(b for b, _ in v),
        }
        for label, v in sorted(by_label.items())
    }


class SetupSampler:
    """Spreads the set-up repeats over the run, one fresh interpreter
    every interval seconds between jobs, so their median does not rest on
    one moment of a host whose speed drifts."""

    def __init__(self, repeats: int, seconds: float):
        self.repeats = repeats
        self.interval = seconds / repeats
        self.times: list = []
        self.next_at = time.perf_counter()
        _python(["-c", _IMPORT_CLI, str(SRC)])  # compile the bytecode cache once

    def sample(self) -> None:
        t0 = time.perf_counter()
        _python(["-c", _IMPORT_CLI, str(SRC)])
        self.times.append(time.perf_counter() - t0)

    def between_jobs(self) -> None:
        if len(self.times) < self.repeats and time.perf_counter() >= self.next_at:
            self.sample()
            self.next_at = time.perf_counter() + self.interval

    def finish(self) -> list:
        while len(self.times) < self.repeats:
            self.sample()
        return self.times


def end_to_end(client: Client, jobs, seconds: float, min_passes: int):
    """Untraced run: the end-to-end metrics plus sample counts.

    A job's latency is the mean of its repeats, per_pass in each whole
    pass, spread over the whole run.  Other machines' load on the shared
    cores slows every job by up to 1.8x, in spells from tens of seconds to
    minutes.  On four ten-run sets of these job lists the fastest repeat
    flipped between calm and slow values whenever a spell outlasted a run,
    the median flipped as a spell covered more or less than half a run,
    and the mean, which moves in step with the slow share of a run, had
    the fewest spreads past the bounds.  A mean also counts intermittent
    costs such as GC pauses, and it does not fall as a job gets more
    repeats, so every whole pass counts.
    """
    client.run_passes(inputs.first_per_label(jobs, 1), 1)  # warm-up, checked
    setup = SetupSampler(SETUP_REPEATS, seconds)
    timings = client.run_for(jobs, seconds, min_passes, between=setup.between_jobs)
    setup_times = setup.finish()
    latency = timings.mean_wall_ms()
    passes = len(timings.wall[0]) // jobs[0].per_pass
    attempted = client.attempted
    failed = sum(client.failures.values())
    p90 = float(np.percentile(latency, P90))
    metrics = {
        "jobs_per_s": timings.jobs_per_s(),
        "job_p50_ms": float(np.percentile(latency, 50.0)),
        "job_p90_ms": p90,
        "cpu_ms_per_job": float(timings.mean_cpu_ms().mean()),
        "peak_rss_mb": _maxrss_kb() / 1024.0,
        "pass_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup_times),
    }
    per_job = f"n={len(jobs)} jobs, mean of {passes} passes x per_pass repeats each"
    samples = {
        "jobs_per_s": f"{timings.passed}/{timings.executed} job runs passed, "
        f"{passes} passes of {len(jobs)} jobs",
        "job_p50_ms": per_job,
        "job_p90_ms": f"{per_job}, {int((latency > p90).sum())} above",
        "cpu_ms_per_job": per_job,
        "peak_rss_mb": f"ru_maxrss of this process; checks raised it {client.check_raised_kb} KB",
        "pass_ratio": f"fail_ratio {failed / attempted:.6g} = {failed}/{attempted} attempted",
        "setup_s": f"median of {len(setup_times)} fresh interpreters spread over the run",
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    detail = {
        "labels": _label_medians(jobs, timings),
        "job_wall_ms": [[1e3 * x for x in w] for w in timings.wall],
        "setup_s_repeats": setup_times,
        "rss_kb_after_program_and_check": client.rss_kb,
        "check_raised_rss_kb": client.check_raised_kb,
    }
    return metrics, samples, detail


def per_layer(client: Client, jobs, seconds: float, package, spans_path: Path):
    """Traced run: per-layer metrics, tracing overhead and set-up split.

    Untraced and traced passes alternate until seconds have passed, so
    both see the same drift of the host's speed and the overhead compares
    like with like.
    """
    client.run_passes(inputs.first_per_label(jobs, 1), 1)  # warm-up, checked
    untraced, traced = Timings.empty(len(jobs)), Timings.empty(len(jobs))
    tracer = tracing.Tracer()
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        client.run_passes(jobs, 1, timings=untraced)
        installed = tracing.install(tracer, package)
        try:
            client.run_passes(jobs, 1, tracer, timings=traced)
        finally:
            installed.undo()
        passes += 1

    metrics = tracing.layer_metrics(tracer, traced.executed, traced.output_bytes)
    jps_untraced, jps_traced = untraced.jobs_per_s(), traced.jobs_per_s()
    metrics["trace.overhead_pct"] = (100.0 * (jps_untraced / jps_traced - 1.0), "%")
    numpy_ms, own_ms = measure_import_ms(IMPORTTIME_REPEATS)
    metrics["setup.numpy_import_ms"] = (numpy_ms, "ms")
    metrics["setup.chronon_lab_import_ms"] = (own_ms, "ms")

    np.savez_compressed(spans_path, **tracer.arrays())
    samples = {
        "traced_jobs": traced.executed,
        "traced_passes": passes,
        "spans": len(tracer.name_id),
        "jobs_per_s_untraced": jps_untraced,
        "jobs_per_s_traced": jps_traced,
    }
    detail = {
        "labels": _label_medians(jobs, traced),
        "eig_calls_per_job": tracing.eig_calls_per_label(tracer, client.job_labels),
    }
    return metrics, samples, detail


def import_program():
    """Import chronon_lab from this checkout's src/, or exit with an error."""
    if not (SRC / "chronon_lab" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'chronon_lab'} not found; run from a chronon-lab checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chronon_lab
    import chronon_lab.cli

    if Path(chronon_lab.__file__).resolve().parent != SRC / "chronon_lab":
        sys.exit(f"error: imported chronon_lab from {chronon_lab.__file__}, not {SRC}")
    return chronon_lab


def run(workload: str, seed: int, seconds: float, trace: int, select=None) -> dict:
    """One run; select, if given, narrows the job list (quick self-check)."""
    package = import_program()
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    meta = run_metadata(workload, seed, seconds, trace)
    client = Client(package.cli)
    with tempfile.TemporaryDirectory(prefix=f"inputs-{tag}-", dir=OUT) as workdir:
        jobs = inputs.build_jobs(workload, seed, workdir)
        if select is not None:
            jobs = select(jobs)
        if trace:
            metrics, samples, detail = per_layer(
                client, jobs, seconds, package, OUT / f"spans-{tag}.npz"
            )
        else:
            metrics, samples, detail = end_to_end(client, jobs, seconds, MIN_PASSES[workload])
    failed = sum(client.failures.values())
    result = {
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report = {
        "meta": meta,
        "result": result,
        "samples": samples,
        "failures": client.failures,
        "failure_examples": client.failure_examples,
        **detail,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    report = run(args.workload, args.seed, args.seconds, args.trace)
    meta = report["meta"]
    print(
        f"# {meta['workload']} seed={meta['seed']} trace={meta['trace']} "
        f"clients=1 closed-loop nproc={meta['nproc']} "
        f"OPENBLAS_NUM_THREADS={meta['OPENBLAS_NUM_THREADS']} "
        f"(effective {meta['blas_threads_effective']}) numpy={meta['numpy']} "
        f"python={meta['python']} commit={meta['git_commit']} src_lines={meta['src_lines']}"
    )
    samples = report["samples"]
    for name, m in report["result"]["metrics"].items():
        note = samples.get(name, "")
        print(f"{name:45s} {m['value']:14.6g} {m['unit']:8s} {note}")
    for key, n in report["failures"].items():
        print(f"FAILED x{n}: {key}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
