"""One digest of every benchmark job's output, to show a change left them
byte-identical.

Builds the jobs of the spectral, scan and ticks workloads for seeds 1 and
2 with ``perfbench/inputs.build_jobs``, runs each once in this process
through ``chronon_lab.cli.run``, and prints one line: the job count, the
count of nonzero exits, and one sha256 over every job's argv (its input
directory masked), exit code, stdout and stderr, in job order.

    python3 tools/job_digest.py

Run it on two checkouts: equal digests mean equal outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import inputs  # noqa: E402  (perfbench/inputs.py)
from chronon_lab import cli  # noqa: E402

WORKLOADS = ("spectral", "scan", "ticks")
SEEDS = (1, 2)


def _run(argv: list) -> tuple[int, str, str]:
    """cli.run's exit code, stdout and stderr for one argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    digest = hashlib.sha256()
    jobs = nonzero = 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                for job in inputs.build_jobs(workload, seed, workdir):
                    code, out, err = _run(list(job.argv))
                    record = [[a.replace(workdir, "{workdir}") for a in job.argv],
                              code, out, err.replace(workdir, "{workdir}")]
                    digest.update(json.dumps(record).encode() + b"\n")
                    jobs += 1
                    nonzero += code != 0
    print(f"{jobs} jobs, {nonzero} nonzero, sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
