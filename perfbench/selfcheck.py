"""Quick self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload, runs the benchmark in this process on a tiny job list
(the first job of each job class) untraced and traced, and asserts:

- the result object, which run.py prints as its last stdout line, has
  exactly the keys correct, attempted, failed and metrics;
- it prints every metric BENCHMARK.json names for that mode, with the
  unit BENCHMARK.json gives, and no other;
- no job failed, so fail_ratio is 0 (pass_ratio is 1);
- the run metadata records seed, nproc, BLAS threads, versions, commit and
  src line count;
- traced, a conditional job on a full-rank 8x8 joint makes exactly 14
  eigh and 5 eigvalsh calls at d=64, and the ticks workload records some
  decompositions (its --dilation jobs make small ones) but none at
  d >= 16.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import inputs
import run as bench

SEED = 7
META_KEYS = {
    "seed",
    "nproc",
    "OPENBLAS_NUM_THREADS",
    "blas_threads_effective",
    "numpy",
    "python",
    "git_commit",
    "src_lines",
}


def check(workload: str, trace: int, spec: dict) -> list:
    report = bench.run(
        workload, SEED, 0, trace, select=lambda jobs: inputs.first_per_label(jobs, 1)
    )
    result = report["result"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"failures: {report['failures']}")
    if not trace and result["metrics"]["pass_ratio"]["value"] != 1.0:
        problems.append("pass_ratio != 1")
    missing = META_KEYS - set(report["meta"])
    if missing:
        problems.append(f"metadata lacks {sorted(missing)}")
    eig_calls = report.get("eig_calls_per_job", {})
    if trace and workload == "spectral":
        full_8x8 = {k: v for k, v in eig_calls.items() if k.startswith("conditional/8x8/full/")}
        if not full_8x8 or not all(full_8x8.values()):
            problems.append(f"no eigen calls recorded for conditional/8x8/full jobs: {full_8x8}")
        for label, calls in full_8x8.items():
            pair = (calls.get("eigh.d64"), calls.get("eigvalsh.d64"))
            if pair != (14.0, 5.0):
                problems.append(f"{label}: eigh, eigvalsh at d=64 = {pair}, not (14, 5)")
    if trace and workload == "ticks":
        if not any(eig_calls.values()):
            problems.append("no eigen calls recorded, not even by --dilation jobs")
        for label, calls in eig_calls.items():
            large = {k: v for k, v in calls.items() if int(k.rsplit(".d", 1)[1]) >= 16}
            if large:
                problems.append(f"{label}: decompositions at d >= 16: {large}")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check(workload, trace, spec)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
