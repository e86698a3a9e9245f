"""Paired benchmark of two checkouts, written to ``BENCH_<label>.json``.

    python3 tools/bench_pair.py CHECKOUT_A CHECKOUT_B --label LABEL \\
        [--workloads spectral,scan,ticks] [--pairs 10] [--seconds 12] [--first-seed 1]

CHECKOUT_A (the parent) and CHECKOUT_B (the change) are repository roots;
each side runs its own ``perfbench/run.py --trace 0`` in a fresh process,
so each measures the program and the benchmark of its own checkout.  For
every workload, pair i runs both sides on seed ``first_seed + i``: A then
B on even rounds and B then A on odd ones, so a drift of the host loads
both sides alike.  A run whose jobs fail their check stops the tool.

The file is written at the root of the checkout holding this script.  For
each workload and end-to-end metric of that checkout's ``BENCHMARK.json``
it holds each side's median and quartiles over the pairs, the B/A ratio of
the medians, the number of pairs in which B was better and whether the
gap between the medians exceeds A's interquartile range.  It also holds
every run's metrics, and the host's ``nproc``, Python and numpy versions,
``PYTHONDONTWRITEBYTECODE`` and each side's effective BLAS threads, commit
and ``src/`` line count, as each run reported them.  Each side also
records, from before its first run, whether its work tree differed from
that commit (``dirty``: ``git status --porcelain`` prints anything) and
the sha256 of ``git diff HEAD`` (``diff_sha256``), so a side run on
uncommitted code says so; both are None outside a git work tree.  A
single pair gives the median as both quartiles.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("A", "B")


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The result and run metadata of one untraced benchmark run."""
    argv = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"error: {' '.join(argv)}: {result['failed']} jobs failed their check")
    report = checkout / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    return result, json.loads(report.read_text())["meta"]


def _tree_state(checkout: Path) -> dict:
    """Whether checkout's work tree differs from its HEAD, and the sha256
    of that difference."""
    git = ["git", "-C", str(checkout)]
    status = subprocess.run([*git, "status", "--porcelain"], capture_output=True)
    diff = subprocess.run([*git, "diff", "HEAD"], capture_output=True)
    if status.returncode or diff.returncode:
        return {"dirty": None, "diff_sha256": None}
    return {"dirty": bool(status.stdout), "diff_sha256": hashlib.sha256(diff.stdout).hexdigest()}


def _spread(values: list) -> dict:
    """Median and quartiles."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _compare(metric: dict, runs: dict) -> dict:
    """Both sides' spread of one metric, the B/A ratio of the medians and
    the pairs B won."""
    name, lower = metric["name"], metric["better"] == "lower"
    values = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
    spread = {side: _spread(values[side]) for side in SIDES}
    a, b = spread["A"]["median"], spread["B"]["median"]
    won = sum((vb < va) if lower else (vb > va) for va, vb in zip(values["A"], values["B"]))
    return {"unit": metric["unit"], "better": metric["better"], **spread,
            "ratio_b_over_a": b / a if a else None, "b_won": won, "pairs": len(values["A"]),
            "gap_exceeds_a_iqr": abs(b - a) > spread["A"]["q3"] - spread["A"]["q1"]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workloads", default="spectral,scan,ticks")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    checkouts = dict(zip(SIDES, (args.checkout_a.resolve(), args.checkout_b.resolve())))
    for checkout in checkouts.values():
        if not (checkout / "perfbench" / "run.py").is_file():
            sys.exit(f"error: no perfbench/run.py under {checkout}")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    sides = {side: _tree_state(checkouts[side]) for side in SIDES}
    host = {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}
    workloads = {}
    for workload in args.workloads.split(","):
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            seed = args.first_seed + i
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result, meta = _run(checkouts[side], workload, seed, args.seconds)
                runs[side].append({"seed": seed, "metrics": {
                    name: m["value"] for name, m in result["metrics"].items()}})
                host.update({k: meta[k] for k in ("nproc", "cpus_allowed", "python", "numpy")})
                sides[side].update({k: meta[k] for k in (
                    "git_commit", "src_lines", "OPENBLAS_NUM_THREADS", "blas_threads_effective")})
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in runs[side][-1]["metrics"].items()),
                      flush=True)
        workloads[workload] = {
            "metrics": {m["name"]: _compare(m, runs) for m in metrics},
            "runs": runs,
        }

    bench = {
        "label": args.label,
        "command": "perfbench/run.py --trace 0, one fresh process per run",
        "order": "pair i on seed first_seed + i; A first on even i, B first on odd i",
        "seconds": args.seconds,
        "pairs": args.pairs,
        "first_seed": args.first_seed,
        "host": host,
        "sides": sides,
        "workloads": workloads,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    for workload, entry in workloads.items():
        for name, m in entry["metrics"].items():
            ratio = "-" if m["ratio_b_over_a"] is None else f"{m['ratio_b_over_a']:.3f}"
            print(f"{workload:9s} {name:15s} A {m['A']['median']:10.4g} B {m['B']['median']:10.4g}"
                  f"  B/A {ratio:>6s}  B won {m['b_won']}/{m['pairs']}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
