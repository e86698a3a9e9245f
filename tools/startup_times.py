"""Per-subcommand start-up cost of two checkouts, as a user pays it: each
run is a fresh ``python -m chronon_lab.cli ...`` process.

    python3 tools/startup_times.py CHECKOUT_A CHECKOUT_B

CHECKOUT_A and CHECKOUT_B are repository roots; each side imports the
program from its own ``src/``.  Both sides read the same committed inputs,
``tests/golden/inputs`` of the checkout holding this script.  For every
command the runs alternate between the sides, A then B on even rounds and
B then A on odd ones, so a drift of the host loads both sides alike.  Each
run's wall time covers the whole process: interpreter start, imports,
work and output.  Each side runs each command ``RUNS`` times.

The header line gives ``PYTHONDONTWRITEBYTECODE`` and whether each side's
``src/chronon_lab/__pycache__`` holds ``.pyc`` files before the first run:
with the variable set and no cache, every start compiles each module
again.  Then it prints one line per command: the median and interquartile
range of each side in ms and the ratio of the medians, B/A.  A command
whose exit code or stdout differs between the sides is marked
``OUTPUT DIFFERS``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUNS = 15
INPUTS = Path(__file__).resolve().parent.parent / "tests" / "golden" / "inputs"

COMMANDS = (
    ("--help",),
    ("lorentz", "--v", "0.5"),
    ("lorentz", "--v", "0.5", "--format", "csv"),
    ("simultaneity", "--theta1", "0", "--theta2", "1", "--entropy", "0.5"),
    ("flow", "--config", str(INPUTS / "flow.json"), "--ratio", "a", "b"),
    ("flow", "--config", str(INPUTS / "flow.json")),
    ("flow", "--config", str(INPUTS / "flow.json"), "--dilation", str(INPUTS / "cq.json")),
    ("gaussian", "--grid", "64"),
    ("entropy", "--state", str(INPUTS / "bell.json"), "--conditional"),
    ("conditional", "--state", str(INPUTS / "bell.json")),
    ("mlcheck", "--dims", "2,3", "--trials", "4"),
)


def _run(src: Path, argv: tuple) -> tuple[float, tuple]:
    """Wall seconds of one fresh CLI process on src, and its (exit, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "chronon_lab.cli", *argv],
                          env=env, capture_output=True)
    return time.perf_counter() - start, (done.returncode, done.stdout)


def _summary(seconds: list) -> tuple[float, float]:
    """Median and interquartile range, in ms."""
    q1, q2, q3 = statistics.quantiles(seconds, n=4)
    return q2 * 1e3, (q3 - q1) * 1e3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    args = parser.parse_args()
    srcs = []
    for checkout in (args.checkout_a, args.checkout_b):
        src = checkout.resolve() / "src"
        if not (src / "chronon_lab").is_dir():
            sys.exit(f"error: no src/chronon_lab under {checkout}")
        srcs.append(src)

    no_write = os.environ.get("PYTHONDONTWRITEBYTECODE", "")
    cached = ["yes" if any((src / "chronon_lab" / "__pycache__").glob("*.pyc")) else "no"
              for src in srcs]
    print(f"# {RUNS} alternating runs per side; PYTHONDONTWRITEBYTECODE={no_write!r}; "
          f"A = {srcs[0]} (.pyc cache: {cached[0]}), B = {srcs[1]} (.pyc cache: {cached[1]})")
    print(f"{'command':<50} {'A median':>9} {'A IQR':>7} {'B median':>9} {'B IQR':>7} {'B/A':>6}")
    for argv in COMMANDS:
        times = ([], [])
        outputs = [set(), set()]
        for i in range(RUNS):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                seconds, output = _run(srcs[side], argv)
                times[side].append(seconds)
                outputs[side].add(output)
        (a, a_iqr), (b, b_iqr) = map(_summary, times)
        label = " ".join(Path(x).name if os.sep in x else x for x in argv)
        flag = "" if outputs[0] == outputs[1] else "  OUTPUT DIFFERS"
        print(f"{label:<50} {a:9.1f} {a_iqr:7.1f} {b:9.1f} {b_iqr:7.1f} {b / a:6.2f}{flag}")


if __name__ == "__main__":
    main()
