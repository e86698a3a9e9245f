"""Each work cap at its largest accepted input, in a fresh interpreter.

A row runs the CLI as ``python -m chronon_lab.cli`` does, stdout to a file,
and must exit 0 within its time limit, peak at <= 200 MiB RSS and pass its
output check; the measure and cq rows must also trace < 32 MiB.  The RSS
is the child's VmHWM: ``ru_maxrss``, of RUSAGE_SELF in the child or of
``os.wait4`` in the parent, starts from the peak of the test process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import encode_matrix

SRC = Path(__file__).resolve().parents[1] / "src"

# the CLI's main, traced when the first argument is "traced", then on
# stderr the VmHWM in KiB and tracemalloc's peak in bytes (0 untraced)
_CHILD = """import sys, tracemalloc
if sys.argv.pop(1) == "traced":
    tracemalloc.start()
from chronon_lab import cli
try:
    cli.main()
finally:
    with open("/proc/self/status") as status:
        hwm = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    print(*hwm, tracemalloc.get_traced_memory()[1], file=sys.stderr)
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("caps")
    # a at S = 1 and b at S = 1/2 tick every 1/4 and 1/2: 657,328 + 328,664 ticks
    (root / "flow.json").write_text(json.dumps({"T": 1.0, "horizon": 164332.0, "systems": [
        {"id": "a", "entropyNats": 1.0}, {"id": "b", "entropyNats": 0.5}]}))
    # 64 system and 64 apparatus vectors of dimension 64: d = 4096, where M
    # alone would take 256 MiB; xi has one term inside span{psi_I (x) A_I}
    # and one orthogonal to it, so P = 1/2
    rng = np.random.default_rng(3)
    u_s, u_a = (np.linalg.qr(rng.normal(size=(64, 64)))[0] for _ in range(2))
    (root / "basis.json").write_text(json.dumps({"kind": "correlation_basis",
        "system": [encode_matrix(c[:, None]) for c in u_s.T],
        "apparatus": [encode_matrix(c[:, None]) for c in u_a.T]}))
    xi = (np.kron(u_s[:, 0], u_a[:, 0]) + np.kron(u_s[:, 1], u_a[:, 2])) / np.sqrt(2)
    (root / "xi.json").write_text(json.dumps(
        {"kind": "state_vector", "matrix": encode_matrix(xi[:, None])}))
    # 1024 branches of 4 x 4: the embedded joint has the cap dimension 4096
    rng = np.random.default_rng(5)
    k = rng.normal(size=(1024, 4, 4)) + 1j * rng.normal(size=(1024, 4, 4))
    mats = k @ np.swapaxes(k, 1, 2).conj()
    mats /= np.trace(mats, axis1=1, axis2=2).real[:, None, None]
    p = rng.uniform(0.5, 1.0, size=1024)
    (root / "cq.json").write_text(json.dumps({"kind": "cq", "branches": [
        {"p": q, "matrix": encode_matrix(m)} for q, m in zip((p / p.sum()).tolist(), mats)]}))
    return root


def _count(out: Path, byte: bytes) -> int:
    with open(out, "rb") as fh:
        return sum(chunk.count(byte) for chunk in iter(lambda: fh.read(1 << 20), b""))


def _cq_ok(out: Path, max_trotter_distance=None) -> bool:
    r = json.loads(out.read_text())
    return (len(r["conditionalSpectrum"]) == 4096
            and abs(r["conditionalEntropy"] - r["branchConditional"]) <= 1e-8
            and (max_trotter_distance is None or r["trotter"]["distance"] < max_trotter_distance))


def _mlcheck_ok(out: Path, trials: int) -> bool:
    r = json.loads(out.read_text())
    return (r["trialsPerDim"], r["violations"]) == (trials, 0)


@pytest.mark.parametrize("argv, seconds, traced, check", [
    pytest.param("flow --config {d}/flow.json --format csv", 120, False,
                 lambda out: _count(out, b"\n") == 985_993, id="flow-csv"),
    # one "{" opens the report, one each tick record
    pytest.param("flow --config {d}/flow.json --format json", 120, False,
                 lambda out: _count(out, b"{") == 1 + 985_992, id="flow-json"),
    pytest.param("entropy --state {d}/xi.json --measure {d}/basis.json", 60, True,
                 lambda out: abs(float(out.read_text()) - 0.5) <= 1e-9, id="measure"),
    pytest.param("conditional --state {d}/cq.json", 60, True, _cq_ok, id="cq"),
    pytest.param("conditional --state {d}/cq.json --trotter-n 4", 60, True,
                 lambda out: _cq_ok(out, max_trotter_distance=1e-12), id="cq-trotter"),
    pytest.param("gaussian --grid 100000", 60, False,
                 lambda out: _count(out, b"\n") == 100_006, id="gaussian-grid"),
    # the dimension cap at two trials: 5000 trials at d = 64 take about 28 s
    # on a 2-core host, too long for tier-1
    pytest.param("mlcheck --dim 64 --trials 2", 60, False,
                 lambda out: _mlcheck_ok(out, 2), id="mlcheck-dim"),
    pytest.param("mlcheck --dims 2 --trials 5000", 60, False,
                 lambda out: _mlcheck_ok(out, 5000), id="mlcheck-trials"),
])
def test_cap_run_is_bounded(argv, seconds, traced, check, inputs, tmp_path):
    out = tmp_path / "out"
    with open(out, "wb") as stdout:
        done = subprocess.run(
            [sys.executable, "-c", _CHILD, "traced" if traced else "untraced",
             *(a.format(d=inputs) for a in argv.split())],
            stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=seconds,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert done.returncode == 0 and len(done.stderr.split()) == 2, done.stderr
    hwm_kib, traced_peak = map(int, done.stderr.split())
    assert hwm_kib / 1024 <= 200
    assert traced_peak < 32 * 2**20
    assert check(out)
