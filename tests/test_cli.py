"""Command-line surface tests: each subcommand, exit codes, determinism,
and the operation-coverage audit."""

import ast
import contextlib
import ctypes
import functools
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chronon_lab
from chronon_lab import cli, entropy, errors, linalg
from chronon_lab.entropy import generalized_conditional
from chronon_lab.errors import InvalidState, NumericalError
from chronon_lab.flow import SystemSpec
from chronon_lab.speed_limits import time_quantum
from chronon_lab.states import BipartiteState, ClassicalQuantumState, DensityMatrix, StateVector

from conftest import bell_state, cq_embed, encode_matrix, random_density, save_state
from test_flow import reference_ticks
from test_golden import CASES, FORMATS, GOLDEN, INPUTS, _in, render_case

LN2 = math.log(2.0)

# Every mode that reads a state file, with the file's path as {f}.
_STATE_MODES = {
    "entropy": ["entropy", "--state", "{f}"],
    "entropy-conditional": ["entropy", "--state", "{f}", "--conditional"],
    "entropy-reduce": ["entropy", "--state", "{f}", "--reduce", "2", "2"],
    "entropy-measure-state": ["entropy", "--state", "{f}", "--measure", _in("basis.json")],
    "entropy-measure-basis": ["entropy", "--state", _in("xi.json"), "--measure", "{f}"],
    "conditional": ["conditional", "--state", "{f}"],
    "flow-dilation": ["flow", "--config", _in("flow.json"), "--dilation", "{f}"],
}
# the modes that read a cq file as one
_CQ_MODES = ("conditional", "entropy", "entropy-conditional", "flow-dilation")


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    save_state(str(path), bell_state())
    return str(path)


@pytest.fixture
def cq_file(tmp_path):
    cq = ClassicalQuantumState(
        ((0.5, DensityMatrix(np.diag([1.0, 0.0]).astype(complex))),
         (0.5, DensityMatrix(np.eye(2, dtype=complex) / 2)))
    )
    path = tmp_path / "cq.json"
    save_state(str(path), cq)
    return str(path)


@pytest.fixture
def flow_config(tmp_path):
    cfg = {
        "systems": [
            {"id": "a", "entropyNats": LN2},
            {"id": "b", "entropyNats": 2 * LN2},
        ],
        "T": 1.0,
        "horizon": 1.1,
    }
    path = tmp_path / "flow.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run_capture(args, capsys):
    code = cli.run(args)
    return code, capsys.readouterr().out


def _eig_calls(monkeypatch, fail_at=None) -> list:
    """Names of the np.linalg.eigh / eigvalsh calls made from now on, in
    order; the call with index fail_at raises LinAlgError instead."""
    calls = []

    def counted(name, solve):
        def call(a):
            calls.append(name)
            if len(calls) - 1 == fail_at:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(a)

        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return calls


class TestEntropyCommand:
    def test_bell_conditional(self, bell_file, capsys):
        code, out = run_capture(["entropy", "--state", bell_file, "--conditional"], capsys)
        assert code == 0
        assert float(out.strip()) == pytest.approx(-LN2, abs=1e-9)

    def test_density_von_neumann(self, tmp_path, capsys):
        path = tmp_path / "rho.json"
        save_state(str(path), DensityMatrix(np.eye(2, dtype=complex) / 2))
        code, out = run_capture(["entropy", "--state", str(path)], capsys)
        assert code == 0
        assert float(out.strip()) == pytest.approx(LN2, abs=1e-9)

    def test_cq_conditional(self, cq_file, capsys):
        code, out = run_capture(["entropy", "--state", cq_file, "--conditional"], capsys)
        assert code == 0
        assert float(out.strip()) == pytest.approx(0.5 * LN2, abs=1e-9)

    def test_reduce_mode(self, tmp_path, capsys):
        xi = (np.kron([1, 0], [1, 0]) + np.kron([0, 1], [0, 1])).astype(complex)
        xi /= np.linalg.norm(xi)
        path = tmp_path / "xi.json"
        save_state(str(path), StateVector(xi))
        code, out = run_capture(
            ["entropy", "--state", str(path), "--reduce", "2", "2"], capsys
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(LN2, abs=1e-9)

    def test_measure_mode(self, tmp_path, capsys):
        xi = np.kron([1, 0], [1, 0]).astype(complex)
        state_path = tmp_path / "xi.json"
        save_state(str(state_path), StateVector(xi))
        e0 = {"rows": 2, "cols": 1, "data": [[1.0, 0.0], [0.0, 0.0]]}
        e1 = {"rows": 2, "cols": 1, "data": [[0.0, 0.0], [1.0, 0.0]]}
        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(
            {"kind": "correlation_basis", "system": [e0, e1], "apparatus": [e0, e1]}
        ))
        code, out = run_capture(
            ["entropy", "--state", str(state_path), "--measure", str(basis_path)], capsys
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "dim_s, dim_a, size, message",
        [
            (4096, 4096, 1, "tensor product dimension 16777216 is above the cap of 4096"),
            (64, 64, 64, "operator dim 4096 != state dim 4"),
        ],
    )
    def test_measure_dimensions_checked_before_the_operator(self, dim_s, dim_a, size, message,
                                                             tmp_path, capsys):
        # the 4096^2 operator alone takes 256 MiB; nothing near it may be
        # allocated before the dimensions are found wrong
        def vectors(dim):
            return [{"rows": dim, "cols": 1,
                     "data": [[float(i == k), 0.0] for i in range(dim)]} for k in range(size)]

        basis_path = tmp_path / "basis.json"
        basis_path.write_text(json.dumps(
            {"kind": "correlation_basis", "system": vectors(dim_s), "apparatus": vectors(dim_a)}
        ))
        tracemalloc.start()
        try:
            code = cli.run(["entropy", "--state", _in("xi.json"), "--measure", str(basis_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: {message}\n"
        assert peak < 32 * 2**20

    def test_json_format(self, bell_file, capsys):
        code, out = run_capture(
            ["entropy", "--state", bell_file, "--conditional", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(-LN2, abs=1e-9)

    def test_missing_file_exit_one(self, capsys):
        code, _ = run_capture(["entropy", "--state", "/nonexistent.json"], capsys)
        assert code == 1


class TestConditionalCommand:
    def test_bell_report(self, bell_file, capsys):
        code, out = run_capture(["conditional", "--state", bell_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["conditionalEntropy"] == pytest.approx(-LN2, abs=1e-9)
        assert report["antiqubitVelocity"] == pytest.approx(0.0, abs=1e-9)
        assert max(report["conditionalSpectrum"]) == pytest.approx(2.0, abs=1e-9)

    def test_cq_cross_check(self, cq_file, capsys):
        code, out = run_capture(["conditional", "--state", cq_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["conditionalEntropy"] == pytest.approx(report["branchConditional"], abs=1e-8)

    def test_trotter_distance(self, cq_file, capsys):
        code, out = run_capture(
            ["conditional", "--state", cq_file, "--trotter-n", "64", "--eps", "1e-8"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["trotter"]["n"] == 64
        assert report["trotter"]["distance"] < 1e-3

    @pytest.mark.parametrize("kind", ["cq", "bipartite"])
    @pytest.mark.parametrize("n", [pytest.param(10**19, id="1e19"),
                                   pytest.param(10**400, id="1e400")])
    def test_huge_trotter_n_raises_nothing(self, kind, n, tmp_path, capsys):
        # at n = 1e19 the power of each product would leave the float range;
        # past 1.8e308, n itself would.  Both routes reject n above the cap
        # with one error line, before any product, warning or traceback
        if kind == "cq":
            path = _in("cq.json")
        else:
            path = tmp_path / "joint.json"
            joint = random_density(4, np.random.default_rng(0))
            save_state(path, BipartiteState(joint=joint, dim_a=2, dim_b=2))
        code = cli.run(["conditional", "--state", str(path), "--trotter-n", str(n),
                        "--eps", "0.5"])
        assert (code, *capsys.readouterr()) == (
            1, "", f"error: Trotter n {n} is above the cap of {entropy.MAX_TROTTER_N}\n")

    def test_trotter_cap_checked_before_the_file(self, tmp_path, monkeypatch, capsys):
        # n is judged with the other flags: above the cap, the cap line
        # comes before the missing file and no eigensolver runs; at the
        # cap, both routes report a finite distance
        cap = entropy.MAX_TROTTER_N
        calls = _eig_calls(monkeypatch)
        code = cli.run(["conditional", "--state", str(tmp_path / "missing.json"),
                        "--trotter-n", str(cap + 1)])
        assert (code, *capsys.readouterr()) == (
            1, "", f"error: Trotter n {cap + 1} is above the cap of {cap}\n")
        assert calls == []
        for name in ("cq.json", "bell.json"):
            argv = ["conditional", "--state", _in(name), "--trotter-n", str(cap), "--eps", "1e-6"]
            code, out = run_capture(argv, capsys)
            assert code == 0 and math.isfinite(json.loads(out)["trotter"]["distance"]), name

    def test_unregularized_singular_exit_two(self, bell_file, capsys):
        code, _ = run_capture(
            ["conditional", "--state", bell_file, "--trotter-n", "8"], capsys
        )
        assert code == 2

    def test_dual_path_disagreement_exit_two(self, bell_file, monkeypatch, capsys):
        # skew S(joint) alone, so S(joint) - S(B) no longer matches -tr(rho log rho_{A|B})
        exact = entropy.von_neumann

        def skewed(w):
            s = exact(w)
            return s + 1e-6 if len(w) == 4 else s

        monkeypatch.setattr(entropy, "von_neumann", skewed)
        with pytest.raises(NumericalError, match="conditional-entropy paths disagree"):
            generalized_conditional(bell_state())
        code = cli.run(["conditional", "--state", bell_file])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: conditional-entropy paths disagree")

    @staticmethod
    def _faint_weight_file(tmp_path) -> str:
        # a weight eps on |0>|1> above the support cutoff relative to the
        # joint's largest eigenvalue 1/8, but below the cutoff relative to
        # rho_B = diag(1 - eps, eps)'s own largest eigenvalue
        eps = 5e-13
        e0, e1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        first = np.diag([1.0] + [0.0] * 7)
        joint = (1 - eps) * np.kron(np.eye(8) / 8, e0) + eps * np.kron(first, e1)
        path = tmp_path / "faint.json"
        save_state(str(path), BipartiteState(DensityMatrix(joint), dim_a=8, dim_b=2))
        return str(path)

    @pytest.mark.parametrize("argv", [["conditional"], ["entropy", "--conditional"]])
    def test_faint_weight_kept_in_both_supports(self, argv, tmp_path, capsys):
        code, out = run_capture(argv + ["--state", self._faint_weight_file(tmp_path),
                                        "--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        value = report.get("conditionalEntropy", report.get("value"))
        assert value == pytest.approx(math.log(8.0), abs=1e-9)

    @pytest.mark.parametrize("argv", [["conditional"], ["entropy", "--conditional"]])
    def test_support_leak_exit_two(self, argv, tmp_path, monkeypatch, capsys):
        # cut rho_B against its own largest eigenvalue, not the joint's, so
        # the joint's |0>|1> direction leaks out of id (x) supp(rho_B)
        own_scale = linalg.support_log
        monkeypatch.setattr(linalg, "support_log", lambda rho, scale=None: own_scale(rho))
        code = cli.run(argv + ["--state", self._faint_weight_file(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: joint support leaks out of id (x) supp(rho_B) by 1.000e+00\n"

    @staticmethod
    def _diagonal_entries(values, planted=None) -> list:
        n = len(values)
        entries = [[values[i] if i == j else 0.0, 0.0] for i in range(n) for j in range(n)]
        for at, entry in (planted or {}).items():
            entries[at] = entry
        return entries

    @pytest.mark.parametrize("argv", [["conditional"], ["entropy", "--conditional"]])
    @pytest.mark.parametrize(
        "rows, cols, values, planted, message",
        [
            pytest.param(4, 4, [0.25] * 4, {1: [math.nan, 0.0]},
                         "matrix contains NaN or Inf entries", id="nan"),
            pytest.param(4, 4, [0.25] * 4, {0: [math.inf, 0.0]},
                         "matrix contains NaN or Inf entries", id="infinity"),
            pytest.param(4, 2, [0.25] * 4, None, "matrix is 4x2", id="non-square"),
            pytest.param(4, 4, [0.25] * 4, {1: [0.1, 0.0]},
                         "density matrix not Hermitian (dev 1.414e-01)", id="non-hermitian"),
            pytest.param(4, 4, [0.5] * 4, None, "trace 2.0 != 1", id="trace-two"),
            pytest.param(4, 4, [1.5, -0.5, 0.0, 0.0], None,
                         "negative eigenvalue -5.000e-01", id="negative-eigenvalue"),
        ],
    )
    def test_density_invariant_exit_one(
        self, argv, rows, cols, values, planted, message, tmp_path, capsys
    ):
        # every invariant is checked where the joint becomes a DensityMatrix
        entries = self._diagonal_entries(values, planted)[: rows * cols]
        path = tmp_path / "joint.json"
        path.write_text(json.dumps({"kind": "bipartite", "dimA": 2, "dimB": 2, "matrix": {
            "rows": rows, "cols": cols, "data": entries}}))
        code = cli.run(argv + ["--state", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, counts",
        [
            pytest.param(["conditional", "--state", _in("bell.json")], (3, 3), id="conditional-bell"),
            pytest.param(["conditional", "--state", _in("cq.json")], (0, 2), id="conditional-cq"),
            pytest.param(["entropy", "--conditional", "--state", _in("bell.json")], (3, 2),
                         id="entropy-bell"),
            pytest.param(["entropy", "--conditional", "--state", _in("cq.json")], (0, 2),
                         id="entropy-cq"),
            pytest.param(CASES["conditional_trotter"], (1, 2), id="conditional-trotter"),
        ],
    )
    def test_eigendecompositions_per_job(self, argv, counts, monkeypatch, capsys):
        # (eigh, eigvalsh) calls.  On bell: the joint's and rho_B's
        # validation (eigvalsh) and supports (eigh), the compressed exponent
        # (eigh) and the conditional spectrum (eigvalsh).  cq validates its
        # two branches and reads everything else off those spectra, block by
        # block; its Trotter product adds one stacked eigh of the branches.
        calls = _eig_calls(monkeypatch)
        code = cli.run(argv)
        assert code == 0, capsys.readouterr().err
        assert (calls.count("eigh"), calls.count("eigvalsh")) == counts

    @pytest.mark.parametrize(
        "command, fail_at",
        [("conditional", n) for n in range(6)] + [("entropy", 0)],
    )
    def test_solver_failure_exit_two(self, command, fail_at, monkeypatch, capsys):
        # every eigensolver call, whichever layer makes it, maps a LAPACK
        # failure to exit 2
        calls = _eig_calls(monkeypatch, fail_at=fail_at)
        code = cli.run([command, "--state", _in("bell.json")])
        assert len(calls) == fail_at + 1
        assert code == 2
        assert capsys.readouterr().err == "error: eigensolver failed: Eigenvalues did not converge\n"

    def test_dimension_cap_applies_to_cq_embedding(self, monkeypatch, capsys):
        # the cq golden input embeds to a joint of dimension 4
        monkeypatch.setattr(linalg, "MAX_DIM", 3)
        code = cli.run(["conditional", "--state", str(INPUTS / "cq.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "tensor product dimension 4 is above the cap of 3" in err

    @pytest.mark.parametrize("mode", _CQ_MODES)
    def test_cq_cap_checked_before_any_branch(self, mode, tmp_path, monkeypatch, capsys):
        # 4097 branches of 1 x 1 embed one dimension above the cap: every
        # reader rejects the file before a branch is decomposed
        one = {"p": 1 / 4097, "matrix": encode_matrix(1.0)}
        path = tmp_path / "cq.json"
        path.write_text(json.dumps({"kind": "cq", "branches": [one] * 4097}))
        calls = _eig_calls(monkeypatch)
        code = cli.run([a.format(f=path) for a in _STATE_MODES[mode]])
        assert (code, *capsys.readouterr()) == (
            1, "", "error: tensor product dimension 4097 is above the cap of 4096\n")
        assert calls == []

    @pytest.mark.parametrize(
        "branches, readers, code, message, embedded",
        [
            # each branch has trace 1 + 9e-11 and the weights sum to 1 + 9e-11,
            # both inside 1e-10; the embedded joint's trace is not
            pytest.param([(0.5 + 4.5e-11, [0.5 + 4.5e-11] * 2)] * 2,
                         [_STATE_MODES[mode] for mode in _CQ_MODES], 1,
                         "trace 1.00000000018 != 1", None, id="joint-trace"),
            # the cq type names the weight where the joint sees an eigenvalue
            pytest.param([(1 + 1e-11, [0.5, 0.5]), (-1e-11, [1.0, 0.0])],
                         [_STATE_MODES[mode] for mode in _CQ_MODES], 1,
                         "negative branch probability -1e-11",
                         "negative eigenvalue -1.000e-11", id="negative-weight"),
            # p_1 (1 + 2^-43) is above the cutoff 1e-12 * 1.0 and rho_B's
            # p_1 tr Psi_1 = 1e-12 is not, so the whole block leaks
            pytest.param([(1.0, [1.0, 0.0]), (1e-12, [1 + 2.0**-43, -(2.0**-43)])],
                         [_STATE_MODES["conditional"]], 2,
                         "joint support leaks out of id (x) supp(rho_B) by 1.000e+00", None,
                         id="support-leak"),
            pytest.param([(0.5, [1.0, 0.0]), (0.5, [0.25, 0.75])],
                         [_STATE_MODES["conditional"] + ["--trotter-n", "4"]], 2,
                         "rank-deficient state; pass eps > 0 to regularize before the product",
                         None, id="rank-deficient-trotter"),
        ],
    )
    def test_cq_rejections_of_the_embedded_joint(self, branches, readers, code, message,
                                                  embedded, tmp_path, capsys):
        # every reader given rejects what the embedded joint rejected,
        # with the same exit code and error line; the reference embedding
        # (cq_embed, then the bipartite pipeline) raises the same text, or
        # the text embedded where it differs.  The file is written
        # directly: the joint-trace one is no valid cq state
        path = tmp_path / "cq.json"
        path.write_text(json.dumps({"kind": "cq", "branches": [
            {"p": p, "matrix": encode_matrix(np.diag(w))} for p, w in branches]}))
        for argv in readers:
            exit_code = cli.run([a.format(f=path) for a in argv])
            assert (exit_code, *capsys.readouterr()) == (code, "", f"error: {message}\n"), argv
        branch_states = [(p, DensityMatrix(np.diag(w).astype(complex))) for p, w in branches]
        with pytest.raises((InvalidState, NumericalError)) as raised:
            bi = cq_embed(SimpleNamespace(branches=branch_states))
            entropy.conditional_state(bi)
            entropy.trotter_conditional_density(bi, 4)
        assert str(raised.value) == (embedded or message)


class TestMalformedStateFiles:
    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"kind": "density"}, "'matrix'"),
            ([1, 2, 3], "JSON object"),
            ({"kind": "bipartite", "dimB": 2,
              "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}, "'dimA'"),
            ({"kind": "correlation_basis"}, "'system'"),
            ({"kind": "density", "matrix": {"rows": 1, "cols": 1, "data": 5}}, "'matrix'"),
            pytest.param('{"kind": "density", "matrix": {"rows": 1e400, "cols": 1, "data": []}}',
                         "'matrix'", id="rows-overflow"),
            pytest.param('{"kind": "bipartite", "dimA": 1e400, "dimB": 2, "matrix": '
                         '{"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}',
                         "'dimA'", id="dimA-overflow"),
            pytest.param('{"kind": "density", "matrix": {"rows": 1, "cols": 1, "data": [[1%s, 0]]}}'
                         % ("0" * 400), "'matrix'", id="entry-overflow"),
            pytest.param("[" * 100_000, "invalid JSON", id="deep-nesting"),
            # finite entries whose norms or sums leave the float range
            pytest.param({"kind": "density", "matrix": {"rows": 2, "cols": 2, "data": [
                             [0.5, 0], [0, 1e200], [0, 1e200], [0.5, 0]]}},
                         "density matrix not Hermitian (dev inf)", id="entry-huge-anti-hermitian"),
            pytest.param({"kind": "density", "matrix": {"rows": 2, "cols": 2, "data": [
                             [0.5, 0], [1e308, 0], [1e308, 0], [0.5, 0]]}},
                         "negative eigenvalue -1.000e+308", id="entry-huge-off-diagonal"),
            pytest.param({"kind": "state_vector", "matrix": {"rows": 2, "cols": 1, "data": [
                             [1e200, 0], [0, 0]]}},
                         "state vector norm inf != 1", id="entry-huge-amplitude"),
            pytest.param({"kind": "cq", "branches": [
                             {"p": 1e308, "matrix": encode_matrix(1.0)}] * 2},
                         "branch probabilities sum to inf", id="p-huge"),
            # sizes are integers: a bool or a fraction is not truncated
            pytest.param({"kind": "bipartite", "dimA": 1.5, "dimB": 1,
                          "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}},
                         "field 'dimA' is malformed: expected an integer, got 1.5",
                         id="dimA-fraction"),
            pytest.param({"kind": "bipartite", "dimA": 1, "dimB": True,
                          "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}},
                         "field 'dimB' is malformed: expected an integer, got True",
                         id="dimB-bool"),
            pytest.param({"kind": "density", "matrix": {"rows": 1, "cols": True,
                                                        "data": [[1.0, 0.0]]}},
                         "field 'cols' is malformed: expected an integer, got True",
                         id="cols-bool"),
            pytest.param({"kind": "density", "matrix": {"rows": 1.5, "cols": 1,
                                                        "data": [[1.0, 0.0]]}},
                         "field 'rows' is malformed: expected an integer, got 1.5",
                         id="rows-fraction"),
            # a branch weight is a number: a numeric string or a bool is not converted
            pytest.param({"kind": "cq", "branches": [
                             {"p": "0.5", "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}},
                             {"p": 0.5, "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}]},
                         "field 'p' is malformed: expected a number, got '0.5'",
                         id="p-string"),
            pytest.param({"kind": "cq", "branches": [
                             {"p": True, "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}]},
                         "field 'p' is malformed: expected a number, got True",
                         id="p-bool"),
            # a non-finite weight is named, not reported by the mixture it spoils
            pytest.param('{"kind": "cq", "branches": ['
                         '{"p": NaN, "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}, '
                         '{"p": 1.0, "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}}]}',
                         "branch probability must be finite, got nan", id="p-nan"),
            # a cq state has one or more branches of one dimension, none of negative weight
            pytest.param({"kind": "cq", "branches": []},
                         "classical-quantum state needs at least one branch", id="cq-empty"),
            pytest.param({"kind": "cq", "branches": [
                             {"p": 0.5, "matrix": encode_matrix(np.eye(2) / 2)},
                             {"p": 0.5, "matrix": encode_matrix(np.eye(3) / 3)}]},
                         "branch dimensions differ: [2, 3]", id="cq-mixed-dimensions"),
            pytest.param({"kind": "cq", "branches": [
                             {"p": 1 + 1e-9, "matrix": encode_matrix(1.0)},
                             {"p": -1e-9, "matrix": encode_matrix(1.0)}]},
                         "negative branch probability -1e-09", id="cq-negative-p"),
            # a correlation basis has one or more vectors per side, of one dimension
            pytest.param({"kind": "correlation_basis", "system": [], "apparatus": []},
                         "empty correlation basis", id="basis-empty"),
            pytest.param({"kind": "correlation_basis",
                          "system": [encode_matrix([[1.0], [0.0]]),
                                     encode_matrix([[0.0], [1.0], [0.0]])],
                          "apparatus": [encode_matrix([[1.0], [0.0]]),
                                        encode_matrix([[0.0], [1.0]])]},
                         "system basis vectors have mixed dimensions",
                         id="basis-mixed-dimensions"),
            # a matrix entry is a [re, im] pair of numbers, nothing converted
            pytest.param({"kind": "density", "matrix": {"rows": 1, "cols": 1,
                                                        "data": [[True, False]]}},
                         "malformed matrix object: entries must be numbers, got bool",
                         id="entry-bool"),
            pytest.param({"kind": "density", "matrix": {"rows": 1, "cols": 1,
                                                        "data": [["1", 0]]}},
                         "malformed matrix object: entries must be numbers, got str",
                         id="entry-string"),
            pytest.param({"kind": "density", "matrix": {"rows": 1, "cols": 1,
                                                        "data": [[None, 0]]}},
                         "malformed matrix object: entries must be numbers, got NoneType",
                         id="entry-null"),
            pytest.param({"kind": "density", "matrix": {"rows": 1, "cols": 1,
                                                        "data": [[1.0]]}},
                         "malformed matrix object: each entry must be a [re, im] pair",
                         id="entry-single"),
            pytest.param({"kind": "density", "matrix": {"rows": 1, "cols": 1,
                                                        "data": [[1.0, 0.0, 0.0]]}},
                         "malformed matrix object: each entry must be a [re, im] pair",
                         id="entry-triple"),
            pytest.param({"kind": "density", "matrix": {"rows": 2, "cols": 2,
                                                        "data": [[1.0, 0.0]]}},
                         "matrix data length 1 != rows*cols = 4", id="data-length"),
            pytest.param({"kind": "state_vector", "matrix": {"rows": 2, "cols": 1, "data": [
                             [math.nan, 0.0], [1.0, 0.0]]}},
                         "amplitudes contain NaN or Inf", id="amplitude-nan"),
            # the product of two negative factors is the joint's dimension
            pytest.param({"kind": "bipartite", "dimA": -2, "dimB": -2,
                          "matrix": encode_matrix(np.eye(4) / 4)},
                         "factor dimensions must be positive", id="bipartite-negative-dims"),
            pytest.param({"kind": "correlation_basis",
                          "system": [encode_matrix([[1.0], [0.0]]),
                                     encode_matrix([[0.0], [1.0]])],
                          "apparatus": [encode_matrix([[1.0], [0.0]])]},
                         "2 system vectors vs 1 apparatus vectors", id="basis-unpaired"),
        ],
    )
    def test_exit_one_naming_the_field(self, payload, field, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        code = cli.run(["entropy", "--state", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err

    @pytest.mark.parametrize(
        "payload, message",
        [
            pytest.param({"kind": "density",
                          "matrix": encode_matrix(np.diag([1 + 5e-11, -5e-11]))},
                         "negative eigenvalue -5.000e-11", id="density"),
            pytest.param({"kind": "bipartite", "dimA": 2, "dimB": 2,
                          "matrix": encode_matrix(np.diag([0.5 + 5e-11, 0.5, 0.0, -5e-11]))},
                         "negative eigenvalue -5.000e-11", id="bipartite"),
            pytest.param({"kind": "cq", "branches": [
                             {"p": 1 + 1e-11, "matrix": encode_matrix(np.eye(2) / 2)},
                             {"p": -1e-11, "matrix": encode_matrix(np.diag([1.0, 0.0]))}]},
                         "negative branch probability -1e-11", id="cq"),
        ],
    )
    def test_borderline_negativity_rejected_by_every_reader(self, payload, message,
                                                             tmp_path, capsys):
        # an eigenvalue or weight just below -linalg.SUPPORT_CUTOFF: one
        # verdict, made where the file is decoded, whichever mode reads it
        path = tmp_path / "borderline.json"
        path.write_text(json.dumps(payload))
        for mode, argv in _STATE_MODES.items():
            code = cli.run([a.format(f=path) for a in argv])
            assert (code, *capsys.readouterr()) == (1, "", f"error: {message}\n"), mode

    @staticmethod
    def _within_tolerance(kind) -> dict:
        if kind == "vector":
            # norm 1 + 0.9e-10: its projector, reduced state and P all read
            # 1 + 1.8e-10, twice the deviation the input itself may have
            xi = (1 + 0.9e-10) * np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2)
            return {"kind": "state_vector", "matrix": encode_matrix(xi.reshape(-1, 1))}
        # Hermitian deviation 0.9e-10 from an anti-Hermitian id (x) e term,
        # which tracing out the 4-dim first factor doubles in rho_B
        e = np.array([[0.0, 1.0], [-1.0, 0.0]])
        joint = np.eye(8) / 8 + 0.9e-10 / (4 * math.sqrt(2)) * np.kron(np.eye(4), e)
        return {"kind": "bipartite", "dimA": 4, "dimB": 2, "matrix": encode_matrix(joint)}

    @pytest.mark.parametrize(
        "kind, expected",
        [
            ("vector", {"entropy": 0.0, "entropy-reduce": LN2, "entropy-measure-state": 1.0}),
            ("joint", {"entropy": 3 * LN2, "entropy-conditional": 2 * LN2,
                       "conditional": 2 * LN2}),
        ],
    )
    def test_derived_matrices_are_not_judged_again(self, kind, expected, tmp_path, capsys):
        # each input passes its type's check, and the matrices derived from
        # it (a projector, a reduced state, P, rho_B) are trusted: none is
        # rejected for a deviation that the input's own tolerance allows
        path = tmp_path / "state.json"
        path.write_text(json.dumps(self._within_tolerance(kind)))
        for mode, value in expected.items():
            code, out = run_capture([a.format(f=path) for a in _STATE_MODES[mode]], capsys)
            got = json.loads(out)["conditionalEntropy"] if mode == "conditional" else float(out)
            assert code == 0 and got == pytest.approx(value, abs=1e-8), mode


class TestMlcheckCommand:
    def test_sweep_report(self, capsys):
        code, out = run_capture(
            ["mlcheck", "--dims", "2,3", "--trials", "8", "--seed", "0"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["violations"] == 0
        assert report["found"] >= 4
        assert report["minSlack"] >= -1e-9

    def test_single_dim_alias(self, capsys):
        code, out = run_capture(["mlcheck", "--dim", "2", "--trials", "4"], capsys)
        assert code == 0
        assert json.loads(out)["dims"] == [2]

    def test_bad_dims_exit_one(self, capsys):
        code, _ = run_capture(["mlcheck", "--dims", "1"], capsys)
        assert code == 1

    def test_solver_failure_exit_two(self, monkeypatch, capsys):
        # the sweep trusts its Hermitian draws but still maps a LAPACK failure
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code = cli.run(["mlcheck", "--dims", "2", "--trials", "1"])
        assert code == 2
        assert capsys.readouterr().err == "error: eigensolver failed: Eigenvalues did not converge\n"


class TestGaussianCommand:
    def test_summary_lines(self, capsys):
        code, out = run_capture(["gaussian", "--grid", "64"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,G,H"
        summary = {ln.split(",")[0]: ln.split(",") for ln in lines if not ln[0].isdigit()}
        g_line = summary["max_G"]
        h_line = summary["max_H"]
        assert float(g_line[2]) == pytest.approx(LN2, abs=1e-6)
        assert float(h_line[2]) == pytest.approx(0.4579, abs=5e-4)

    def test_grid_rows(self, capsys):
        code, out = run_capture(["gaussian", "--grid", "16"], capsys)
        lines = [ln for ln in out.strip().splitlines()[1:] if ln[0].isdigit()]
        assert len(lines) == 16

    def test_json_format(self, capsys):
        code, out = run_capture(["gaussian", "--grid", "8", "--format", "json"], capsys)
        report = json.loads(out)
        assert report["maxG"]["value"] == pytest.approx(LN2, abs=1e-9)
        assert report["bounds"]["classical"] == pytest.approx(1.832, abs=2e-3)


class TestLorentzCommand:
    def test_certified_pair(self, capsys):
        code, out = run_capture(["lorentz", "--v", "0.6"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["relDiff"] <= 1e-12
        assert report["gamma"] == pytest.approx(1.25, rel=1e-12)
        assert set(report) >= {"restFrame", "boostedFrame", "relDiff", "pass"}

    def test_mismatched_exponents(self, capsys):
        code, out = run_capture(
            ["lorentz", "--v", "0.6", "--length-exponent", "-0.5",
             "--temp-exponent", "-1.0"], capsys
        )
        report = json.loads(out)
        assert report["pass"] is False
        assert report["gammaPower"] == pytest.approx(0.5)

    def test_superluminal_exit_one(self, capsys):
        code, _ = run_capture(["lorentz", "--v", "1.5"], capsys)
        assert code == 1


class TestFlowCommand:
    def test_tick_csv(self, flow_config, capsys):
        code, out = run_capture(["flow", "--config", flow_config], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "time,quantum,systemId"
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(1.0 / (8 * LN2), rel=1e-6)
        assert first[2] == "b"

    def test_ratio_mode(self, flow_config, capsys):
        code, out = run_capture(["flow", "--config", flow_config, "--ratio", "a", "b"], capsys)
        assert code == 0
        assert float(out.strip()) == pytest.approx(2.0, rel=1e-9)

    def test_dilation_mode(self, flow_config, cq_file, capsys):
        code, out = run_capture(
            ["flow", "--config", flow_config, "--dilation", cq_file, "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["dtConditional"] >= report["dtMarginal"]

    def test_underflowing_quantum_exit_one(self, tmp_path, capsys):
        # 4 T S underflows to 0: the quantum 1/(4 T S) is inf, not a division by zero
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"systems": [{"id": "a", "entropyNats": 1e-300}], "T": 1e-300, "horizon": 1}
        ))
        code = cli.run(["flow", "--config", str(path)])
        assert code == 1
        assert capsys.readouterr().err == "error: time quantum must be positive and finite, got inf\n"

    def test_all_zero_entropy_exit_one(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"systems": [{"id": "x", "entropyNats": 0.0}], "horizon": 1.0}
        ))
        code, _ = run_capture(["flow", "--config", str(path)], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "entropy_nats, horizon, invariant",
        [
            (1e7, 1e3, "ticks, above the cap of 1000000"),  # 4e10 ticks
            # json writes these as the number literals Infinity and NaN
            (1.0, math.inf, "horizon must be positive and finite"),
            (1.0, math.nan, "horizon must be positive and finite"),
        ],
    )
    def test_unbounded_flow_exit_one(self, entropy_nats, horizon, invariant, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"systems": [{"id": "x", "entropyNats": entropy_nats}], "horizon": horizon}
        ))
        code = cli.run(["flow", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert invariant in err

    @pytest.mark.parametrize(
        "text, invariant",
        [
            ("[" * 100_000, "invalid JSON"),
            ('{"systems": [{"id": "x", "entropyNats": 1%s}], "horizon": 1}' % ("0" * 400),
             "malformed flow config"),
            ('{"systems": [{"id": null, "entropyNats": 1}], "horizon": 1}',
             "malformed flow config: system id must be a string, got None"),
            ('{"systems": [{"id": 2.5, "entropyNats": 1}], "horizon": 1}',
             "malformed flow config: system id must be a string, got 2.5"),
        ],
        ids=["deep-nesting", "entropy-overflow", "id-null", "id-number"],
    )
    def test_malformed_config_exit_one(self, text, invariant, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code = cli.run(["flow", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{path}: {invariant}" in err


class TestSimultaneityCommand:
    def test_direct_thetas(self, capsys):
        code, out = run_capture(
            ["simultaneity", "--theta1", "0", "--theta2", "10", "--vmax", "2.772589"],
            capsys,
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(3.606738, abs=1e-5)

    def test_entropy_derived_velocity(self, capsys):
        code, out = run_capture(
            ["simultaneity", "--theta1", "0", "--theta2", "10", "--entropy", str(LN2)],
            capsys,
        )
        assert float(out.strip()) == pytest.approx(10.0 / (4 * LN2), rel=1e-9)

    def test_state_count_inputs(self, capsys):
        code, out = run_capture(
            ["simultaneity", "--s1", str(LN2), "--t1", "1.0", "--s2", str(LN2),
             "--t2", "2.0", "--entropy", str(LN2), "--format", "json"],
            capsys,
        )
        report = json.loads(out)
        assert report["theta2"] == pytest.approx(2 * report["theta1"], rel=1e-12)
        assert report["offset"] == pytest.approx(1.0, rel=1e-12)

    def test_missing_velocity_exit_one(self, capsys):
        code, _ = run_capture(["simultaneity", "--theta1", "0", "--theta2", "1"], capsys)
        assert code == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["mlcheck", "--trials", "-3"], "--trials must be >= 1"),
        (["mlcheck", "--trials", "0"], "--trials must be >= 1"),
        (["gaussian", "--grid", "0"], "--grid must be >= 1"),
        (["conditional", "--state", "s.json", "--trotter-n", "0"], "--trotter-n must be >= 1"),
        (["conditional", "--state", "s.json", "--eps", "nan"], "--eps must be finite"),
        (["lorentz", "--v", "0.6", "--temp-exponent", "nan"], "--temp-exponent must be finite"),
        (["lorentz", "--v", "0.6", "--length-exponent", "nan"],
         "--length-exponent must be finite"),
        (["simultaneity", "--theta1", "nan", "--theta2", "1", "--vmax", "1"],
         "--theta1 must be finite"),
        (["simultaneity", "--theta1", "0", "--theta2", "inf", "--vmax", "1"],
         "--theta2 must be finite"),
        (["simultaneity", "--s1", "1", "--t1", "nan", "--s2", "1", "--t2", "1", "--vmax", "1"],
         "--t1 must be finite"),
        (["simultaneity", "--s1", "1", "--t1", "1", "--s2", "1", "--t2", "inf", "--vmax", "1"],
         "--t2 must be finite"),
        (["conditional", "--state", "s.json", "--eps", "-0.1"], "--eps must be in [0, 1)"),
        (["conditional", "--state", "s.json", "--eps", "3"], "--eps must be in [0, 1)"),
        (["gaussian", "--grid", "100000000"],
         "grid of 100000000 points is above the cap of 100000"),
        (["mlcheck", "--dim", "100000"], "sweep dimension 100000 is above the cap of 64"),
        (["mlcheck", "--trials", "100000000"],
         "sweep needs 300000000 trials, above the cap of 5000"),
        (["mlcheck", "--dims", "2,x"], "--dims must list integers >= 2, got '2,x'"),
        # gamma = 7071 here: a power of it beyond the float range
        (["lorentz", "--v", "0.99999999", "--temp-exponent", "1000"],
         "temperature factor gamma^-1000.0 is out of range"),
        (["lorentz", "--v", "0.99999999", "--temp-exponent", "-1000"],
         "temperature factor gamma^1000.0 is out of range"),
        (["lorentz", "--v", "0.99999999", "--length-exponent", "1000"],
         "length factor gamma^1000.0 is out of range"),
        # finite inputs whose product or quotient leaves the float range
        (["lorentz", "--v", "0.5", "--sigma-k0", "1e308", "--format", "json"],
         "restFrame.velocity left the float range, got inf"),
        (["gaussian", "--sigma-x0", "1e-320"], "bounds.resolution left the float range, got inf"),
        (["simultaneity", "--theta1", "0", "--theta2", "1", "--entropy", "1e-320"],
         "offset left the float range, got inf"),
        # a negative entropy gives no negative state count or velocity
        (["simultaneity", "--s1", "-1", "--t1", "1", "--s2", "-1", "--t2", "2", "--entropy", "1"],
         "entropy must be >= 0, got -1.0"),
        (["simultaneity", "--theta1", "0", "--theta2", "1", "--entropy", "-1"],
         "entropy must be >= 0, got -1.0"),
        (["simultaneity", "--s1", "-1", "--t1", "-1", "--s2", "1", "--t2", "1", "--vmax", "1"],
         "entropy must be >= 0, got -1.0"),
        # non-finite entropies, each checked before its time
        (["simultaneity", "--s1", "inf", "--t1", "1", "--s2", "1", "--t2", "2", "--vmax", "1"],
         "entropy must be finite, got inf"),
        (["simultaneity", "--s1", "nan", "--t1", "-1", "--s2", "1", "--t2", "1", "--vmax", "1"],
         "entropy must be finite, got nan"),
        (["simultaneity", "--theta1", "0", "--theta2", "1", "--entropy", "nan"],
         "entropy must be finite, got nan"),
        # positive and finite, named in full
        (["gaussian", "--sigma-x0", "inf"], "sigma_x0 must be positive and finite, got inf"),
        (["gaussian", "--sigma-x0", "-1"], "sigma_x0 must be positive and finite, got -1.0"),
        (["gaussian", "--sigma-k0", "nan"], "sigma_k0 must be positive and finite, got nan"),
        (["simultaneity", "--theta1", "0", "--theta2", "1", "--vmax", "inf"],
         "v_max must be positive and finite, got inf"),
        (["simultaneity", "--theta1", "0", "--theta2", "1", "--entropy", "0"],
         "v_max must be positive and finite, got 0.0"),
        (["lorentz", "--v", "0.5", "--sigma-k0", "inf"],
         "sigma_k0 must be positive and finite, got inf"),
        # the checks that ran first before still run first
        (["gaussian", "--grid", "200000", "--sigma-k0", "0"],
         "grid of 200000 points is above the cap of 100000"),
        (["gaussian", "--sigma-k0", "0", "--sigma-x0", "0"],
         "sigma_k0 must be positive and finite, got 0.0"),
        (["lorentz", "--v", "2", "--sigma-k0", "0"], "|v| = 2.0 must be < c = 1.0"),
        (["mlcheck", "--seed", "-1"], "--seed must be >= 0, got -1"),
        (["conditional", "--state", _in("cq.json"), "--trotter-n", str(2**20 + 1)],
         "Trotter n 1048577 is above the cap of 1048576"),
        # two negative factors whose product is the state's dimension 4
        (["entropy", "--state", _in("xi.json"), "--reduce", "-1", "-4"],
         "factor dimensions must be positive"),
    ],
)
def test_numeric_flag_out_of_range_exit_one(argv, flag, capsys):
    code = cli.run(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--state", "{dir}"],
        ["flow", "--config", "{dir}"],
        ["lorentz", "--v", "0.6", "--out", "{dir}"],
        ["flow", "--config", str(INPUTS / "flow.json"), "--out", "{dir}"],
    ],
)
def test_directory_path_exit_one(argv, tmp_path, capsys):
    code = cli.run([a.format(dir=tmp_path) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


@pytest.mark.parametrize(
    "out, message",
    [
        ("{dir}", "error: --out {dir} is a directory\n"),
        ("{dir}/missing/flow.csv", "error: --out {dir}/missing/flow.csv: No such file or directory\n"),
    ],
    ids=["directory", "missing-parent"],
)
def test_unusable_out_fails_before_the_work(out, message, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli.flow, "simulate_flow", lambda *a: calls.append(a))
    argv = ["flow", "--config", str(INPUTS / "flow.json"), "--out", out.format(dir=tmp_path)]
    code = cli.run(argv)
    assert code == 1
    assert capsys.readouterr().err == message.format(dir=tmp_path)
    assert calls == []


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["flow", "--config", "{dir}/missing.json"], 1),
        (["conditional", "--state", _in("bell.json"), "--trotter-n", "8"], 2),
    ],
    ids=["invalid-input", "numerical-failure"],
)
def test_failed_run_leaves_out_untouched(argv, exit_code, tmp_path, capsys):
    out = tmp_path / "report.txt"
    out.write_text("earlier report\n")
    code = cli.run([a.format(dir=tmp_path) for a in argv] + ["--out", str(out)])
    assert code == exit_code
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == "earlier report\n"
    assert os.listdir(tmp_path) == ["report.txt"]


def test_out_replaces_the_target_whole(tmp_path, capsys):
    out = tmp_path / "report.csv"
    out.write_text("a much longer earlier report that the new one must not keep\n" * 50)
    assert cli.run(["gaussian", "--grid", "4"]) == 0
    expected = capsys.readouterr().out
    assert cli.run(["gaussian", "--grid", "4", "--out", str(out)]) == 0
    assert out.read_text() == expected
    assert os.listdir(tmp_path) == ["report.csv"]


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--state", "s.json"],
        ["conditional", "--state", "s.json"],
        ["gaussian"],
        ["lorentz", "--v", "0.5"],
        ["flow", "--config", "c.json"],
        ["simultaneity"],
    ],
)
def test_seed_accepted_only_by_mlcheck(argv, capsys):
    assert cli.build_parser().parse_args(["mlcheck", "--seed", "1"]).seed == 1
    code = cli.run(argv + ["--seed", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unrecognized arguments: --seed" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mlcheck", "--trials", "x"], "argument --trials: invalid int value: 'x'"),
        (["entropy"], "the following arguments are required: --state"),
        (["lorentz", "--v", "0.5", "--bogus"], "unrecognized arguments: --bogus"),
        (["gaussian", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        ([], "the following arguments are required: subcommand"),
        # c = 1 is the unit of velocity, not a flag
        (["lorentz", "--v", "0.5", "--c", "1"], "unrecognized arguments: --c 1"),
    ],
)
def test_usage_error_exit_one(argv, message, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["flow", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: chronon-lab flow")


REPO = Path(__file__).resolve().parents[1]


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter on this checkout's src/, run from the repo root."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=REPO, env=env, capture_output=True)


def _openblas_getter():
    """(library path, thread-count getter) of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__path__[0]).parent / "numpy.libs"
    paths = sorted(libs.glob("*openblas*")) if libs.is_dir() else []
    for path in paths:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return str(path), symbol
    return None


class TestEntryPoint:
    """The program as a user starts it: a fresh interpreter."""

    @pytest.mark.parametrize("module", ["chronon_lab.cli", "chronon_lab.linalg"])
    def test_blas_thread_policy_belongs_to_the_cli(self, module):
        """Importing the CLI runs OpenBLAS on one thread; a library module
        leaves the count as it was."""
        getter = _openblas_getter()
        if getter is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        probe = (
            "import ctypes, importlib, sys, numpy\n"
            "get = getattr(ctypes.CDLL(sys.argv[1]), sys.argv[2])\n"
            "before = get()\n"
            "importlib.import_module(sys.argv[3])\n"
            "print(before, get())\n"
        )
        done = _python("-c", probe, *getter, module)
        assert done.returncode == 0, done.stderr
        before, after = map(int, done.stdout.split())
        assert after == (1 if module == "chronon_lab.cli" else before)

    def test_module_entry_point_writes_the_golden(self):
        done = _python("-m", "chronon_lab.cli", "conditional",
                       "--state", "tests/golden/inputs/bell.json", "--format", "json")
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == (GOLDEN / "conditional_bell.json").read_bytes()

    def test_module_entry_point_usage_error(self):
        done = _python("-m", "chronon_lab.cli", "lorentz", "--v", "0.5", "--bogus")
        assert done.returncode == 1
        assert done.stdout == b""
        err = done.stderr.decode()
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unrecognized arguments: --bogus" in err

    def test_cli_import_binds_every_module_and_loads_no_numpy(self):
        """Importing the CLI and building its parser loads no numpy, yet
        binds every package module in sys.modules, where the benchmark's
        per-layer trace looks them up."""
        probe = (
            "import sys\n"
            "import chronon_lab.cli as cli\n"
            "cli.build_parser()\n"
            "print('numpy' in sys.modules)\n"
            "print(*sorted(m for m in sys.modules if m.startswith('chronon_lab.')))\n"
        )
        done = _python("-c", probe)
        assert done.returncode == 0, done.stderr
        numpy_loaded, bound = done.stdout.decode().splitlines()
        assert numpy_loaded == "False"
        package = Path(chronon_lab.__file__).parent
        modules = {f"chronon_lab.{m.name}" for m in pkgutil.iter_modules([str(package)])}
        assert set(bound.split()) == modules

    def test_blas_thread_pinned_before_numpy_is_imported(self):
        """The pin set at CLI import, before any numpy, holds once numpy
        loads: both use the one OpenBLAS under numpy.libs."""
        getter = _openblas_getter()
        if getter is None:
            pytest.skip("numpy's bundled OpenBLAS not found")
        probe = (
            "import ctypes, sys\n"
            "import chronon_lab.cli\n"
            "assert 'numpy' not in sys.modules\n"
            "import numpy\n"
            "print(getattr(ctypes.CDLL(sys.argv[1]), sys.argv[2])())\n"
        )
        done = _python("-c", probe, *getter)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) == 1

    def test_math_only_subcommand_runs_on_one_thread(self):
        """Importing the CLI and running lorentz starts no thread: the BLAS
        pin loads no OpenBLAS, whose start-up would start its pool."""
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads")
        probe = (
            "import contextlib, io, os\n"
            "from chronon_lab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.run(['lorentz', '--v', '0.5']) == 0\n"
            "print(len(os.listdir('/proc/self/task')))\n"
        )
        done = _python("-c", probe)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) == 1

    # runs the CLI as `python -m chronon_lab.cli` does, then reports on the
    # last stderr line which of these modules it loaded; one the interpreter
    # had loaded before the CLI (a site .pth may preload some) is left out
    _MAIN_REPORTING_IMPORTS = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from chronon_lab import cli\n"
        "try:\n"
        "    cli.main()\n"
        "finally:\n"
        "    watched = ('numpy', 'dataclasses', 'inspect', 'ctypes', 'json')\n"
        "    print(*[m for m in watched if m in sys.modules and m not in before],\n"
        "          file=sys.stderr)\n"
    )

    def _loaded(self, done) -> set:
        return set(done.stderr.decode().splitlines()[-1].split())

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "case", ["lorentz", "simultaneity_theta", "simultaneity_counts", "flow_ratio"]
    )
    def test_math_only_subcommands_load_no_numpy(self, case, fmt):
        """lorentz, simultaneity and flow --ratio compute with math alone:
        a fresh run writes the golden and never loads numpy, dataclasses,
        inspect or ctypes; only JSON output or a JSON config loads json."""
        done = _python("-c", self._MAIN_REPORTING_IMPORTS, *CASES[case], "--format", fmt)
        assert done.returncode == 0 and done.stderr.count(b"\n") == 1, done.stderr
        reads_json = fmt == "json" or case == "flow_ratio"
        assert self._loaded(done) <= ({"json"} if reads_json else set())
        assert done.stdout == (GOLDEN / f"{case}.{fmt}").read_bytes()

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_mlcheck_loads_no_dataclasses(self, fmt):
        """A sweep loads numpy, but its result is a NamedTuple: a fresh run
        writes the golden and never loads dataclasses."""
        done = _python("-c", self._MAIN_REPORTING_IMPORTS, *CASES["mlcheck"], "--format", fmt)
        assert done.returncode == 0 and done.stderr.count(b"\n") == 1, done.stderr
        assert "numpy" in self._loaded(done) and "dataclasses" not in self._loaded(done)
        assert done.stdout == (GOLDEN / f"mlcheck.{fmt}").read_bytes()

    @pytest.mark.parametrize(
        "argv, code",
        [(["--help"], 0), (["mlcheck", "--help"], 0), (["lorentz", "--v", "0.5", "--bogus"], 1)],
    )
    def test_help_and_usage_errors_load_no_numpy(self, argv, code):
        """--help and a usage error load none of numpy, dataclasses,
        inspect, ctypes or json."""
        done = _python("-c", self._MAIN_REPORTING_IMPORTS, *argv)
        assert done.returncode == code
        assert self._loaded(done) == set()


_THETAS = ["--theta1", "0", "--theta2", "1"]
_COUNTS = ["--s1", "1", "--t1", "1", "--s2", "1", "--t2", "2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["entropy", "--state", "s.json", "--reduce", "2", "2", "--conditional"],
         "not allowed with"),
        (["entropy", "--state", "s.json", "--measure", "b.json", "--conditional"],
         "not allowed with"),
        (["entropy", "--state", "s.json", "--measure", "b.json", "--reduce", "2", "2"],
         "not allowed with"),
        (["flow", "--config", "c.json", "--ratio", "a", "b", "--dilation", "cq.json"],
         "not allowed with"),
        (["simultaneity", *_THETAS, "--vmax", "1", "--entropy", "5"], "not allowed with"),
        (["simultaneity", *_THETAS, *_COUNTS, "--vmax", "1"], "give either"),
        (["simultaneity", *_THETAS, "--s1", "1", "--vmax", "1"], "give either"),
        (["simultaneity", *_THETAS, "--t1", "1", "--vmax", "1"], "give either"),
        (["simultaneity", *_THETAS, "--s2", "1", "--vmax", "1"], "give either"),
        (["simultaneity", *_THETAS, "--t2", "1", "--vmax", "1"], "give either"),
        (["simultaneity", "--theta1", "0", *_COUNTS, "--vmax", "1"], "give either"),
        (["conditional", "--state", "s.json", "--eps", "0.5"],
         "--eps applies only with --trotter-n"),
        (["mlcheck", "--dims", "2,3", "--dim", "4"],
         "argument --dim: not allowed with argument --dims"),
        (["conditional", "--state", "s.json", "--eps", "0"],
         "--eps applies only with --trotter-n"),
    ],
)
def test_dropped_flag_combination_exit_one(argv, message, capsys):
    """Every flag given is used: a combination that would drop one is
    rejected before any file is read."""
    code = cli.run(argv)
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


_FLOW_MODES = {
    "flow": ["flow", "--config", "{f}"],
    "flow-ratio": ["flow", "--config", "{f}", "--ratio", "a", "b"],
    "flow-dilation": ["flow", "--config", "{f}", "--dilation", _in("cq.json")],
}


def _run_quietly(argv) -> tuple[int, str]:
    """cli.run's exit code and stderr, stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("mode", sorted(_FLOW_MODES))
@pytest.mark.parametrize(
    "key, value, invariant",
    [
        ("horizon", -1, "horizon must be positive and finite, got -1.0"),
        ("horizon", "1e400", "horizon must be positive and finite, got inf"),
        ("id", None, "malformed flow config: system id must be a string, got None"),
        ("id", [], "malformed flow config: system id must be a string, got []"),
        ("id", "x,y", "malformed flow config: system id 'x,y' holds a comma, quote, CR or LF"),
        ("id", "a\nb", "system id 'a\\nb' holds a comma, quote, CR or LF"),
        ("id", 'say "hi"', "system id 'say \"hi\"' holds a comma, quote, CR or LF"),
        ("id", "c\rd", "system id 'c\\rd' holds a comma, quote, CR or LF"),
        ("entropyNats", True, "malformed flow config: expected a number, got True"),
        ("entropyNats", "1.5", "malformed flow config: expected a number, got '1.5'"),
        ("T", True, "malformed flow config: expected a number, got True"),
        ("horizon", "2", "malformed flow config: expected a number, got '2'"),
        ("T", 0, "T must be positive and finite, got 0.0"),
        ("entropyNats", "1e400", "malformed flow config: entropy must be finite, got inf"),
        # the entropy is checked before the id
        ("systems", [{"id": "x,y", "entropyNats": "1e400"}],
         "malformed flow config: entropy must be finite, got inf"),
        # an id may repeat, but then it names no one system to take a ratio of
        ("systems", [{"id": "a", "entropyNats": 1}, {"id": "a", "entropyNats": 2},
                     {"id": "b", "entropyNats": 1}],
         {"flow-ratio": "--ratio id 'a' names 2 configured systems"}),
        # with system a renamed, --ratio a b names an id that is not configured
        ("id", "z", {"flow-ratio": "--ratio ids must name configured systems"}),
    ],
    ids=["horizon-negative", "horizon-overflow", "id-null", "id-list", "id-comma", "id-lf",
         "id-quote", "id-cr", "entropy-bool", "entropy-string", "T-bool", "horizon-string",
         "T-zero", "entropy-overflow", "entropy-before-id", "id-shared", "id-unknown"],
)
def test_flow_config_checked_in_every_mode(mode, key, value, invariant, tmp_path):
    """Every mode rejects what plain flow rejects, whether or not it reads
    the ticks: the config is checked as a whole when it is loaded.  An
    invariant given per mode holds in those modes only; the others exit 0."""
    cfg = json.loads((INPUTS / "flow.json").read_text())
    if key in ("id", "entropyNats"):
        cfg["systems"][0][key] = value
    else:
        cfg[key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"1e400"', "1e400"))
    code, err = _run_quietly([a.format(f=path) for a in _FLOW_MODES[mode]])
    if isinstance(invariant, dict):
        if mode not in invariant:
            assert (code, err) == (0, "")
            return
        invariant = invariant[mode]
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert invariant in err


@pytest.mark.parametrize("mode", sorted(_STATE_MODES))
@pytest.mark.parametrize("name", ["bell", "rank2", "cq", "xi", "basis"])
def test_every_state_mode_on_every_input_exits_cleanly(mode, name):
    """A state file of the wrong kind for a mode is invalid input, not a
    crash."""
    path = str(INPUTS / f"{name}.json")
    code, err = _run_quietly([a.format(f=path) for a in _STATE_MODES[mode]])
    assert code in (0, 1)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1


def _json_paths(node, prefix=()):
    """The path (tuple of keys and indices) of every value in a JSON tree."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    node[path[0]] = _replaced(node[path[0]], path[1:], value)
    return node


_STATE_KINDS = ("state_vector", "density", "cq", "bipartite", "correlation_basis", "bogus")
_FUZZ_VALUES = (None, True, 0, -1, 2.5, math.inf, 10**30, 1e308, "x", [], {})


@st.composite
def _mutated_input(draw):
    """(file name, JSON text) of a committed input changed in one place:
    a key deleted, its kind changed, or one value replaced."""
    name = draw(st.sampled_from(["bell", "rank2", "cq", "xi", "basis", "flow"]))
    obj = json.loads((INPUTS / f"{name}.json").read_text())
    paths = list(_json_paths(obj))
    ops = ["delete", "replace"] + (["kind"] if "kind" in obj else [])
    op = draw(st.sampled_from(ops))
    if op == "delete":
        *parent, key = draw(st.sampled_from([p for p in paths if p and isinstance(p[-1], str)]))
        del functools.reduce(lambda node, k: node[k], parent, obj)[key]
    elif op == "kind":
        obj["kind"] = draw(st.sampled_from([k for k in _STATE_KINDS if k != obj["kind"]]))
    else:
        obj = _replaced(obj, draw(st.sampled_from(paths)), draw(st.sampled_from(_FUZZ_VALUES)))
    # json writes inf as Infinity; 1e400 is the same value as a plain number
    return name, json.dumps(obj).replace("Infinity", "1e400")


@given(_mutated_input())
@settings(max_examples=150, deadline=None)
def test_mutated_input_never_raises(mutation):
    name, text = mutation
    modes = _FLOW_MODES if name == "flow" else _STATE_MODES
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in modes.values():
            code, err = _run_quietly([a.format(f=path) for a in argv])
            assert code in (0, 1, 2), argv
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


# Zero, huge, tiny and subnormal magnitudes of both signs, and +-1000.
_EXTREMES = (0.0, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308, 5e-324, -5e-324, 1000.0, -1000.0)
# Boost velocities in units of c; 0.99999999 gives gamma = 7071.
_SPEEDS = (0.0, 0.6, 0.99999999, -0.99999999, 5e-324, 1e-300, 1000.0)


@pytest.mark.parametrize("cmd", ["lorentz", "simultaneity", "gaussian", "flow"])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_extreme_numbers_never_raise(cmd, data):
    """Every numeric flag, or flow-config number, drawn from _EXTREMES in a
    flag combination the subcommand accepts: no traceback, a nonzero exit
    prints one error line, and an exit-0 output holds finite numbers only
    (JSON without NaN or Infinity, CSV without nan or inf cells)."""
    x = st.sampled_from(_EXTREMES)
    fmt = data.draw(st.sampled_from(["csv", "json"]))
    cfg = None
    if cmd == "flow":
        cfg = {"systems": [{"id": "a", "entropyNats": data.draw(x)},
                           {"id": "b", "entropyNats": data.draw(x)}],
               "T": data.draw(x), "horizon": data.draw(x)}
        argv = data.draw(st.sampled_from(sorted(_FLOW_MODES.values()))) + ["--format", fmt]
    else:
        if cmd == "lorentz":
            flags = ["--temp-exponent", "--length-exponent", "--sigma-k0"]
            flags = [f for f in flags if data.draw(st.booleans())]
            argv = ["--v", repr(data.draw(st.sampled_from(_SPEEDS)))]
        elif cmd == "gaussian":
            flags, argv = ["--sigma-k0", "--sigma-x0"], ["--grid", "2"]
        else:
            flags = data.draw(st.sampled_from([["--theta1", "--theta2"],
                                               ["--s1", "--t1", "--s2", "--t2"]]))
            flags, argv = flags + [data.draw(st.sampled_from(["--vmax", "--entropy"]))], []
        argv = [cmd, "--format", fmt, *argv]
        argv += [a for f in flags for a in (f, repr(data.draw(x)))]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "flow.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run([a.format(f=path) for a in argv])
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, cfg, err)
    elif fmt == "json":
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        cells = {c for line in out.getvalue().splitlines() for c in line.split(",")}
        assert not cells & {"nan", "inf", "-inf"}, (argv, cfg)


def _reject_constant(name):
    raise AssertionError(f"output holds the non-finite JSON number {name}")


class TestDeterminism:
    def test_mlcheck_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["mlcheck", "--dims", "2,3", "--trials", "6", "--seed", "7"]
        assert cli.run(args + ["--out", str(a)]) == 0
        assert cli.run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_gaussian_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.run(["gaussian", "--grid", "128", "--out", str(a)]) == 0
        assert cli.run(["gaussian", "--grid", "128", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()  # LF endings only

    def test_flow_bytes_stable(self, flow_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.run(["flow", "--config", flow_config, "--out", str(a)]) == 0
        assert cli.run(["flow", "--config", flow_config, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


# Floats at the edges of repr: signed zero, subnormals, the extremes, and
# both sides of repr's switch to exponent form at 1e16 and 1e-4.
_EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e300, -1e300,
    1.7976931348623157e308, 1e16, -1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05,
    0.1, 1.0 / 3.0,
)
# Quotes, backslashes, control characters, non-ASCII and non-BMP text.
_EDGE_STRINGS = (
    "", "a", '"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "\u00e9t\u00e9", "\U0001f600", "%s%r%%",
)


@st.composite
def _tables(draw):
    """A random _Table: 1-4 columns, the first 1-4 of them floats that vary
    by row and the rest float or string cells constant within each of 1-4
    groups; 0 rows, 1 row, a few, or more than one chunk's worth, cycled
    from up to 8 drawn rows, each in a drawn group.  A one-group table may
    come without a group column."""
    columns = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True))
    k = draw(st.integers(min_value=1, max_value=len(columns)))
    floats = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    values = {float: floats, str: st.sampled_from(_EDGE_STRINGS) | st.text(max_size=8)}
    kinds = [draw(st.sampled_from([float, str])) for _ in columns[k:]]
    groups = draw(st.lists(st.tuples(*(values[t] for t in kinds)), min_size=1, max_size=4))
    base = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(groups) - 1), st.tuples(*[floats] * k)),
        min_size=1, max_size=8,
    ))
    n = draw(st.sampled_from([0, 1, 2, 5, cli.CHUNK_ROWS + 3]))
    rows = [base[i % len(base)] for i in range(n)]
    cols = tuple(np.array([cells[j] for _, cells in rows], dtype=float) for j in range(k))
    group = np.array([g for g, _ in rows], dtype=np.intp)
    if len(groups) == 1 and draw(st.booleans()):
        group = None
    return cli._Table(tuple(columns), cols, tuple(groups), group)


def _table_rows(table) -> list:
    """The table's rows of raw values, each varying cell a Python float."""
    group = [0] * len(table.values[0]) if table.group is None else table.group.tolist()
    cells = zip(*(v.tolist() for v in table.values))
    return [row + table.groups[g] for row, g in zip(cells, group)]


# Ids a flow config may hold that a writer could mangle: format directives,
# braces, a backslash, non-ASCII and non-BMP text.
_FLOW_IDS = ("a", "b", "%s%r%%", "{}", "\\", "\u00e9t\u00e9", "\U0001f600")
_FLOW_TICK_COUNTS = (0, 1, cli.CHUNK_ROWS, cli.CHUNK_ROWS + 1)


@st.composite
def _flow_configs(draw):
    """A flow config of 1-5 systems: ids from _FLOW_IDS, so they repeat and
    their config order is seldom sorted; entropies 0 (inactive), 0.5, 1 or
    2 (whose quanta are exact multiples of each other, so different systems
    tick at the same time), ln 2 or any in [0.05, 4]; a temperature; and a
    horizon after about n merged ticks for n in _FLOW_TICK_COUNTS, on the
    n-th tick or between it and the next."""
    entropies = st.sampled_from((0.0, 0.5, 1.0, 2.0, LN2)) | st.floats(0.05, 4.0)
    systems = draw(st.lists(st.tuples(st.sampled_from(_FLOW_IDS), entropies),
                            min_size=1, max_size=5))
    assume(any(s > 0.0 for _, s in systems))
    temp = draw(st.sampled_from((1.0, 2.0, 0.37)))
    specs = [SystemSpec(sid, s) for sid, s in systems]
    fastest = min(time_quantum(spec.entropy, temp) for spec in specs if spec.entropy > 0.0)
    n = draw(st.sampled_from(_FLOW_TICK_COUNTS))
    times = [t for t, _, _ in reference_ticks(specs, temp, (n + 2) * fastest)]
    if n == 0:
        horizon = times[0] / 2
    elif draw(st.booleans()) or times[n - 1] == times[n]:
        horizon = times[n - 1]
    else:
        horizon = (times[n - 1] + times[n]) / 2
    cfg = {"systems": [{"id": sid, "entropyNats": s} for sid, s in systems],
           "T": temp, "horizon": horizon}
    return cfg, reference_ticks(specs, temp, horizon)


class TestTableWriter:
    @given(_flow_configs())
    @settings(max_examples=100, deadline=None)
    def test_flow_matches_the_per_tick_loop(self, case):
        """flow writes the per-tick loop's rows: as json.dumps writes them
        in JSON, and one _cell line each in CSV."""
        cfg, rows = case
        records = [{"time": t, "quantum": q, "systemId": sid} for t, q, sid in rows]
        expected = {
            "json": json.dumps({"ticks": records}, indent=2, sort_keys=True) + "\n",
            "csv": "time,quantum,systemId\n"
                   + "".join(",".join(map(cli._cell, row)) + "\n" for row in rows),
        }
        with tempfile.TemporaryDirectory() as tmp:
            config, out = os.path.join(tmp, "flow.json"), os.path.join(tmp, "out")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            for fmt, text in expected.items():
                assert cli.run(["flow", "--config", config, "--format", fmt, "--out", out]) == 0
                with open(out, encoding="utf-8", newline="") as fh:
                    assert fh.read().split("\n") == text.split("\n"), fmt

    @given(table=_tables(), extra=st.dictionaries(
        st.text(alphabet="abcxyz", min_size=1, max_size=3),
        st.sampled_from(_EDGE_FLOATS) | st.sampled_from(_EDGE_STRINGS), max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_json_matches_json_dumps(self, table, extra):
        """The direct writer writes what json.dumps writes, in chunks of at
        most CHUNK_ROWS records."""
        records = [dict(zip(table.columns, row)) for row in _table_rows(table)]
        payload = {**extra, "t": table}
        chunks = list(cli.render((payload, [table]), "json"))
        expected = json.dumps({**extra, "t": records}, indent=2, sort_keys=True) + "\n"
        # compared line by line: a diff of two long texts takes minutes
        assert "".join(chunks).split("\n") == expected.split("\n")
        assert max(chunk.count("\n    {\n") for chunk in chunks) <= cli.CHUNK_ROWS

    @given(table=_tables())
    @settings(max_examples=30, deadline=None)
    def test_csv_matches_the_cell_rule(self, table):
        """The table's CSV is its header plus one _cell line per row, in a
        header chunk and chunks of at most CHUNK_ROWS rows."""
        chunks = list(cli.render(({}, [table]), "csv"))
        lines = [",".join(map(cli._cell, row)) + "\n" for row in _table_rows(table)]
        expected = ",".join(table.columns) + "\n" + "".join(lines)
        assert "".join(chunks).split("\n") == expected.split("\n")
        assert len(chunks) == 1 + math.ceil(len(lines) / cli.CHUNK_ROWS)

    def test_three_columns_two_groups_over_three_chunks(self):
        """Three varying columns, out of sorted order, and two groups whose
        constant cells hold %-directives, over two whole chunks and one of
        a single row, in both formats."""
        n = 2 * cli.CHUNK_ROWS + 1
        rng = np.random.default_rng(20)
        values = tuple(rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
                       for _ in range(3))
        groups = (("%s", 0.1), ("%%", "%r%%"))
        table = cli._Table(("z", "%d", "m", "b", "a"), values, groups, rng.integers(0, 2, n))
        rows = _table_rows(table)
        assert {row[3] for row in rows} == {"%s", "%%"}

        chunks = list(cli.render(({"t": table}, [table]), "json"))
        records = [dict(zip(table.columns, row)) for row in rows]
        expected = json.dumps({"t": records}, indent=2, sort_keys=True) + "\n"
        assert "".join(chunks).split("\n") == expected.split("\n")
        assert [chunk.count("\n    {\n") for chunk in chunks[1:4]] == [cli.CHUNK_ROWS] * 2 + [1]

        chunks = list(cli.render(({}, [table]), "csv"))
        lines = [",".join(map(cli._cell, row)) + "\n" for row in rows]
        assert chunks[0] == "z,%d,m,b,a\n"
        assert "".join(chunks[1:]).split("\n") == "".join(lines).split("\n")
        assert [chunk.count("\n") for chunk in chunks[1:]] == [cli.CHUNK_ROWS] * 2 + [1]

    def test_zero_tick_flow(self, tmp_path, capsys):
        # the horizon is shorter than the one quantum 1/(4 T S) = 0.25
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"systems": [{"id": "a", "entropyNats": 1.0}],
                                    "horizon": 0.1}))
        argv = ["flow", "--config", str(path), "--format"]
        assert run_capture(argv + ["json"], capsys) == (0, '{\n  "ticks": []\n}\n')
        assert run_capture(argv + ["csv"], capsys) == (0, "time,quantum,systemId\n")

    def test_ids_that_need_escaping(self, tmp_path, capsys):
        # JSON escapes what a CSV-safe id may hold; the unsafe ones are rejected
        ids = [s for s in _EDGE_STRINGS if s and not set(s) & set(',"\r\n')]
        systems = [{"id": s, "entropyNats": 1.0 + i} for i, s in enumerate(ids)]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"systems": systems, "horizon": 1.0}))
        code, out = run_capture(["flow", "--config", str(path), "--format", "json"], capsys)
        assert code == 0
        ticks = json.loads(out)["ticks"]
        assert {t["systemId"] for t in ticks} == set(ids)
        assert out == json.dumps({"ticks": ticks}, indent=2, sort_keys=True) + "\n"


def _member_function(member):
    """The function behind a class attribute, or None if it holds none."""
    if isinstance(member, (classmethod, staticmethod)):
        return member.__func__
    if isinstance(member, property):
        return member.fget
    if isinstance(member, functools.cached_property):
        return member.func
    return member if inspect.isfunction(member) else None


def _public_operations() -> dict:
    """Code object -> name of every public function, method, property and
    classmethod defined in a layer module (every module of the package but
    the cli front end)."""
    ops = {}
    for info in pkgutil.iter_modules(chronon_lab.__path__):
        if info.name == "cli":
            continue
        mod = importlib.import_module(f"chronon_lab.{info.name}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                ops[obj.__code__] = f"{info.name}.{attr}"
            elif inspect.isclass(obj):
                for name, member in vars(obj).items():
                    fn = _member_function(member)
                    if fn is not None and not name.startswith("_"):
                        ops[fn.__code__] = f"{info.name}.{attr}.{name}"
    return ops


def test_package_root_binds_only_version_and_submodules():
    """The modules are the API: the package root re-exports nothing."""
    assert chronon_lab.__version__
    stray = sorted(
        name for name, obj in vars(chronon_lab).items()
        if not name.startswith("_")
        and not (inspect.ismodule(obj) and obj.__name__ == f"chronon_lab.{name}")
    )
    assert not stray, f"package root binds non-module names: {stray}"


def test_errors_are_one_type_per_exit_code():
    """errors defines the base and one type per exit code, and no library
    module raises any other class: a new failure picks its exit code, not
    a new type."""
    defined = sorted(
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and obj.__module__ == errors.__name__
    )
    assert defined == ["ChrononError", "InvalidState", "NumericalError"]
    stray = []
    for path in sorted(Path(chronon_lab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if ast.unparse(exc) not in ("InvalidState", "NumericalError"):
                    stray.append(f"{path.name}:{node.lineno}: raise {ast.unparse(exc)}")
    assert not stray, f"raises of other classes: {stray}"


def test_eigensolvers_called_only_through_linalg():
    """linalg.eigh and linalg.eigvalsh are the only eigensolver calls, so
    every solver failure maps to NumericalError (exit 2) in one place."""
    stray = []
    for path in sorted(Path(chronon_lab.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr.startswith("eig"):
                if ast.unparse(node.value) in ("np.linalg", "numpy.linalg"):
                    stray.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                stray.append(f"{path.name}:{node.lineno}: from numpy.linalg import")
    assert not stray, f"eigensolver calls outside linalg: {stray}"


def test_state_types_built_only_where_files_are_decoded():
    """The five state types are the only checks of an input, and only
    serialization builds them: a matrix the program derives from a state
    is a plain array, so no input is judged twice."""
    types = {"StateVector", "DensityMatrix", "ClassicalQuantumState", "BipartiteState",
             "CorrelationBasis"}
    stray = []
    for path in sorted(Path(chronon_lab.__file__).parent.glob("*.py")):
        if path.name == "serialization.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in types:
                    stray.append(f"{path.name}:{node.lineno}: {ast.unparse(func)}(...)")
    assert not stray, f"state types built outside serialization: {stray}"


def test_every_operation_reachable_from_a_subcommand(tmp_path):
    """Coverage audit: every golden case runs in both formats under a
    profiler, and each public operation of the layer modules must be
    called by at least one of them."""
    ops = _public_operations()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for case in sorted(CASES):
            for fmt in FORMATS:
                render_case(case, fmt, tmp_path / "out")
    finally:
        sys.setprofile(previous)
    unreached = sorted(name for code, name in ops.items() if code not in reached)
    assert not unreached, f"public operations no golden case reaches: {unreached}"
