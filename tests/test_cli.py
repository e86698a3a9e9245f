"""Command-line surface tests: each subcommand, exit codes, determinism,
and the operation-coverage audit."""

import contextlib
import functools
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chronon_lab
from chronon_lab import cli, entropy
from chronon_lab.entropy import EntropyValue, generalized_conditional
from chronon_lab.errors import ConvergenceFailure
from chronon_lab.serialization import save_state
from chronon_lab.states import BipartiteState, ClassicalQuantumState, DensityMatrix, StateVector

from conftest import bell_state
from test_golden import CASES, FORMATS, INPUTS, _in, render_case

LN2 = math.log(2.0)


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

    def test_unregularized_singular_exit_two(self, bell_file, capsys):
        code, _ = run_capture(
            ["conditional", "--state", bell_file, "--trotter-n", "8"], capsys
        )
        assert code == 2

    def test_dual_path_disagreement_exit_two(self, bell_file, monkeypatch, capsys):
        # skew S(joint) alone, so S(joint) - S(B) no longer matches -tr(rho log rho_{A|B})
        exact = entropy.von_neumann

        def skewed(rho):
            s = exact(rho)
            return EntropyValue(s.nats + 1e-6) if rho.dim == 4 else s

        monkeypatch.setattr(entropy, "von_neumann", skewed)
        with pytest.raises(ConvergenceFailure):
            generalized_conditional(bell_state())
        code = cli.run(["conditional", "--state", bell_file])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: conditional-entropy paths disagree")

    @pytest.mark.parametrize("argv", [["conditional"], ["entropy", "--conditional"]])
    def test_support_leak_exit_two(self, argv, tmp_path, capsys):
        # eps sits above the relative support cutoff of the joint (largest
        # eigenvalue 1/8) but below that of rho_B = diag(1 - eps, eps), so
        # the joint's |0>|1> direction leaks out of id (x) supp(rho_B)
        eps = 5e-13
        e0, e1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        first = np.diag([1.0] + [0.0] * 7)
        joint = (1 - eps) * np.kron(np.eye(8) / 8, e0) + eps * np.kron(first, e1)
        path = tmp_path / "leak.json"
        save_state(str(path), BipartiteState(DensityMatrix(joint), dim_a=8, dim_b=2))
        code = cli.run(argv + ["--state", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: joint support leaks out of id (x) supp(rho_B) by 1.000e+00\n"

    def test_dimension_cap_applies_to_cq_embedding(self, monkeypatch, capsys):
        # the cq golden input embeds to a joint of dimension 4
        monkeypatch.setenv("CHRONON_MAX_DIM", "3")
        code = cli.run(["conditional", "--state", str(INPUTS / "cq.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "CHRONON_MAX_DIM cap 3" in err


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
            (1.0, "inf", "horizon must be positive and finite"),
            (1.0, "nan", "horizon must be positive and finite"),
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
        ],
        ids=["deep-nesting", "entropy-overflow"],
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
_FUZZ_VALUES = (None, True, 0, -1, 2.5, math.inf, 10**30, "x", [], {})


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


# The writer half of the state-file codec: no subcommand writes state files;
# the tests build their fixtures with it and use it as decode's round-trip
# reference.
AUDIT_EXEMPT = frozenset(
    {"serialization.encode_matrix", "serialization.encode_state", "serialization.save_state"}
)


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


def test_every_operation_reachable_from_a_subcommand(tmp_path):
    """Coverage audit: every golden case runs in both formats under a
    profiler, and each public operation of the layer modules must be
    called by at least one of them."""
    ops = _public_operations()
    assert AUDIT_EXEMPT <= set(ops.values())
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
    unreached = sorted(
        name for code, name in ops.items() if code not in reached and name not in AUDIT_EXEMPT
    )
    assert not unreached, f"public operations no golden case reaches: {unreached}"
