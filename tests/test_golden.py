"""Byte-exact golden outputs: every subcommand in both formats on the small
committed inputs under tests/golden/inputs.

A refactor that shifts a single digit of any output fails here.  To
regenerate the goldens after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py
"""

import inspect
from pathlib import Path

import pytest

from chronon_lab import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"


def _in(name: str) -> str:
    return str(INPUTS / name)


CASES = {
    "conditional_bell": ["conditional", "--state", _in("bell.json")],
    "conditional_rank2": ["conditional", "--state", _in("rank2.json")],
    "conditional_cq": ["conditional", "--state", _in("cq.json")],
    "conditional_trotter": [
        "conditional", "--state", _in("cq.json"), "--trotter-n", "16", "--eps", "1e-6",
    ],
    "conditional_trotter_rank2": [
        "conditional", "--state", _in("rank2.json"), "--trotter-n", "8", "--eps", "1e-6",
    ],
    "entropy_plain": ["entropy", "--state", _in("rank2.json")],
    "entropy_conditional": ["entropy", "--state", _in("rank2.json"), "--conditional"],
    "entropy_conditional_cq": ["entropy", "--state", _in("cq.json"), "--conditional"],
    "entropy_reduce": ["entropy", "--state", _in("xi.json"), "--reduce", "2", "2"],
    "entropy_vector": ["entropy", "--state", _in("xi.json")],
    # a pure state's entropy prints as 0, not -0
    "entropy_pure": ["entropy", "--state", _in("pure.json")],
    "entropy_pure_reduce": ["entropy", "--state", _in("pure.json"), "--reduce", "2", "2"],
    "entropy_measure": [
        "entropy", "--state", _in("xi.json"), "--measure", _in("basis.json"),
    ],
    "mlcheck": ["mlcheck", "--dims", "2,3", "--trials", "6", "--seed", "7"],
    "mlcheck_wide": [
        "mlcheck", "--dims", "2,3,4,8,16,32,64", "--trials", "20", "--seed", "11",
    ],
    "gaussian": ["gaussian", "--grid", "64"],
    "lorentz": ["lorentz", "--v", "0.6"],
    "flow_ticks": ["flow", "--config", _in("flow.json")],
    "flow_ratio": ["flow", "--config", _in("flow.json"), "--ratio", "a", "b"],
    "flow_dilation": ["flow", "--config", _in("flow.json"), "--dilation", _in("cq.json")],
    "simultaneity_theta": [
        "simultaneity", "--theta1", "1.5", "--theta2", "4", "--vmax", "2",
    ],
    "simultaneity_counts": [
        "simultaneity", "--s1", "0.5", "--t1", "1", "--s2", "0.75", "--t2", "2",
        "--entropy", "0.25",
    ],
}
FORMATS = ("csv", "json")


def render_case(case: str, fmt: str, out: Path) -> bytes:
    code = cli.run(CASES[case] + ["--format", fmt, "--out", str(out)])
    assert code == 0, f"{case} ({fmt}) exited {code}"
    return out.read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, fmt, tmp_path):
    expected = (GOLDEN / f"{case}.{fmt}").read_bytes()
    assert render_case(case, fmt, tmp_path / "out") == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_report_renders_both_formats(case):
    """A subcommand computes one report; both formats are rendered from it."""
    args = cli.build_parser().parse_args(CASES[case])
    report = args.func(args)
    for fmt in FORMATS:
        expected = (GOLDEN / f"{case}.{fmt}").read_bytes()
        assert "".join(cli.render(report, fmt)).encode("utf-8") == expected, fmt


def test_subcommands_leave_format_and_output_to_run():
    commands = [f for name, f in vars(cli).items() if name.startswith("_cmd_")]
    assert len(commands) == 7
    for command in commands:
        source = inspect.getsource(command)
        for word in ("args.format", "args.out", "write(", "print("):
            assert word not in source, f"{command.__name__} mentions {word}"


if __name__ == "__main__":
    for case in sorted(CASES):
        for fmt in FORMATS:
            render_case(case, fmt, GOLDEN / f"{case}.{fmt}")
