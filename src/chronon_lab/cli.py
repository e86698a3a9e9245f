"""Batch command-line front end.

Subcommands: entropy, conditional, mlcheck, gaussian, lorentz, flow,
simultaneity.  Output is deterministic for fixed inputs and format (and
mlcheck's --seed): CSV uses '.' decimals, 9 significant digits and LF
endings; the randomized mlcheck sweep draws from numpy's counter-based
Philox generator.

Each subcommand returns one report, ``(payload, rows)``, and writes
nothing.  ``payload`` is the JSON object; ``rows`` lists the CSV lines,
each a tuple of raw values.  ``render`` turns a report into either format,
and ``run`` alone writes the text, to stdout or --out.  The CSV cell rule
is ``_cell``: a float has 9 significant digits, None is empty, a boolean
is lowercase and anything else is its ``str``.  A ``_Table`` holds named
columns over the rows a library call returned; it renders as a CSV header
line plus one line per row, and as a JSON list of records.

Exit codes: 0 success, 1 invalid input (message names the violated
invariant), 2 numerical failure.  A usage error (unknown flag, bad flag
value, missing argument, or flags that exclude each other) is invalid
input too: exit 1 with one ``error:`` line.  --help exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass

from . import gaussian as gaussian_mod
from . import relativity
from .entropy import (
    EntropyValue,
    conditional_state,
    cq_conditional,
    generalized_conditional,
    trotter_conditional_density,
    von_neumann,
)
from .errors import ChrononError, InvalidState, NumericalError
from .flow import SystemSpec, clock_ratio, dilation_from_conditioning, simulate_flow, simultaneity_offset
from .linalg import frobenius
from .serialization import load_state, read_json
from .speed_limits import (
    ThermalContext,
    antiqubit_process_velocity,
    process_velocity,
    state_count,
)
from .states import (
    BipartiteState,
    ClassicalQuantumState,
    CorrelationBasis,
    DensityMatrix,
    StateVector,
    build_measurement_operator,
    cq_embed,
    measurement_probability,
    reduce_over_apparatus,
)
from .sweeps import ml_bound_sweep

_FLOAT = "{:.9g}"


def _cell(value) -> str:
    """One CSV cell under the module's cell rule."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return _FLOAT.format(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class _Table:
    """Rows of raw values under named columns, a top-level payload value.
    Every column holds floats or strings only, so the first row fixes one
    format template for all."""

    columns: tuple
    rows: tuple | list

    def records(self) -> list:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def csv_lines(self) -> list:
        lines = [",".join(self.columns)]
        if self.rows:
            template = ",".join(_FLOAT if isinstance(v, float) else "{}" for v in self.rows[0])
            lines += itertools.starmap(template.format, self.rows)
        return lines


def render(report: tuple, fmt: str) -> str:
    """The text of a subcommand's (payload, rows) report in fmt."""
    payload, rows = report
    if fmt == "json":
        payload = {k: v.records() if isinstance(v, _Table) else v for k, v in payload.items()}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = []
    for row in rows:
        if isinstance(row, _Table):
            lines += row.csv_lines()
        else:
            lines.append(",".join(map(_cell, row)))
    return "\n".join(lines) + "\n"


def _require(args, rule: str, holds, *names: str) -> None:
    """InvalidState naming the first given flag whose value breaks rule."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not holds(value):
            raise InvalidState(f"--{name.replace('_', '-')} must be {rule}, got {value}")


def _at_least_one(n: int) -> bool:
    return n >= 1


# --- subcommands: each returns its (payload, rows) report ---


def _cmd_entropy(args):
    state = load_state(args.state)

    if args.measure is not None:
        basis = load_state(args.measure)
        if not isinstance(basis, CorrelationBasis):
            raise InvalidState(f"{args.measure} is not a correlation-basis file")
        if not isinstance(state, StateVector):
            raise InvalidState("--measure needs a state_vector input")
        m = build_measurement_operator(basis)
        value = measurement_probability(state, m)
    elif args.reduce is not None:
        if not isinstance(state, StateVector):
            raise InvalidState("--reduce needs a state_vector input")
        dim_s, dim_a = args.reduce
        value = von_neumann(reduce_over_apparatus(state, dim_s, dim_a)).nats
    elif args.conditional:
        if isinstance(state, ClassicalQuantumState):
            value = cq_conditional(state).nats
        elif isinstance(state, BipartiteState):
            value = generalized_conditional(state).nats
        else:
            raise InvalidState("--conditional needs a cq or bipartite input")
    else:
        if isinstance(state, StateVector):
            state = DensityMatrix.from_state_vector(state)
        elif isinstance(state, ClassicalQuantumState):
            state = state.mixture()
        elif isinstance(state, BipartiteState):
            state = state.joint
        elif not isinstance(state, DensityMatrix):
            raise InvalidState("entropy needs a state_vector, density, cq or bipartite input")
        value = von_neumann(state).nats
    return {"value": value}, [(value,)]


def _cmd_conditional(args):
    _require(args, ">= 1", _at_least_one, "trotter_n")
    _require(args, "finite", math.isfinite, "eps")
    _require(args, "in [0, 1)", lambda eps: 0.0 <= eps < 1.0, "eps")
    if args.eps and args.trotter_n is None:
        raise InvalidState("--eps applies only with --trotter-n")
    state = load_state(args.state)
    if isinstance(state, ClassicalQuantumState):
        bi = cq_embed(state)
        branch_value = cq_conditional(state).nats
    elif isinstance(state, BipartiteState):
        bi = state
        branch_value = None
    else:
        raise InvalidState("conditional needs a cq or bipartite input")

    cs = conditional_state(bi)
    spectrum = [float(w) for w in cs.spectrum]
    payload = {
        "conditionalEntropy": cs.entropy.nats,
        "conditionalSpectrum": spectrum,
        "antiqubitVelocity": antiqubit_process_velocity(cs, ThermalContext()),
    }
    rows = [("conditionalEntropy", cs.entropy.nats)]
    if branch_value is not None:
        payload["branchConditional"] = branch_value
        rows.append(("branchConditional", branch_value))
    rows.append(("antiqubitVelocity", payload["antiqubitVelocity"]))
    rows += [(f"conditionalEigenvalue{i}", w) for i, w in enumerate(spectrum)]
    if args.trotter_n is not None:
        approx = trotter_conditional_density(bi, args.trotter_n, eps=args.eps)
        distance = frobenius(approx - cs.density)
        payload["trotter"] = {"n": args.trotter_n, "eps": args.eps, "distance": distance}
        rows.append(("trotterDistance", distance))
    return payload, rows


def _cmd_mlcheck(args):
    try:
        dims = [int(d) for d in args.dims.split(",") if d]
    except ValueError:
        dims = []  # rejected, naming the flag, just below
    if not dims or any(d < 2 for d in dims):
        raise InvalidState(f"--dims must list integers >= 2, got {args.dims!r}")
    _require(args, ">= 1", _at_least_one, "trials")
    result = ml_bound_sweep(dims, args.trials, args.seed)
    payload = {
        "dims": dims,
        "trialsPerDim": args.trials,
        "seed": args.seed,
        "found": result.found,
        "violations": result.violations,
        "minSlack": result.min_slack,
    }
    return payload, [(key, payload[key]) for key in ("found", "violations", "minSlack")]


def _cmd_gaussian(args):
    _require(args, ">= 1", _at_least_one, "grid")
    grid = _Table(("x", "G", "H"), gaussian_mod.tabulate(args.grid))
    xg, vg = gaussian_mod.max_G()
    xh, vh = gaussian_mod.max_H()
    ctx = ThermalContext()
    packet = gaussian_mod.GaussianPacket(sigma_k0=args.sigma_k0)
    bounds = {
        "process": gaussian_mod.bound_process_velocity(ctx),
        "classical": gaussian_mod.bound_classical_velocity(packet, ctx),
        "resolution": gaussian_mod.bound_resolution_velocity(args.sigma_x0, ctx),
    }
    payload = {
        "grid": grid,
        "maxG": {"x": xg, "value": vg},
        "maxH": {"x": xh, "value": vh},
        "bounds": bounds,
        "sigmaK0": args.sigma_k0,
        "sigmaX0": args.sigma_x0,
    }
    rows = [
        grid,
        ("max_G", xg, vg),
        ("max_H", xh, vh),
        ("bound_process", None, bounds["process"]),
        ("bound_classical", args.sigma_k0, bounds["classical"]),
        ("bound_resolution", args.sigma_x0, bounds["resolution"]),
    ]
    return payload, rows


def _frame(quantities, velocity: float) -> dict:
    return {
        "T": quantities.T,
        "S": quantities.S.nats,
        "r": quantities.r,
        "dtMin": quantities.dt_min.dt,
        "velocity": velocity,
    }


def _cmd_lorentz(args):
    _require(args, "finite", math.isfinite, "temp_exponent", "length_exponent")
    boost = relativity.Boost(v=args.v, c=args.c)
    packet = gaussian_mod.GaussianPacket(sigma_k0=args.sigma_k0)
    report = relativity.check_bound_invariance(
        packet,
        ThermalContext(),
        boost,
        length_exponent=args.length_exponent,
        temp_exponent=args.temp_exponent,
    )
    payload = {
        "gamma": report.gamma,
        "gammaPower": report.gamma_power,
        "restFrame": _frame(report.rest, report.rest_velocity),
        "boostedFrame": _frame(report.boosted, report.boosted_velocity),
        "relDiff": report.rel_diff,
        "pass": report.passed,
    }
    rows = [
        ("gamma", report.gamma),
        ("gammaPower", report.gamma_power),
        ("restVelocity", report.rest_velocity),
        ("boostedVelocity", report.boosted_velocity),
        ("relDiff", report.rel_diff),
        ("pass", report.passed),
    ]
    return payload, rows


def _load_flow_config(path: str):
    cfg = read_json(path)
    try:
        systems = [
            SystemSpec(id=str(s["id"]), entropy=EntropyValue(float(s["entropyNats"])))
            for s in cfg["systems"]
        ]
        temperature = float(cfg.get("T", 1.0))
        horizon = float(cfg["horizon"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidState(f"{path}: malformed flow config: {exc}") from exc
    return systems, ThermalContext(T=temperature), horizon


def _cmd_flow(args):
    systems, ctx, horizon = _load_flow_config(args.config)

    if args.ratio is not None:
        by_id = {s.id: s for s in systems}
        id1, id2 = args.ratio
        if id1 not in by_id or id2 not in by_id:
            raise InvalidState("--ratio ids must name configured systems")
        value = clock_ratio(by_id[id1], by_id[id2])
        return {"ratio": value, "ids": [id1, id2]}, [(value,)]

    if args.dilation is not None:
        cq = load_state(args.dilation)
        if not isinstance(cq, ClassicalQuantumState):
            raise InvalidState("--dilation needs a cq state file")
        dt_cond, dt_marg = dilation_from_conditioning(cq, ctx)
        payload = {"dtConditional": dt_cond.dt, "dtMarginal": dt_marg.dt}
        return payload, [("conditional", dt_cond.dt), ("marginal", dt_marg.dt)]

    ticks = _Table(("time", "quantum", "systemId"), simulate_flow(systems, ctx, horizon).ticks)
    return {"ticks": ticks}, [ticks]


def _cmd_simultaneity(args):
    _require(args, "finite", math.isfinite, "theta1", "theta2", "t1", "t2")
    ctx = ThermalContext()
    thetas = (args.theta1, args.theta2)
    counts = (args.s1, args.t1, args.s2, args.t2)
    if None not in thetas and set(counts) == {None}:
        theta1, theta2 = thetas
    elif set(thetas) == {None} and None not in counts:
        theta1 = state_count(EntropyValue(args.s1), args.t1, ctx)
        theta2 = state_count(EntropyValue(args.s2), args.t2, ctx)
    else:
        raise InvalidState(
            "give either --theta1/--theta2 or all of --s1/--t1/--s2/--t2"
        )
    if args.vmax is not None:
        v_max = args.vmax
    elif args.entropy is not None:
        v_max = process_velocity(EntropyValue(args.entropy), ctx)
    else:
        raise InvalidState("give --vmax or --entropy to fix the maximal velocity")
    offset = simultaneity_offset(theta1, theta2, v_max)
    payload = {"offset": offset, "theta1": theta1, "theta2": theta2, "vMax": v_max}
    return payload, [(offset,)]


# --- parser / dispatch ---


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise InvalidState (exit 1)."""

    def error(self, message):
        raise InvalidState(message)


# Built once per process; reusing it is safe because no argument has a
# mutable default and parse_args leaves the parser unchanged.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chronon-lab",
        description="Thermal time quanta, speed limits and conditional entropy, batch style.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, default_format):
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("entropy", help="von Neumann / conditional entropy of a state file")
    common(p, "csv")
    p.add_argument("--state", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--conditional", action="store_true")
    mode.add_argument("--reduce", nargs=2, type=int, metavar=("DIM_S", "DIM_A"))
    mode.add_argument("--measure", metavar="BASIS_FILE")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("conditional", help="conditional density-matrix report")
    common(p, "json")
    p.add_argument("--state", required=True)
    p.add_argument("--trotter-n", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.0)
    p.set_defaults(func=_cmd_conditional)

    p = sub.add_parser("mlcheck", help="orthogonalization-time bound sweep")
    common(p, "json")
    dims = p.add_mutually_exclusive_group()
    dims.add_argument("--dims", default="2,3,4")
    dims.add_argument("--dim", dest="dims", help="single dimension (alias for --dims)")
    p.add_argument("--trials", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_mlcheck)

    p = sub.add_parser("gaussian", help="partition-entropy grid and maxima")
    common(p, "csv")
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--sigma-k0", type=float, default=1.0)
    p.add_argument("--sigma-x0", type=float, default=1.0)
    p.set_defaults(func=_cmd_gaussian)

    p = sub.add_parser("lorentz", help="velocity-bound frame-invariance report")
    common(p, "json")
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--temp-exponent", type=float, default=-1.0)
    p.add_argument("--length-exponent", type=float, default=-1.0)
    p.add_argument("--sigma-k0", type=float, default=1.0)
    p.set_defaults(func=_cmd_lorentz)

    p = sub.add_parser("flow", help="simulate a thermal tick flow")
    common(p, "csv")
    p.add_argument("--config", required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--ratio", nargs=2, metavar=("ID1", "ID2"))
    mode.add_argument("--dilation", metavar="CQ_FILE")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("simultaneity", help="start-offset for two processes")
    common(p, "csv")
    p.add_argument("--theta1", type=float)
    p.add_argument("--theta2", type=float)
    p.add_argument("--s1", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--s2", type=float)
    p.add_argument("--t2", type=float)
    velocity = p.add_mutually_exclusive_group()
    velocity.add_argument("--vmax", type=float)
    velocity.add_argument("--entropy", type=float)
    p.set_defaults(func=_cmd_simultaneity)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, execute one subcommand and write its report;
    returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
        text = render(args.func(args), args.format)
        with (
            open(args.out, "w", encoding="utf-8", newline="\n")
            if args.out
            else contextlib.nullcontext(sys.stdout)
        ) as fh:
            fh.write(text)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChrononError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
