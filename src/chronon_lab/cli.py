"""Batch command-line front end.

Subcommands: entropy, conditional, mlcheck, gaussian, lorentz, flow,
simultaneity.  Output is deterministic for fixed inputs and format (and
mlcheck's --seed): CSV uses '.' decimals, 9 significant digits and LF
endings; the randomized mlcheck sweep draws from numpy's counter-based
Philox generator.
Exit codes: 0 success, 1 invalid input (message names the violated
invariant), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

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
from .serialization import load_state
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


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out_path: str | None) -> None:
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", out_path)


def _emit_kv_csv(pairs: list[tuple[str, str]], out_path: str | None) -> None:
    lines = [f"{k},{v}" for k, v in pairs]
    _emit("\n".join(lines) + "\n", out_path)


def _require(args, rule: str, holds, *names: str) -> None:
    """InvalidState naming the first given flag whose value breaks rule."""
    for name in names:
        value = getattr(args, name)
        if value is not None and not holds(value):
            raise InvalidState(f"--{name.replace('_', '-')} must be {rule}, got {value}")


def _at_least_one(n: int) -> bool:
    return n >= 1


# --- subcommands ---


def _cmd_entropy(args) -> int:
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
        value = von_neumann(state).nats

    if args.format == "json":
        _emit_json({"value": value}, args.out)
    else:
        _emit(_fmt(value) + "\n", args.out)
    return 0


def _cmd_conditional(args) -> int:
    _require(args, ">= 1", _at_least_one, "trotter_n")
    _require(args, "finite", math.isfinite, "eps")
    _require(args, "in [0, 1)", lambda eps: 0.0 <= eps < 1.0, "eps")
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
    value = cs.entropy.nats
    spectrum = [float(w) for w in cs.spectrum]
    report = {
        "conditionalEntropy": value,
        "conditionalSpectrum": spectrum,
        "antiqubitVelocity": antiqubit_process_velocity(cs, ThermalContext()),
    }
    if branch_value is not None:
        report["branchConditional"] = branch_value
    if args.trotter_n is not None:
        approx = trotter_conditional_density(bi, args.trotter_n, eps=args.eps)
        report["trotter"] = {
            "n": args.trotter_n,
            "eps": args.eps,
            "distance": frobenius(approx - cs.density),
        }

    if args.format == "csv":
        pairs = [("conditionalEntropy", _fmt(value))]
        if branch_value is not None:
            pairs.append(("branchConditional", _fmt(branch_value)))
        pairs.append(("antiqubitVelocity", _fmt(report["antiqubitVelocity"])))
        for i, w in enumerate(spectrum):
            pairs.append((f"conditionalEigenvalue{i}", _fmt(w)))
        if args.trotter_n is not None:
            pairs.append(("trotterDistance", _fmt(report["trotter"]["distance"])))
        _emit_kv_csv(pairs, args.out)
    else:
        _emit_json(report, args.out)
    return 0


def _cmd_mlcheck(args) -> int:
    dims = [int(d) for d in args.dims.split(",") if d]
    if not dims or any(d < 2 for d in dims):
        raise InvalidState(f"--dims must list integers >= 2, got {args.dims!r}")
    _require(args, ">= 1", _at_least_one, "trials")
    result = ml_bound_sweep(dims, args.trials, args.seed)
    report = {
        "dims": dims,
        "trialsPerDim": args.trials,
        "seed": args.seed,
        "found": result.found,
        "violations": result.violations,
        "minSlack": result.min_slack,
    }
    if args.format == "csv":
        pairs = [
            ("found", str(result.found)),
            ("violations", str(result.violations)),
            ("minSlack", _fmt(result.min_slack) if result.min_slack is not None else ""),
        ]
        _emit_kv_csv(pairs, args.out)
    else:
        _emit_json(report, args.out)
    return 0


def _cmd_gaussian(args) -> int:
    _require(args, ">= 1", _at_least_one, "grid")
    rows = gaussian_mod.tabulate(args.grid)
    xg, vg = gaussian_mod.max_G()
    xh, vh = gaussian_mod.max_H()
    ctx = ThermalContext()
    packet = gaussian_mod.GaussianPacket(sigma_k0=args.sigma_k0)
    bounds = {
        "process": gaussian_mod.bound_process_velocity(ctx),
        "classical": gaussian_mod.bound_classical_velocity(packet, ctx),
        "resolution": gaussian_mod.bound_resolution_velocity(args.sigma_x0, ctx),
    }
    if args.format == "json":
        _emit_json(
            {
                "grid": [{"x": x, "G": g, "H": h} for x, g, h in rows],
                "maxG": {"x": xg, "value": vg},
                "maxH": {"x": xh, "value": vh},
                "bounds": bounds,
                "sigmaK0": args.sigma_k0,
                "sigmaX0": args.sigma_x0,
            },
            args.out,
        )
        return 0
    lines = ["x,G,H"]
    lines += [f"{_fmt(x)},{_fmt(g)},{_fmt(h)}" for x, g, h in rows]
    lines.append(f"max_G,{_fmt(xg)},{_fmt(vg)}")
    lines.append(f"max_H,{_fmt(xh)},{_fmt(vh)}")
    lines.append(f"bound_process,,{_fmt(bounds['process'])}")
    lines.append(f"bound_classical,{_fmt(args.sigma_k0)},{_fmt(bounds['classical'])}")
    lines.append(f"bound_resolution,{_fmt(args.sigma_x0)},{_fmt(bounds['resolution'])}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_lorentz(args) -> int:
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
        "restFrame": {
            "T": report.rest.T,
            "S": report.rest.S.nats,
            "r": report.rest.r,
            "dtMin": report.rest.dt_min.dt,
            "velocity": report.rest_velocity,
        },
        "boostedFrame": {
            "T": report.boosted.T,
            "S": report.boosted.S.nats,
            "r": report.boosted.r,
            "dtMin": report.boosted.dt_min.dt,
            "velocity": report.boosted_velocity,
        },
        "relDiff": report.rel_diff,
        "pass": report.passed,
    }
    if args.format == "csv":
        pairs = [
            ("gamma", _fmt(report.gamma)),
            ("gammaPower", _fmt(report.gamma_power)),
            ("restVelocity", _fmt(report.rest_velocity)),
            ("boostedVelocity", _fmt(report.boosted_velocity)),
            ("relDiff", _fmt(report.rel_diff)),
            ("pass", str(report.passed).lower()),
        ]
        _emit_kv_csv(pairs, args.out)
    else:
        _emit_json(payload, args.out)
    return 0


def _load_flow_config(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidState(f"{path}: invalid JSON: {exc}") from exc
    try:
        systems = [
            SystemSpec(id=str(s["id"]), entropy=EntropyValue(float(s["entropyNats"])))
            for s in cfg["systems"]
        ]
        temperature = float(cfg.get("T", 1.0))
        horizon = float(cfg["horizon"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidState(f"{path}: malformed flow config: {exc}") from exc
    return systems, ThermalContext(T=temperature), horizon


def _cmd_flow(args) -> int:
    systems, ctx, horizon = _load_flow_config(args.config)

    if args.ratio is not None:
        by_id = {s.id: s for s in systems}
        id1, id2 = args.ratio
        if id1 not in by_id or id2 not in by_id:
            raise InvalidState("--ratio ids must name configured systems")
        value = clock_ratio(by_id[id1], by_id[id2])
        if args.format == "json":
            _emit_json({"ratio": value, "ids": [id1, id2]}, args.out)
        else:
            _emit(_fmt(value) + "\n", args.out)
        return 0

    if args.dilation is not None:
        cq = load_state(args.dilation)
        if not isinstance(cq, ClassicalQuantumState):
            raise InvalidState("--dilation needs a cq state file")
        dt_cond, dt_marg = dilation_from_conditioning(cq, ctx)
        if args.format == "json":
            _emit_json(
                {"dtConditional": dt_cond.dt, "dtMarginal": dt_marg.dt}, args.out
            )
        else:
            _emit_kv_csv(
                [("conditional", _fmt(dt_cond.dt)), ("marginal", _fmt(dt_marg.dt))],
                args.out,
            )
        return 0

    result = simulate_flow(systems, ctx, horizon)
    if args.format == "json":
        _emit_json(
            {
                "ticks": [
                    {"time": t.time, "quantum": t.quantum, "systemId": t.system_id}
                    for t in result.ticks
                ]
            },
            args.out,
        )
    else:
        lines = ["time,quantum,systemId"]
        lines += [
            f"{_fmt(t.time)},{_fmt(t.quantum)},{t.system_id}" for t in result.ticks
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simultaneity(args) -> int:
    _require(args, "finite", math.isfinite, "theta1", "theta2", "t1", "t2")
    ctx = ThermalContext()
    if args.theta1 is not None and args.theta2 is not None:
        theta1, theta2 = args.theta1, args.theta2
    elif None not in (args.s1, args.t1, args.s2, args.t2):
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
    if args.format == "json":
        _emit_json(
            {"offset": offset, "theta1": theta1, "theta2": theta2, "vMax": v_max},
            args.out,
        )
    else:
        _emit(_fmt(offset) + "\n", args.out)
    return 0


# --- parser / dispatch ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--conditional", action="store_true")
    p.add_argument("--reduce", nargs=2, type=int, metavar=("DIM_S", "DIM_A"))
    p.add_argument("--measure", metavar="BASIS_FILE")
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("conditional", help="conditional density-matrix report")
    common(p, "json")
    p.add_argument("--state", required=True)
    p.add_argument("--trotter-n", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.0)
    p.set_defaults(func=_cmd_conditional)

    p = sub.add_parser("mlcheck", help="orthogonalization-time bound sweep")
    common(p, "json")
    p.add_argument("--dims", default="2,3,4")
    p.add_argument("--dim", dest="dims", help="single dimension (alias for --dims)")
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
    p.add_argument("--ratio", nargs=2, metavar=("ID1", "ID2"))
    p.add_argument("--dilation", metavar="CQ_FILE")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("simultaneity", help="start-offset for two processes")
    common(p, "csv")
    p.add_argument("--theta1", type=float)
    p.add_argument("--theta2", type=float)
    p.add_argument("--s1", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--s2", type=float)
    p.add_argument("--t2", type=float)
    p.add_argument("--vmax", type=float)
    p.add_argument("--entropy", type=float)
    p.set_defaults(func=_cmd_simultaneity)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute one subcommand; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ChrononError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
