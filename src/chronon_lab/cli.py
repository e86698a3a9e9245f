"""Batch command-line front end.

Subcommands: entropy, conditional, mlcheck, gaussian, lorentz, flow,
simultaneity.  Output is deterministic for fixed inputs and format (and
mlcheck's --seed): CSV uses '.' decimals, 9 significant digits and LF
endings; the randomized mlcheck sweep draws from numpy's counter-based
Philox generator.

Each subcommand returns one report, ``(payload, rows)``, and writes
nothing.  ``payload`` is the JSON object; ``rows`` lists the CSV lines,
each a tuple of raw values.  ``run`` rejects a payload holding a number
that left the float range (exit 1, naming its key), so no output spells
NaN or Infinity.  ``render`` turns a report into either format as an
iterator of text chunks, and ``run`` alone writes them, one by one, to
stdout or --out; the text of a long table is never held whole.  The CSV
cell rule is ``_cell``: a float has 9 significant digits, None is empty,
a boolean is lowercase and anything else is its ``str``, unquoted.  The
only strings read from input that reach a cell are system ids, which
``flow.SystemSpec`` keeps free of commas, quotes, CR and LF.  A ``_Table``
holds a long table as numpy columns: the floats that vary by row, and the
cells that stay constant within a group of rows (a flow system's quantum
and id).  It formats each group's constant cells once, into one row
template per group, and writes each chunk of CHUNK_ROWS rows with one
%-format over its rows' joined templates: a CSV header line plus one line
per row, or a JSON list of records that it writes itself.  The rest of a
JSON payload goes through one ``json.dumps(..., indent=2, sort_keys=True)``
call, with each table's records spliced in at a placeholder, so the text
is byte for byte what that call would give for the whole payload.

Exit codes: 0 success, 1 invalid input (message names the violated
invariant), 2 numerical failure.  A usage error (unknown flag, bad flag
value, missing argument, or flags that exclude each other) is invalid
input too: exit 1 with one ``error:`` line.  --help exits 0.

Importing this module loads no numpy, dataclasses (nor the inspect it
pulls in), ctypes or json.  It binds every library module in sys.modules
(``_lazy``) and runs each module's code on its first use, so a subcommand
loads only what it calls.  lorentz, simultaneity and flow --ratio compute
with math alone and keep their records in NamedTuples: none of them loads
numpy, dataclasses, inspect or ctypes, and json loads only for JSON output
or a JSON input file.  --help or a usage error runs no lazily bound module
and loads none of the five.  ctypes loads only to pin the threads of a
numpy imported before this module.  Importing it also runs numpy's bundled
OpenBLAS on one thread for the whole process, numpy imported or not,
without starting an OpenBLAS thread where numpy never loads: at the
d <= 64 the subcommands decompose, a second thread doubles the CPU time
and gains no wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import math
import os
import sys
from collections.abc import Iterator
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidState, NumericalError

if TYPE_CHECKING:
    import numpy as np


def _lazy(name: str):
    """Module chronon_lab.<name>, bound now in sys.modules and on the
    package, its code run on first attribute use; a module already
    imported is returned as it is.  Bound on the package, it is what a
    sibling's ``from . import <name>`` takes, still without running it."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[full]


entropy = _lazy("entropy")
flow = _lazy("flow")
gaussian = _lazy("gaussian")
# bound here, linalg is what serialization's ``from . import linalg``
# takes, so flow --ratio stays numpy-free
linalg = _lazy("linalg")
relativity = _lazy("relativity")
serialization = _lazy("serialization")
speed_limits = _lazy("speed_limits")
states = _lazy("states")
sweeps = _lazy("sweeps")

_FLOAT = "{:.9g}"
CHUNK_ROWS = 4096  # most table rows in one chunk of rendered text
# Stands for a _Table in the one json.dumps of a payload; no other payload
# string or key is ever this one.
_SPLICE = "\x00table"


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread: before numpy loads, by
    OPENBLAS_NUM_THREADS, which it reads then (loading it here would start
    its pool); after, by its setter, if numpy.libs has one."""
    if "numpy" not in sys.modules:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        return
    import ctypes

    libs = os.path.join(os.path.dirname(sys.modules["numpy"].__path__[0]), "numpy.libs")
    setters = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
               "openblas_set_num_threads")
    try:
        paths = [os.path.join(libs, name) for name in os.listdir(libs) if "openblas" in name]
        for lib in map(ctypes.CDLL, paths):
            for symbol in setters:
                if hasattr(lib, symbol):
                    getattr(lib, symbol)(1)
                    return
    except OSError:
        pass


_one_blas_thread()


def _cell(value) -> str:
    """One CSV cell under the module's cell rule."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return _FLOAT.format(value) if isinstance(value, float) else str(value)


def _literal(text: str) -> str:
    """text as it stands inside a %-template."""
    return text.replace("%", "%%")


class _Table(NamedTuple):
    """Rows under named columns, a top-level payload value, held as columns.

    The first ``len(values)`` columns vary by row: ``values`` holds each as
    a numpy array of floats.  The remaining columns are constant within a
    group of rows: ``groups`` lists each group's cells for them, and
    ``group`` holds each row's group index (None puts every row in the one
    group).  A flow has one group per system (its quantum and id); the
    gaussian grid has one group and no constant cells.

    Each format builds one %-template per group, with the group's constant
    cells formatted once (a ``%`` in them escaped) and a placeholder for
    each varying cell: ``%.9g`` in CSV, the ``_cell`` rule for a float;
    ``%r`` in JSON, which is ``float.__repr__``.  A chunk of at most
    CHUNK_ROWS rows is one %-format over its rows' joined templates, filled
    with the chunk's values in row-major order.  The JSON records come out
    byte for byte as ``json.dumps(..., indent=2, sort_keys=True)`` writes
    the list: keys in sorted order and constant cells through
    ``json.dumps``.  That needs finite floats, which json would spell
    ``NaN`` or ``Infinity``; flow ticks and the gaussian grid are finite by
    construction (a tick time is at most the finite horizon and its quantum
    is checked finite; the grid has x <= 6 and 0 <= G <= ln 2).
    """

    columns: tuple
    values: tuple
    groups: tuple = ((),)
    group: np.ndarray | None = None

    def _rows(self, templates: list, order, separator: str) -> Iterator[str]:
        """Per chunk, its rows' templates joined by separator and filled by
        one %; order lists the varying columns in placeholder order."""
        import numpy as np

        n = len(self.values[0])
        for start in range(0, n, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            if self.group is None:
                text = separator.join([templates[0]] * min(CHUNK_ROWS, n - start))
            else:
                text = separator.join(map(templates.__getitem__, self.group[rows].tolist()))
            cells = np.stack([self.values[i][rows] for i in order], axis=1)
            yield text % tuple(cells.ravel().tolist())

    def csv_chunks(self):
        """The header line, then the rows, one line each."""
        yield ",".join(self.columns) + "\n"
        k = len(self.values)
        templates = [
            ",".join(["%.9g"] * k + [_literal(_cell(c)) for c in cells]) + "\n"
            for cells in self.groups
        ]
        yield from self._rows(templates, range(k), "")

    def json_chunks(self):
        """The list of records, indented as the value of a top-level key."""
        import json

        k = len(self.values)
        order = sorted(range(len(self.columns)), key=self.columns.__getitem__)

        def field(i, cells):
            value = "%r" if i < k else _literal(json.dumps(cells[i - k]))
            return f"      {_literal(json.dumps(self.columns[i]))}: {value}"

        templates = [
            "    {\n" + ",\n".join(field(i, cells) for i in order) + "\n    }"
            for cells in self.groups
        ]
        separator = "[\n"
        for records in self._rows(templates, [i for i in order if i < k], ",\n"):
            yield separator + records
            separator = ",\n"
        yield "[]" if separator == "[\n" else "\n  ]"


def _json_chunks(payload: dict):
    """json.dumps(payload, indent=2, sort_keys=True) plus a newline, with
    each _Table written by the table itself at a placeholder."""
    import json

    tables = [payload[k] for k in sorted(payload) if isinstance(payload[k], _Table)]
    payload = {k: _SPLICE if isinstance(v, _Table) else v for k, v in payload.items()}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # sort_keys puts the placeholders in the order of the sorted table keys;
    # without a table the split yields the text whole
    head, *tails = text.split(json.dumps(_SPLICE))
    yield head
    for table, tail in zip(tables, tails):
        yield from table.json_chunks()
        yield tail


def render(report: tuple, fmt: str) -> Iterator[str]:
    """The text of a subcommand's (payload, rows) report in fmt, as an
    iterator of chunks; a _Table comes CHUNK_ROWS rows at a time."""
    payload, rows = report
    if fmt == "json":
        yield from _json_chunks(payload)
        return
    for row in rows:
        if isinstance(row, _Table):
            yield from row.csv_chunks()
        else:
            yield ",".join(map(_cell, row)) + "\n"


def _require_finite(value, path: str = "") -> None:
    """InvalidState naming, by its dotted path, the first number of a
    payload that left the float range.  A _Table is not walked: its values
    are finite by construction."""
    for key, item in value.items() if isinstance(value, dict) else enumerate(value):
        if isinstance(item, float):
            if not math.isfinite(item):
                raise InvalidState(f"{path}{key} left the float range, got {item}")
        elif isinstance(item, (dict, list)):
            _require_finite(item, f"{path}{key}.")


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
    state = serialization.load_state(args.state)

    if args.measure is not None:
        basis = serialization.load_state(args.measure)
        if not isinstance(basis, states.CorrelationBasis):
            raise InvalidState(f"{args.measure} is not a correlation-basis file")
        if not isinstance(state, states.StateVector):
            raise InvalidState("--measure needs a state_vector input")
        value = states.measurement_probability(state, basis)
    elif args.reduce is not None:
        if not isinstance(state, states.StateVector):
            raise InvalidState("--reduce needs a state_vector input")
        reduced = states.reduce_over_apparatus(state, *args.reduce)
        value = entropy.von_neumann(linalg.spectrum(reduced))
    elif args.conditional:
        if isinstance(state, states.ClassicalQuantumState):
            value = entropy.cq_conditional(state)
        elif isinstance(state, states.BipartiteState):
            value = entropy.generalized_conditional(state)
        else:
            raise InvalidState("--conditional needs a cq or bipartite input")
    else:
        if isinstance(state, states.StateVector):
            w = linalg.spectrum(state.projector())
        elif isinstance(state, states.ClassicalQuantumState):
            w = linalg.spectrum(state.mixture())
        elif isinstance(state, states.BipartiteState):
            w = state.joint.eigenvalues
        elif isinstance(state, states.DensityMatrix):
            w = state.eigenvalues
        else:
            raise InvalidState("entropy needs a state_vector, density, cq or bipartite input")
        value = entropy.von_neumann(w)
    return {"value": value}, [(value,)]


def _cmd_conditional(args):
    _require(args, ">= 1", _at_least_one, "trotter_n")
    if args.trotter_n is not None:
        entropy.require_trotter_n(args.trotter_n)
    _require(args, "finite", math.isfinite, "eps")
    _require(args, "in [0, 1)", lambda eps: 0.0 <= eps < 1.0, "eps")
    if args.eps is not None and args.trotter_n is None:
        raise InvalidState("--eps applies only with --trotter-n")
    state = serialization.load_state(args.state)
    if isinstance(state, states.ClassicalQuantumState):
        cs = entropy.cq_conditional_state(state)
        branch_value = entropy.cq_conditional(state)
    elif isinstance(state, states.BipartiteState):
        cs = entropy.conditional_state(state)
        branch_value = None
    else:
        raise InvalidState("conditional needs a cq or bipartite input")

    spectrum = [float(w) for w in cs.spectrum]
    payload = {
        "conditionalEntropy": cs.entropy,
        "conditionalSpectrum": spectrum,
        "antiqubitVelocity": speed_limits.antiqubit_process_velocity(cs),
    }
    rows = [("conditionalEntropy", cs.entropy)]
    if branch_value is not None:
        payload["branchConditional"] = branch_value
        rows.append(("branchConditional", branch_value))
    rows.append(("antiqubitVelocity", payload["antiqubitVelocity"]))
    rows += [(f"conditionalEigenvalue{i}", w) for i, w in enumerate(spectrum)]
    if args.trotter_n is not None:
        eps = 0.0 if args.eps is None else args.eps
        distance = cs.trotter_distance(args.trotter_n, eps)
        payload["trotter"] = {"n": args.trotter_n, "eps": eps, "distance": distance}
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
    _require(args, ">= 0", lambda seed: seed >= 0, "seed")
    result = sweeps.ml_bound_sweep(dims, args.trials, args.seed)
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
    grid = _Table(("x", "G", "H"), gaussian.tabulate(args.grid))
    xg, vg = gaussian.max_G()
    xh, vh = gaussian.max_H()
    bounds = {
        "process": gaussian.bound_process_velocity(),
        "classical": gaussian.bound_classical_velocity(args.sigma_k0),
        "resolution": gaussian.bound_resolution_velocity(args.sigma_x0),
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


def _frame(quantities) -> dict:
    frame = quantities._asdict()
    frame["dtMin"] = frame.pop("dt_min")
    frame["velocity"] = quantities.velocity()
    return frame


def _cmd_lorentz(args):
    _require(args, "finite", math.isfinite, "temp_exponent", "length_exponent")
    report = relativity.check_bound_invariance(
        args.sigma_k0, args.v, args.length_exponent, args.temp_exponent
    )
    payload = {
        "gamma": report.gamma,
        "gammaPower": report.gamma_power,
        "restFrame": _frame(report.rest),
        "boostedFrame": _frame(report.boosted),
        "relDiff": report.rel_diff,
        "pass": report.passed,
    }
    rows = [
        ("gamma", report.gamma),
        ("gammaPower", report.gamma_power),
        ("restVelocity", report.rest.velocity()),
        ("boostedVelocity", report.boosted.velocity()),
        ("relDiff", report.rel_diff),
        ("pass", report.passed),
    ]
    return payload, rows


def _cmd_flow(args):
    systems, T, horizon = serialization.load_flow_config(args.config)

    if args.ratio is not None:
        id1, id2 = args.ratio
        named = {sid: [s for s in systems if s.id == sid] for sid in args.ratio}
        if not named[id1] or not named[id2]:
            raise InvalidState("--ratio ids must name configured systems")
        for sid, specs in named.items():
            if len(specs) > 1:
                raise InvalidState(f"--ratio id {sid!r} names {len(specs)} configured systems")
        value = flow.clock_ratio(named[id1][0], named[id2][0])
        return {"ratio": value, "ids": [id1, id2]}, [(value,)]

    if args.dilation is not None:
        cq = serialization.load_state(args.dilation)
        if not isinstance(cq, states.ClassicalQuantumState):
            raise InvalidState("--dilation needs a cq state file")
        dt_cond, dt_marg = flow.dilation_from_conditioning(cq, T)
        payload = {"dtConditional": dt_cond, "dtMarginal": dt_marg}
        return payload, [("conditional", dt_cond), ("marginal", dt_marg)]

    merged = flow.simulate_flow(systems, T, horizon)
    ticks = _Table(("time", "quantum", "systemId"), (merged.ticks,),
                   tuple((dt, sid) for sid, dt in merged.systems), merged.system)
    return {"ticks": ticks}, [ticks]


def _cmd_simultaneity(args):
    _require(args, "finite", math.isfinite, "theta1", "theta2", "t1", "t2")
    thetas = (args.theta1, args.theta2)
    counts = (args.s1, args.t1, args.s2, args.t2)
    if None not in thetas and set(counts) == {None}:
        theta1, theta2 = thetas
    elif set(thetas) == {None} and None not in counts:
        theta1 = speed_limits.state_count(args.s1, args.t1)
        theta2 = speed_limits.state_count(args.s2, args.t2)
    else:
        raise InvalidState(
            "give either --theta1/--theta2 or all of --s1/--t1/--s2/--t2"
        )
    if args.vmax is not None:
        v_max = args.vmax
    elif args.entropy is not None:
        v_max = speed_limits.process_velocity(args.entropy)
    else:
        raise InvalidState("give --vmax or --entropy to fix the maximal velocity")
    offset = flow.simultaneity_offset(theta1, theta2, v_max)
    # inputs first, so a non-finite input is named before the offset it spoils
    payload = {"theta1": theta1, "theta2": theta2, "vMax": v_max, "offset": offset}
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
    p.add_argument("--eps", type=float, default=None)
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


@contextlib.contextmanager
def _output(path: str | None):
    """stdout, or a new file beside path that replaces path only once the
    report is written in full.  The file is opened before any work, so an
    unusable path fails at once; a failed run leaves path as it was and
    removes the new file."""
    if not path:
        yield sys.stdout
        return
    if os.path.isdir(path):
        raise InvalidState(f"--out {path} is a directory")
    partial = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(partial, "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise InvalidState(f"--out {path}: {exc.strerror}") from exc
    try:
        with fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        os.unlink(partial)
        raise


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, execute one subcommand and write its report;
    returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
        with _output(args.out) as fh:
            report = args.func(args)
            _require_finite(report[0])
            fh.writelines(render(report, args.format))
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
