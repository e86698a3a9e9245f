"""Independent check of every job's output.

Uses numpy and the standard library only and never imports chronon_lab,
so a defect in the program cannot hide in its own oracle.  Numbers are
compared, not bytes: every value must lie within TOL_REL * |ref| + TOL_ABS
of the reference, which covers the 9 significant digits of CSV output.
Byte identity is the test suite's job.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL_REL = 1e-8
TOL_ABS = 1e-10
ML_SLACK_TOL = 1e-9
LORENTZ_REL_TOL = 1e-12
MAX_H_REF_XTOL = 1e-13

# Captured at import, before a traced run wraps numpy.linalg, so the
# oracle's own decompositions are never counted as program work.
_eigvalsh = np.linalg.eigvalsh


class Mismatch(Exception):
    """An output that disagrees with the check; the message says how."""


# --- reference values, computed once per input ---


def von_neumann(rho: np.ndarray) -> float:
    w = _eigvalsh(rho)
    return float(-sum(x * math.log(x) for x in w if x > 0.0))


def conditional_entropy(rho: np.ndarray, dim_a: int, dim_b: int) -> float:
    """S(AB) - S(B), tracing out the first factor by reshaping."""
    rho_b = np.einsum("ijil->jl", rho.reshape(dim_a, dim_b, dim_a, dim_b))
    return von_neumann(rho) - von_neumann(rho_b)


def branch_entropy(probs, mats) -> float:
    return float(sum(p * von_neumann(m) for p, m in zip(probs, mats)))


def _binary_entropy(p: float) -> float:
    return -sum(x * math.log(x) for x in (p, 1.0 - p) if x > 0.0)


def _partition_g(x: float) -> float:
    return _binary_entropy(math.erf(x))


def _max_h() -> float:
    """max_x G(x) x by a dense grid plus ternary refinement."""
    xs = np.linspace(0.0, 6.0, 6001)
    i = int(np.argmax([_partition_g(x) * x for x in xs]))
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    while hi - lo > MAX_H_REF_XTOL:
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if _partition_g(m1) * m1 < _partition_g(m2) * m2:
            lo = m1
        else:
            hi = m2
    x = 0.5 * (lo + hi)
    return _partition_g(x) * x


MAX_G_REF = math.log(2.0)
MAX_H_REF = _max_h()


# --- comparison helpers ---


def _close(name: str, got, ref: float, slack: float = 0.0) -> None:
    """got == ref within the tolerance, widened by slack where a value was
    derived from other rounded outputs."""
    try:
        val = float(got)
    except (TypeError, ValueError):
        raise Mismatch(f"{name}: not a number: {got!r}") from None
    if not abs(val - ref) <= TOL_REL * abs(ref) + TOL_ABS + slack:
        raise Mismatch(f"{name}: {val!r} != reference {ref!r}")


def _equal(name: str, got, ref) -> None:
    if got != ref:
        raise Mismatch(f"{name}: {got!r} != {ref!r}")


# Output format each subcommand uses when --format is not given.
_DEFAULT_FORMAT = {
    "conditional": "json",
    "entropy": "csv",
    "mlcheck": "json",
    "gaussian": "csv",
    "lorentz": "json",
    "flow": "csv",
    "simultaneity": "csv",
}


def _is_json(argv) -> bool:
    if "--format" in argv:
        return argv[argv.index("--format") + 1] == "json"
    return _DEFAULT_FORMAT[argv[0]] == "json"


def _csv_pairs(text: str) -> dict:
    pairs = {}
    for line in text.splitlines():
        key, _, value = line.partition(",")
        pairs[key] = value
    return pairs


def _json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None


# --- per-command checks ---


def _check_conditional_report(values: dict, spectrum: list, ref: dict, trotter) -> None:
    s = ref["conditional"]
    _close("conditionalEntropy", values["conditionalEntropy"], s)
    if "branch" in ref:
        _close("branchConditional", values["branchConditional"], ref["branch"])
    _equal("spectrum length", len(spectrum), ref["dim"])
    spectrum = [float(w) for w in spectrum]
    if min(spectrum) < -TOL_ABS:
        raise Mismatch(f"negative conditional eigenvalue {min(spectrum)!r}")
    # antiqubit velocity 4kT(S - E0)/h with E0 = -ln(lambda_max), natural
    # units; a printed lambda_max carries relative error up to TOL_REL.
    _close(
        "antiqubitVelocity",
        values["antiqubitVelocity"],
        4.0 * (s + math.log(max(spectrum))),
        slack=4.0 * TOL_REL,
    )
    if trotter is not None:
        d = float(trotter)
        if not (math.isfinite(d) and d >= 0.0):
            raise Mismatch(f"trotter distance {d!r} is not a finite distance")


def _check_conditional(argv, out, ref) -> None:
    trotter = "--trotter-n" in argv
    if not _is_json(argv):
        pairs = _csv_pairs(out)
        spectrum = [pairs[f"conditionalEigenvalue{i}"] for i in range(ref["dim"])]
        _check_conditional_report(
            pairs, spectrum, ref, pairs["trotterDistance"] if trotter else None
        )
        return
    report = _json(out)
    if trotter:
        n = int(argv[argv.index("--trotter-n") + 1])
        _equal("trotter.n", report["trotter"]["n"], n)
    _check_conditional_report(
        report,
        report["conditionalSpectrum"],
        ref,
        report["trotter"]["distance"] if trotter else None,
    )


def _check_entropy(argv, out, ref) -> None:
    _close("entropy", out.strip(), ref["conditional"])


def _check_mlcheck(argv, out, ref) -> None:
    if not _is_json(argv):
        pairs = _csv_pairs(out)
        found, violations = int(pairs["found"]), int(pairs["violations"])
        min_slack = float(pairs["minSlack"]) if pairs["minSlack"] else None
    else:
        report = _json(out)
        _equal("dims", report["dims"], ref["dims"])
        _equal("trialsPerDim", report["trialsPerDim"], ref["trials"])
        _equal("seed", report["seed"], ref["seed"])
        found, violations, min_slack = (
            report["found"],
            report["violations"],
            report["minSlack"],
        )
    total = ref["trials"] * len(ref["dims"])
    if not 0 <= found <= total:
        raise Mismatch(f"found {found} outside [0, {total}]")
    _equal("violations", violations, 0)
    if found and (min_slack is None or min_slack < -ML_SLACK_TOL):
        raise Mismatch(f"minSlack {min_slack!r} below -{ML_SLACK_TOL}")


def _flow_rates(ref) -> dict:
    """Ticks per unit time 4kTS/h for every active system."""
    return {
        s["id"]: 4.0 * ref["T"] * s["entropyNats"]
        for s in ref["systems"]
        if s["entropyNats"] > 0.0
    }


def _flow_csv_columns(out: str, codes: dict) -> tuple:
    """(times, quanta, id codes) of a flow CSV.

    Each system id is replaced by its code, so the body parses as one float
    array; no string per field is made, and at most two copies of the body
    live at once, so the check's memory stays below the program's, which
    peak_rss_mb measures.
    """
    end = out.find("\n")
    _equal("csv header", out[:end], "time,quantum,systemId")
    rows = out.count("\n") - 1
    if not out.endswith("\n"):
        raise Mismatch("flow CSV does not end with a newline")
    if sum(out.count(f",{sid}\n") for sid in codes) != rows:
        raise Mismatch("flow CSV rows do not all end in a known system id")
    body = out[end + 1 : -1]
    for sid, code in codes.items():
        body = body.replace(f",{sid}", f",{code}")
    body = body.replace("\n", ",")
    try:
        values = np.fromstring(body, sep=",")
    except ValueError:
        raise Mismatch("flow CSV rows are not time,quantum,<known system id>") from None
    del body
    if len(values) != 3 * rows:
        raise Mismatch("flow CSV rows do not have three fields")
    return values[0::3], values[1::3], values[2::3]


def _tick_tuple(pairs):
    """json object hook: a tick becomes a (time, quantum, systemId) tuple."""
    obj = dict(pairs)
    if obj.keys() == {"time", "quantum", "systemId"}:
        return obj["time"], obj["quantum"], obj["systemId"]
    return obj


def _flow_json_columns(out: str, codes: dict) -> tuple:
    try:
        ticks = json.loads(out, object_pairs_hook=_tick_tuple)["ticks"]
    except json.JSONDecodeError as exc:
        raise Mismatch(f"output is not JSON: {exc}") from None
    times = np.fromiter((t[0] for t in ticks), float, len(ticks))
    quanta = np.fromiter((t[1] for t in ticks), float, len(ticks))
    ids = np.fromiter((codes[t[2]] for t in ticks), float, len(ticks))
    return times, quanta, ids


def _check_flow_ticks(argv, out, ref) -> None:
    rates = _flow_rates(ref)
    # Codes in id order, so comparing codes compares ids.
    codes = {sid: code for code, sid in enumerate(sorted(rates))}
    if _is_json(argv):
        times, quanta, ids = _flow_json_columns(out, codes)
    else:
        times, quanta, ids = _flow_csv_columns(out, codes)
    if np.any(np.diff(times) < 0.0):
        raise Mismatch("tick times decrease")
    # Printed CSV times can tie where the exact times differ, so the id
    # tie-break is checked on JSON's full-precision times only.
    ties = np.diff(times) == 0.0
    if _is_json(argv) and np.any(ids[1:][ties] < ids[:-1][ties]):
        raise Mismatch("equal tick times not ordered by system id")
    for sid, rate in rates.items():
        mine = ids == codes[sid]
        n = int(mine.sum())
        _equal(f"ticks of {sid}", n, math.floor(ref["horizon"] * rate))
        dt = 1.0 / rate
        expected = np.arange(1, n + 1) * dt
        tol = TOL_REL * expected + TOL_ABS
        if np.any(np.abs(times[mine] - expected) > tol):
            raise Mismatch(f"tick times of {sid} are not multiples of {dt!r}")
        if np.any(np.abs(quanta[mine] - dt) > TOL_REL * dt + TOL_ABS):
            raise Mismatch(f"quantum of {sid} != {dt!r}")
    _equal("tick count", len(ids), sum(math.floor(ref["horizon"] * r) for r in rates.values()))


def _check_flow(argv, out, ref) -> None:
    fmt_json = _is_json(argv)
    if "--ratio" in argv:
        a, b = ref["ratio_ids"]
        by_id = {s["id"]: s["entropyNats"] for s in ref["systems"]}
        value = _json(out)["ratio"] if fmt_json else out.strip()
        _close("ratio", value, by_id[b] / by_id[a])
    elif "--dilation" in argv:
        if fmt_json:
            report = _json(out)
            cond, marg = report["dtConditional"], report["dtMarginal"]
        else:
            pairs = _csv_pairs(out)
            cond, marg = pairs["conditional"], pairs["marginal"]
        _close("dtConditional", cond, 1.0 / (4.0 * ref["T"] * ref["branch"]))
        _close("dtMarginal", marg, 1.0 / (4.0 * ref["T"] * ref["mixture"]))
    else:
        _check_flow_ticks(argv, out, ref)


def _check_gaussian(argv, out, ref) -> None:
    grid = np.linspace(0.0, 6.0, ref["grid"])
    if _is_json(argv):
        report = _json(out)
        rows = [(r["x"], r["G"], r["H"]) for r in report["grid"]]
        max_g, max_h = report["maxG"]["value"], report["maxH"]["value"]
        bounds = report["bounds"]
        process, classical, resolution = (
            bounds["process"],
            bounds["classical"],
            bounds["resolution"],
        )
    else:
        lines = out.splitlines()
        _equal("csv header", lines[0], "x,G,H")
        n = ref["grid"]
        rows = [line.split(",") for line in lines[1 : n + 1]]
        tail = {line.split(",")[0]: line.split(",")[2] for line in lines[n + 1 :]}
        max_g, max_h = tail["max_G"], tail["max_H"]
        process, classical, resolution = (
            tail["bound_process"],
            tail["bound_classical"],
            tail["bound_resolution"],
        )
    _equal("grid rows", len(rows), len(grid))
    for x_ref, (x, g, h) in zip(grid, rows):
        g_ref = _partition_g(float(x_ref))
        _close("grid x", x, float(x_ref))
        _close(f"G({x_ref:.6g})", g, g_ref)
        _close(f"H({x_ref:.6g})", h, g_ref * float(x_ref))
    _close("maxG", max_g, MAX_G_REF)
    _close("maxH", max_h, MAX_H_REF)
    _close("bound_process", process, 4.0 * MAX_G_REF)
    _close("bound_classical", classical, 4.0 * MAX_H_REF * ref["sigma_k0"])
    _close("bound_resolution", resolution, 1.0 / ref["sigma_x0"])


def _check_lorentz(argv, out, ref) -> None:
    if not _is_json(argv):
        pairs = _csv_pairs(out)
        passed, gamma, rel = pairs["pass"] == "true", pairs["gamma"], float(pairs["relDiff"])
    else:
        report = _json(out)
        passed, gamma, rel = report["pass"] is True, report["gamma"], report["relDiff"]
    if not passed or rel > LORENTZ_REL_TOL:
        raise Mismatch(f"(-1, -1) invariance check did not pass: relDiff {rel!r}")
    _close("gamma", gamma, 1.0 / math.sqrt(1.0 - ref["v"] ** 2))


def _check_simultaneity(argv, out, ref) -> None:
    value = _json(out)["offset"] if _is_json(argv) else out.strip()
    _close("offset", value, (ref["theta2"] - ref["theta1"]) / ref["vmax"])


_CHECKS = {
    "conditional": _check_conditional,
    "entropy": _check_entropy,
    "mlcheck": _check_mlcheck,
    "flow": _check_flow,
    "gaussian": _check_gaussian,
    "lorentz": _check_lorentz,
    "simultaneity": _check_simultaneity,
}


def check(argv, exit_code, out: str, ref: dict) -> str | None:
    """None if the job's output is right, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code!r}"
    try:
        _CHECKS[argv[0]](argv, out, ref)
    except Mismatch as exc:
        return str(exc)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
