"""Span tracing from outside the program, and the per-layer metrics.

A traced run wraps, from the benchmark's own files, every public function
of the chronon_lab layer modules, the names other modules imported from
them (cli imports most of its work by name), ``cli.run`` itself,
``DensityMatrix.__post_init__`` (state validation) and
``numpy.linalg.eigh`` / ``eigvalsh``.  Each call made inside a job records
a span: name, start, end, parent span, job id, and one number the layer
metrics need (matrix dimension, input bytes, ticks, trials, found flag).
Spans live in flat arrays in memory and are written out when the run ends.
The untraced run wraps nothing.

Leaf scalar helpers (LEAF_HELPERS) stay unwrapped: they run once per
eigenvalue or grid point, so a wrapper would cost more than the call.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from time import perf_counter

import numpy as np

LAYER_MODULES = (
    "serialization",
    "states",
    "linalg",
    "entropy",
    "speed_limits",
    "sweeps",
    "flow",
    "gaussian",
    "relativity",
)
LEAF_HELPERS = frozenset(
    {
        "linalg.dag",
        "linalg.frobenius",
        "linalg.trace_real",
        "linalg.xlnx",
        "gaussian.erf",
        "gaussian.scaled_function_H",
    }
)
EIG_NAMES = ("numpy.linalg.eigh", "numpy.linalg.eigvalsh")
# Dimensions the workloads decompose; any other lands in ".other".
EIG_DIMS = (1, 2, 3, 4, 5, 8, 16, 32, 64)
VALIDATE_NAME = "states.DensityMatrix.__post_init__"


class Tracer:
    """In-memory span store; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.value = array("d")
        self.current_job = -1
        self._stack = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, value: float) -> int:
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.current_job)
        self.value.append(value)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def id_of(self, name: str):
        """Name index, or None if no span of that name was recorded."""
        return self._ids.get(name)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "value": np.frombuffer(self.value, dtype=np.float64),
        }


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    """Span-recording stand-in for fn.

    before(args) gives the span's number up front; after(result) replaces
    it once the call returns.  Calls made outside a job pass straight
    through.
    """
    nid = tracer.name_index(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.current_job < 0:
            return fn(*args, **kwargs)
        i = tracer.open(nid, before(args) if before else 0.0)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after:
            tracer.value[i] = after(result)
        return result

    return traced


def _matrix_dim(args) -> float:
    return float(np.shape(args[0])[-1])


def _file_bytes(args) -> float:
    try:
        return float(os.path.getsize(args[0]))
    except (OSError, TypeError):
        return 0.0


# Numbers recorded on particular spans, by span name.
_BEFORE = {
    "numpy.linalg.eigh": _matrix_dim,
    "numpy.linalg.eigvalsh": _matrix_dim,
    "serialization.load_state": _file_bytes,
}
_AFTER = {
    "flow.simulate_flow": lambda r: float(len(r.ticks)),
    "sweeps.ml_bound_sweep": lambda r: float(len(r.trials)),
    "speed_limits.orthogonalization_time": lambda r: float(r.t_orth is not None),
}


class Installed:
    """The wraps one traced run made; undo() puts the originals back."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(tracer: Tracer, package) -> Installed:
    """Wrap the program's layer boundaries for tracer; see the module doc."""
    prefix = package.__name__ + "."
    wrappers = {}
    for short in LAYER_MODULES:
        mod = sys.modules[prefix + short]
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in LEAF_HELPERS
            ):
                wrappers[obj] = _wrap(tracer, name, obj, _BEFORE.get(name), _AFTER.get(name))
    cli = sys.modules[prefix + "cli"]
    wrappers[cli.run] = _wrap(tracer, "cli.run", cli.run)

    done = Installed()
    modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(prefix)]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                done.set(mod, attr, wrappers[obj])

    states = sys.modules[prefix + "states"]
    dm = states.DensityMatrix
    done.set(dm, "__post_init__", _wrap(tracer, VALIDATE_NAME, dm.__post_init__))
    for name in EIG_NAMES:
        attr = name.rsplit(".", 1)[1]
        fn = getattr(np.linalg, attr)
        done.set(np.linalg, attr, _wrap(tracer, name, fn, _BEFORE[name]))
    return done


# --- per-layer metrics ---


def _per_name(tracer: Tracer):
    """Per span name: (count, summed duration in s, summed value)."""
    a = tracer.arrays()
    n = len(tracer.names)
    dur = a["end"] - a["start"]
    counts = np.bincount(a["name_id"], minlength=n)
    total = np.bincount(a["name_id"], weights=dur, minlength=n)
    values = np.bincount(a["name_id"], weights=a["value"], minlength=n)
    return {
        name: (int(counts[i]), float(total[i]), float(values[i]))
        for i, name in enumerate(tracer.names)
    }, a, dur


def _self_time(a: dict, dur: np.ndarray, nid: int) -> float:
    """Summed duration of spans nid minus the time their children cover.

    Children of one span run one after another in a single thread, so
    their durations add without overlap.
    """
    mine = a["name_id"] == nid
    has_parent = a["parent"] >= 0
    child_of_mine = np.zeros(len(dur), dtype=bool)
    child_of_mine[has_parent] = mine[a["parent"][has_parent]]
    return float(dur[mine].sum() - dur[child_of_mine].sum())


def eig_calls_per_label(tracer: Tracer, job_labels: dict) -> dict:
    """Mean eigh/eigvalsh calls per job by dimension, for each job class.

    job_labels maps span job ids to job classes, e.g. a conditional job on
    an 8x8 joint: {"eigh.d64": 14.0, "eigvalsh.d64": 5.0, ...}.
    """
    a = tracer.arrays()
    calls: dict[str, dict] = {}
    for name in EIG_NAMES:
        nid = tracer.id_of(name)
        if nid is None:
            continue
        sel = a["name_id"] == nid
        short = name.rsplit(".", 1)[1]
        for job, d in zip(a["job"][sel].tolist(), a["value"][sel].tolist()):
            key = f"{short}.d{int(d)}"
            acc = calls.setdefault(job_labels[job], {})
            acc[key] = acc.get(key, 0) + 1
    jobs = {}
    for label in job_labels.values():
        jobs[label] = jobs.get(label, 0) + 1
    return {
        label: {k: n / jobs[label] for k, n in sorted(calls.get(label, {}).items())}
        for label in sorted(jobs)
    }


def layer_metrics(tracer: Tracer, n_jobs: int, output_bytes: int) -> dict:
    """Per-layer metrics of a traced run, per job unless named per call."""
    stats, a, dur = _per_name(tracer)
    jobs = max(n_jobs, 1)

    def count(name):
        return stats.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return stats.get(name, (0, 0.0, 0.0))[1] * 1e3

    def value(name):
        return stats.get(name, (0, 0.0, 0.0))[2]

    m = {}
    nid = tracer.id_of("cli.run")
    cli_self = 0.0 if nid is None else _self_time(a, dur, nid) * 1e3
    m["cli.self_ms"] = (cli_self / jobs, "ms")
    m["cli.output_bytes"] = (output_bytes / jobs, "bytes")
    m["serialization.load_state_ms"] = (ms("serialization.load_state") / jobs, "ms")
    m["serialization.load_state_calls"] = (count("serialization.load_state") / jobs, "count")
    m["serialization.input_bytes"] = (value("serialization.load_state") / jobs, "bytes")
    m["states.density_validations"] = (count(VALIDATE_NAME) / jobs, "count")
    m["states.density_validate_ms"] = (ms(VALIDATE_NAME) / jobs, "ms")

    for name in EIG_NAMES:
        short = name.rsplit(".", 1)[1]
        by_dim = {}
        nid = tracer.id_of(name)
        if nid is not None:
            sel = a["name_id"] == nid
            dims, calls = np.unique(a["value"][sel].astype(int), return_counts=True)
            by_dim = dict(zip(dims.tolist(), calls.tolist()))
        for d in EIG_DIMS:
            m[f"linalg.{short}_calls.d{d}"] = (by_dim.pop(d, 0) / jobs, "count")
        m[f"linalg.{short}_calls.other"] = (sum(by_dim.values()) / jobs, "count")
    m["linalg.eig_ms"] = (sum(ms(n) for n in EIG_NAMES) / jobs, "ms")
    m["linalg.support_log_calls"] = (count("linalg.support_log") / jobs, "count")
    m["linalg.support_log_ms"] = (ms("linalg.support_log") / jobs, "ms")
    m["linalg.partial_trace_ms"] = (ms("linalg.partial_trace") / jobs, "ms")
    m["linalg.matrix_func_ms"] = (ms("linalg.matrix_func") / jobs, "ms")

    for fn in (
        "generalized_conditional",
        "conditional_density",
        "trotter_conditional_density",
        "cq_conditional",
    ):
        m[f"entropy.{fn}_ms"] = (ms(f"entropy.{fn}") / jobs, "ms")
    m["entropy.von_neumann_calls"] = (count("entropy.von_neumann") / jobs, "count")

    orth = "speed_limits.orthogonalization_time"
    n_orth = count(orth)
    m["speed_limits.orthogonalization_calls"] = (n_orth / jobs, "count")
    m["speed_limits.orthogonalization_time_ms"] = (ms(orth) / max(n_orth, 1), "ms/call")
    m["speed_limits.found_ratio"] = (value(orth) / max(n_orth, 1), "ratio")
    m["speed_limits.antiqubit_process_velocity_ms"] = (
        ms("speed_limits.antiqubit_process_velocity") / jobs,
        "ms",
    )
    m["sweeps.ml_bound_sweep_ms"] = (ms("sweeps.ml_bound_sweep") / jobs, "ms")
    m["sweeps.trials"] = (value("sweeps.ml_bound_sweep") / jobs, "count")

    ticks = value("flow.simulate_flow")
    m["flow.simulate_flow_ms"] = (ms("flow.simulate_flow") / jobs, "ms")
    m["flow.ticks"] = (ticks / jobs, "count")
    m["flow.ns_per_tick"] = (ms("flow.simulate_flow") * 1e6 / ticks if ticks else 0.0, "ns")

    m["gaussian.max_H_calls"] = (count("gaussian.max_H") / jobs, "count")
    m["gaussian.max_H_ms"] = (ms("gaussian.max_H") / jobs, "ms")
    m["gaussian.max_G_ms"] = (ms("gaussian.max_G") / jobs, "ms")
    m["gaussian.partition_entropy_G_calls"] = (
        count("gaussian.partition_entropy_G") / jobs,
        "count",
    )
    m["relativity.check_bound_invariance_ms"] = (
        ms("relativity.check_bound_invariance") / jobs,
        "ms",
    )
    return m
