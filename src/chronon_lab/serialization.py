"""Decoding of the JSON state files and flow configs the CLI reads.

Matrix encoding:

    {"rows": n, "cols": m, "data": [[re, im], ...]}   # row-major

State files carry a "kind" discriminator:

    {"kind": "state_vector", "matrix": {... rows x 1 ...}}
    {"kind": "density",      "matrix": {...}}
    {"kind": "cq",           "branches": [{"p": 0.5, "matrix": {...}}, ...]}
    {"kind": "bipartite",    "dimA": a, "dimB": b, "matrix": {...}}

Correlation bases for the measurement operator:

    {"kind": "correlation_basis", "system": [matrix, ...], "apparatus": [matrix, ...]}

A matrix's rows and cols, and a cq file's embedding dimension d*n, are
checked against ``linalg.MAX_DIM`` before the work they size.

Flow configs, each system a ``flow.SystemSpec``, T (default 1) and the
horizon positive and finite:

    {"systems": [{"id": "a", "entropyNats": 0.69}, ...], "T": 1.0, "horizon": 10.0}
"""

from __future__ import annotations

import json
from itertools import chain
from typing import TYPE_CHECKING

from . import flow, linalg, speed_limits, states
from .errors import InvalidState

# numpy loads inside the matrix codec, so read_json loads without it
if TYPE_CHECKING:
    import numpy as np


def decode_matrix(obj: dict) -> np.ndarray:
    """Matrix from its encoding.  rows and cols are checked against
    ``linalg.MAX_DIM`` before any entry is converted."""
    import numpy as np

    rows = _field(obj, "rows", _integer)
    cols = _field(obj, "cols", _integer)
    data = _field(obj, "data", list)
    if rows < 1 or cols < 1:
        raise InvalidState(f"matrix dimensions must be positive, got {rows}x{cols}")
    linalg.require_within_cap(max(rows, cols), "matrix dimension")
    if len(data) != rows * cols:
        raise InvalidState(
            f"matrix data length {len(data)} != rows*cols = {rows * cols}"
        )
    try:
        flat = np.fromiter(_entry_numbers(data), np.float64, 2 * len(data))
    except (TypeError, OverflowError) as exc:
        raise InvalidState(f"malformed matrix object: {exc}") from exc
    return flat.view(np.complex128).reshape(rows, cols)


def _entry_numbers(data: list) -> list:
    """re, im, re, im, ... of the entries, each a [re, im] pair of JSON
    numbers; a bool, a string or null raises InvalidState, not a conversion."""
    if set(map(len, data)) != {2}:
        raise InvalidState("malformed matrix object: each entry must be a [re, im] pair")
    flat = list(chain.from_iterable(data))
    other = set(map(type, flat)) - {int, float}
    if other:
        names = ", ".join(sorted(t.__name__ for t in other))
        raise InvalidState(f"malformed matrix object: entries must be numbers, got {names}")
    return flat


def _decode_vector(obj: dict) -> np.ndarray:
    m = decode_matrix(obj)
    if m.shape[1] != 1:
        raise InvalidState(f"expected a column vector, got {m.shape}")
    return m.reshape(-1)


def _field(obj: dict, name: str, convert):
    """convert(obj[name]); a missing or malformed field raises InvalidState
    naming it."""
    if not isinstance(obj, dict):
        raise InvalidState(
            f"expected a JSON object with field {name!r}, got {type(obj).__name__}"
        )
    if name not in obj:
        raise InvalidState(f"missing field {name!r}")
    try:
        return convert(obj[name])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidState(f"field {name!r} is malformed: {exc}") from exc


def _integer(value) -> int:
    """A size read from JSON: an integral number as an int.  A bool, a
    string or a fraction such as 2.5 raises InvalidState, not a truncation."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InvalidState(f"expected an integer, got {value!r}")


def _number(value) -> float:
    """A real number read from JSON, as a float.  A bool or a string such
    as "1.5" raises InvalidState, not a conversion."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise InvalidState(f"expected a number, got {value!r}")


def decode_state(obj: dict):
    kind = _field(obj, "kind", str)
    if kind == "state_vector":
        return states.StateVector(_field(obj, "matrix", _decode_vector))
    if kind == "density":
        return states.DensityMatrix(_field(obj, "matrix", decode_matrix))
    if kind == "cq":
        branches = [(_field(b, "p", _number), _field(b, "matrix", decode_matrix))
                    for b in _field(obj, "branches", list)]
        # the embedding's dimension d*n, capped before any branch is validated
        linalg.require_within_cap(sum(len(m) for _, m in branches), "tensor product dimension")
        return states.ClassicalQuantumState(
            tuple((p, states.DensityMatrix(m)) for p, m in branches))
    if kind == "bipartite":
        return states.BipartiteState(
            joint=states.DensityMatrix(_field(obj, "matrix", decode_matrix)),
            dim_a=_field(obj, "dimA", _integer),
            dim_b=_field(obj, "dimB", _integer),
        )
    if kind == "correlation_basis":
        system = _field(obj, "system", list)
        apparatus = _field(obj, "apparatus", list)
        return states.CorrelationBasis(
            system_basis=tuple(states.StateVector(_decode_vector(m)) for m in system),
            apparatus_basis=tuple(states.StateVector(_decode_vector(m)) for m in apparatus),
        )
    raise InvalidState(f"unknown state kind {kind!r}")


def read_json(path: str):
    """The parsed JSON file at path.  Text that is not JSON, or that nests
    too deeply to parse, raises InvalidState naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise InvalidState(f"{path}: invalid JSON: {exc}") from exc


def load_state(path: str):
    return decode_state(read_json(path))


def load_flow_config(path: str) -> tuple[list, float, float]:
    """Systems, temperature and horizon of the flow config at path, checked
    whatever the mode reads of them."""
    cfg = read_json(path)
    try:
        systems = [flow.SystemSpec(id=s["id"], entropy=_number(s["entropyNats"]))
                   for s in cfg["systems"]]
        temperature = _number(cfg.get("T", 1.0))
        horizon = _number(cfg["horizon"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidState(f"{path}: malformed flow config: {exc}") from exc
    return (systems, speed_limits.require_positive("T", temperature),
            speed_limits.require_positive("horizon", horizon))
