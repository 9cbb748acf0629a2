"""The one text table format of every CSV and model file: a header line, then
comma-joined cells, floats as their shortest round-trip ``repr`` (same bits read back);
and the one typed reader of the JSON records beside them."""

import math

import numpy as np


def float_cells(values):
    """An iterator over the cells of ``values`` (any shape, C order): the ``repr`` of each as a
    Python float, never of a numpy scalar, whose ``repr`` is ``np.float64(...)`` under NumPy 2."""
    return map(repr, np.asarray(values, dtype=float).ravel().tolist())


def table_text(header: str, rows, end: str = "\r\n") -> str:
    """``header``, then one comma-joined line per row of text cells; every line ends with ``end``."""
    return end.join([header, *map(",".join, rows), ""])


def table_lines(header: str, rows, end: str = "\r\n"):
    """The lines of :func:`table_text`, each made only when it is asked for, so
    a writer can stream a table that is never held whole.  ``table_text`` keeps
    its own one-join form: a generator frame per row made the 50 field files of
    a Laplace ``eval`` about 0.3 s slower."""
    yield header + end
    for row in rows:
        yield ",".join(row) + end


def parse_floats(cells, where: str) -> np.ndarray:
    """``cells`` as floats; a ``ValueError`` names ``where`` for a non-numeric or non-finite cell."""
    try:
        values = np.array(cells, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{where}: non-finite value {values[~finite][0]}")
    return values


def json_field(payload: dict, name: str, kind: type, prefix: str = ""):
    """``payload[name]`` if it is a JSON value of ``kind`` (``float`` admits
    integers but not NaN or infinities, no kind admits booleans); else a
    ``ValueError`` naming the field."""
    if name not in payload:
        raise ValueError(f"sidecar field {prefix + name!r} is missing")
    value = payload[name]
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        label = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}
        raise ValueError(f"sidecar field {prefix + name!r} must be {label[kind]}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"sidecar field {prefix + name!r} must be finite, got {value!r}")
    return value


def json_numbers(payload: dict, name: str, count: int, prefix: str = "") -> tuple:
    """``payload[name]`` as a tuple of ``count`` (2 or 3) finite numbers; else a
    ``ValueError`` naming the field."""
    values = json_field(payload, name, list, prefix)
    if len(values) != count:
        words = {2: "two", 3: "three"}
        raise ValueError(f"sidecar field {prefix + name!r} must be {words[count]} numbers, got {values!r}")
    return tuple(json_field({name: v}, name, float, prefix) for v in values)
