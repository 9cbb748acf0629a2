"""The one text table format of every CSV and model file: a header line, then
comma-joined cells, floats as their shortest round-trip ``repr`` (same bits read back)."""

import numpy as np


def float_cells(values):
    """An iterator over the cells of ``values`` (any shape, C order): the ``repr`` of each as a
    Python float, never of a numpy scalar, whose ``repr`` is ``np.float64(...)`` under NumPy 2."""
    return map(repr, np.asarray(values, dtype=float).ravel().tolist())


def table_text(header: str, rows, end: str = "\r\n") -> str:
    """``header``, then one comma-joined line per row of text cells; every line ends with ``end``."""
    return end.join([header, *map(",".join, rows), ""])


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
