"""JSON encoding for problems, solutions, and certificates.

Complex matrix entries travel as [re, im] pairs inside nested row arrays.
The decoder also accepts bare numbers for real entries, so hand-written
problem files stay pleasant.

``dumps`` writes exactly the text of
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)`` plus a
newline, so outputs stay byte-stable for identical inputs.  It renders a
matrix of [re, im] float pairs in bulk rather than one token at a time,
because the standard encoder drops to pure Python whenever it indents.
``matrix_from_json`` reads a rectangular matrix of plain numbers or pairs
in one NumPy conversion; any other input goes through the per-entry loop,
which alone defines what is accepted and how it is rejected.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .block import BlockProblem, SpectralGap
from .certificates import Certificate
from .solvers import RiccatiSolution

_INDENT = "  "


def matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def matrix_from_json(rows) -> np.ndarray:
    """Complex matrix from rows of bare real numbers or [re, im] pairs."""
    out = _matrix_from_flat(rows)
    return out if out is not None else _matrix_from_entries(rows)


def _flatten_matrix(rows) -> tuple[list, bool] | None:
    """The entries of a rectangular list of rows in row-major order.

    Returns (the entries' two numbers each, True) when every entry is a
    list of length 2, (the entries, False) when not every entry is a list,
    and None when rows is not a non-empty list of equal-width, non-empty
    lists or its list entries have another length.  Callers check the
    value types themselves.
    """
    if type(rows) is not list or not rows or set(map(type, rows)) != {list}:
        return None
    width = len(rows[0])
    if not width or set(map(len, rows)) != {width}:
        return None
    entries = list(chain.from_iterable(rows))
    if set(map(type, entries)) != {list}:
        return entries, False
    if set(map(len, entries)) != {2}:
        return None
    return list(chain.from_iterable(entries)), True


def _matrix_from_flat(rows) -> np.ndarray | None:
    """The matrix of rows in one conversion, or None to leave rows to the loop.

    Takes only rectangular rows of bool/int/float entries or of [re, im]
    lists of them, which the loop accepts too; np.array converts each
    number as float() does, so the values match the loop's bit for bit.
    """
    flat = _flatten_matrix(rows)
    if flat is None or not set(map(type, flat[0])) <= {bool, int, float}:
        return None
    values, pairs = flat
    try:
        real = np.array(values, dtype=float)
    except OverflowError:  # an int beyond float range
        return None
    shape = (len(rows), len(rows[0]))
    # a view keeps the sign of an imaginary -0.0, which re + 1j * im would lose
    return real.view(complex).reshape(shape) if pairs else real.astype(complex).reshape(shape)


def _matrix_from_entries(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix must be a non-empty list of rows")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ValueError("matrix rows must be non-empty and equal length")
    out = np.empty((len(rows), width), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if isinstance(entry, (int, float)):
                out[i, j] = complex(entry)
            elif (
                isinstance(entry, list)
                and len(entry) == 2
                and all(isinstance(x, (int, float)) for x in entry)
            ):
                out[i, j] = complex(entry[0], entry[1])
            else:
                raise ValueError(f"bad matrix entry at ({i}, {j}): {entry!r}")
    return out


def problem_from_dict(obj: dict) -> tuple[BlockProblem, tuple[float, float] | None]:
    """Decode {"A": ..., "B": ..., "C": ..., "gap": [alpha, beta]?}; validates shapes.

    A null gap end is infinite, as ``problem_to_dict`` writes a ray: null
    alpha reads as -inf and null beta as +inf.  [null, null] is rejected,
    and so is any hint without alpha < beta (reversed, empty or NaN).
    """
    if not isinstance(obj, dict):
        raise ValueError("problem JSON must be an object")
    missing = [k for k in ("A", "B", "C") if k not in obj]
    if missing:
        raise ValueError(f"problem JSON lacks keys: {', '.join(missing)}")
    p = BlockProblem(
        A=matrix_from_json(obj["A"]),
        B=matrix_from_json(obj["B"]),
        C=matrix_from_json(obj["C"]),
    )
    gap = obj.get("gap")
    if gap is None:
        return p, None
    if (
        not isinstance(gap, list)
        or len(gap) != 2
        or gap == [None, None]
        or not all(x is None or isinstance(x, (int, float)) for x in gap)
    ):
        raise ValueError('"gap" must be [alpha, beta]')
    alpha, beta = gap
    hint = (-math.inf if alpha is None else float(alpha), math.inf if beta is None else float(beta))
    SpectralGap(*hint)  # raises ValueError unless alpha < beta
    return p, hint


def problem_to_dict(p: BlockProblem, gap: tuple[float, float] | None = None) -> dict:
    out = {"A": matrix_to_json(p.A), "B": matrix_to_json(p.B), "C": matrix_to_json(p.C)}
    if gap is not None:
        out["gap"] = [clean_number(gap[0]), clean_number(gap[1])]
    return out


def clean_number(x):
    """Floats fit for JSON: NaN and infinities become None."""
    x = float(x)
    return x if math.isfinite(x) else None


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "theorem": cert.theorem,
        "hypothesis_ok": cert.hypothesis_ok,
        "bound_value": clean_number(cert.bound_value),
        "observed_value": clean_number(cert.observed_value),
        "margin": clean_number(cert.margin),
        "passed": cert.passed,
        "details": {
            k: (clean_number(v) if isinstance(v, float) else v)
            for k, v in sorted(cert.details.items())
        },
    }


def solution_to_dict(sol: RiccatiSolution) -> dict:
    """The solve payload: X alone, with its norm and residual.

    Z = A + B X and Zhat = C - B* X* are two products away from the
    problem and X, so they are not written.
    """
    return {
        "method": sol.method,
        "x_norm": clean_number(sol.x_norm),
        "residual": clean_number(sol.residual),
        "X": matrix_to_json(sol.X),
    }


def dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n", byte for byte.

    Dict keys must be str; NaN and infinities raise ValueError.
    """
    return _encode(obj, 0) + "\n"


def _encode(o, level: int) -> str:
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if not math.isfinite(o):
            raise ValueError(f"Out of range float values are not JSON compliant: {o!r}")
        return float.__repr__(o)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        text = _encode_pair_matrix(o, level)
        if text is not None:
            return text
        items = [_encode(v, level + 1) for v in o]
        brackets = "[]"
    elif isinstance(o, dict):
        if not o:
            return "{}"
        items = []
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _encode(value, level + 1))
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
    inner = "\n" + _INDENT * (level + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + _INDENT * level + brackets[1]


def _encode_pair_matrix(rows, level: int) -> str | None:
    """_encode of equal-width rows of [re, im] float lists, in bulk; else None."""
    flat = _flatten_matrix(rows)
    if flat is None or not flat[1]:
        return None
    values = flat[0]
    if set(map(type, values)) != {float}:
        return None
    if not all(map(math.isfinite, values)):
        bad = next(x for x in values if not math.isfinite(x))
        raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
    # one %s template for the whole matrix, indented as _encode would
    row_sep = "\n" + _INDENT * (level + 1)
    entry_sep = row_sep + _INDENT
    value_sep = entry_sep + _INDENT
    pair = "[" + value_sep + "%s," + value_sep + "%s" + entry_sep + "]"
    row = "[" + entry_sep + ("," + entry_sep).join([pair] * len(rows[0])) + row_sep + "]"
    template = "[" + row_sep + ("," + row_sep).join([row] * len(rows)) + "\n" + _INDENT * level + "]"
    return template % tuple(map(float.__repr__, values))
