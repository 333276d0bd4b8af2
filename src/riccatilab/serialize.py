"""JSON encoding for problems, solutions, and certificates.

Complex matrix entries travel as [re, im] pairs inside nested row arrays.
The decoder also accepts bare numbers for real entries, so hand-written
problem files stay pleasant.

``dumps`` writes one line of canonical JSON (sorted keys, the standard
encoder's default separators) plus a newline, so outputs stay
byte-stable for identical inputs; ``python -m json.tool --indent 2
--sort-keys`` lays it out for reading.  Input may use any whitespace.
``matrix_from_json`` reads a rectangular matrix of plain numbers or pairs
in one NumPy conversion; any other input goes through the per-entry loop,
which alone defines what is accepted and how it is rejected.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .block import BlockProblem, SpectralGap
from .certificates import Certificate
from .solvers import RiccatiSolution


def matrix_to_json(M) -> list:
    M = np.asarray(M, dtype=complex)
    return np.stack([M.real, M.imag], -1).tolist()


def matrix_from_json(rows) -> np.ndarray:
    """Complex matrix from rows of bare real numbers or [re, im] pairs."""
    out = _matrix_from_flat(rows)
    return out if out is not None else _matrix_from_entries(rows)


def _matrix_from_flat(rows) -> np.ndarray | None:
    """The matrix of rows in one conversion, or None to leave rows to the loop.

    Takes only a non-empty list of equal-width, non-empty lists whose
    entries are all bool/int/float or all [re, im] lists of them, which
    the loop accepts too; np.array converts each number as float() does,
    so the values match the loop's bit for bit.
    """
    if type(rows) is not list or not rows or set(map(type, rows)) != {list}:
        return None
    width = len(rows[0])
    if not width or set(map(len, rows)) != {width}:
        return None
    values = list(chain.from_iterable(rows))
    pairs = set(map(type, values)) == {list}
    if pairs:
        if set(map(len, values)) != {2}:
            return None
        values = list(chain.from_iterable(values))
    if not set(map(type, values)) <= {bool, int, float}:
        return None
    try:
        real = np.array(values, dtype=float)
    except OverflowError:  # an int beyond float range
        return None
    shape = (len(rows), width)
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
            k: clean_number(v) if isinstance(v, float) else v for k, v in cert.details.items()
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
    """One-line canonical JSON: sorted keys, default separators, a newline.

    NaN and infinities raise ValueError, as allow_nan=False makes them.
    """
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"
