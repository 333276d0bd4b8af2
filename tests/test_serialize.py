"""JSON wire format: [re, im] pairs, round trips, and non-finite handling."""

import json
import math

import numpy as np
import pytest

import riccatilab as rl
from riccatilab.cli import main
from riccatilab.serialize import (
    _matrix_from_entries,
    _matrix_from_flat,
    clean_number,
    dumps,
    matrix_from_json,
    matrix_to_json,
    problem_from_dict,
    problem_to_dict,
    solution_to_dict,
)


def test_matrix_round_trip():
    M = np.array([[1.0 + 2.0j, 0.0], [-0.5j, 3.0]])
    again = matrix_from_json(matrix_to_json(M))
    assert np.array_equal(M, again)


def test_matrix_from_json_accepts_bare_reals():
    M = matrix_from_json([[1, 2], [3, 4]])
    assert np.array_equal(M, np.array([[1.0, 2.0], [3.0, 4.0]]))


def test_matrix_from_json_rejects_ragged_rows():
    with pytest.raises(ValueError):
        matrix_from_json([[1, 2], [3]])
    with pytest.raises(ValueError):
        matrix_from_json([])
    with pytest.raises(ValueError):
        matrix_from_json([[[1, 2, 3]]])


@pytest.mark.parametrize("hint", [(-1.0, 1.0), (-math.inf, 0.5), (0.5, math.inf)])
def test_problem_round_trip_preserves_gap_hint(hint):
    # a ray's infinite end is written as null and read back as infinite
    p = rl.example_problem(1.0, 0.5)
    obj = json.loads(dumps(problem_to_dict(p, gap=hint)))
    q, gap = problem_from_dict(obj)
    assert gap == hint
    assert np.array_equal(p.A, q.A)
    assert np.array_equal(p.B, q.B)
    assert np.array_equal(p.C, q.C)


@pytest.mark.parametrize("hint", [[0.5, 0.2], [math.nan, 1.0], [-1.0, math.nan], [0.3, 0.3]])
def test_problem_from_dict_rejects_a_hint_without_alpha_below_beta(hint):
    # a reversed hint would otherwise name a gap by its midpoint, and a
    # NaN one would fail later as a point on no gap
    obj = problem_to_dict(rl.example_problem(1.0, 0.5))
    obj["gap"] = hint
    with pytest.raises(ValueError, match="empty gap"):
        problem_from_dict(obj)


def test_problem_from_dict_requires_blocks():
    with pytest.raises(ValueError, match="lacks keys"):
        problem_from_dict({"A": [[0.0]], "B": [[0.0]]})


def test_clean_number_maps_nonfinite_to_null():
    assert clean_number(np.inf) is None
    assert clean_number(np.nan) is None
    assert clean_number(1.5) == 1.5


def test_solution_payload_shape():
    p = rl.example_problem(1.0, 0.5)
    sol = rl.solve_spectral(p, rl.select_gap(p))
    payload = solution_to_dict(sol)
    assert set(payload) == {"method", "x_norm", "residual", "X"}
    assert payload["method"] == "spectral"
    assert payload["x_norm"] == pytest.approx(0.5, rel=1e-12)
    assert len(payload["X"]) == 2  # rows of the 2x1 solution


def test_dumps_is_stable_and_bans_nan():
    assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})
    with pytest.raises(ValueError):
        dumps({"x": float("nan")})


@pytest.mark.parametrize(
    "obj",
    [
        float("nan"),
        float("inf"),
        {"x": [1.0, -math.inf]},
        [[[0.0, 1.0]], [[2.0, math.nan]]],
        {"a": [[[1.0, math.inf], [math.nan, 0.0]]]},
    ],
)
def test_dumps_rejects_nonfinite_floats(obj):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        dumps(obj)


def test_dumps_rejects_what_it_cannot_write():
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_cli_payloads_are_one_line_of_canonical_json(capsys, tmp_path):
    spec = rl.GenSpec(11, 16, 48, (-1.0, 1.0), 0.3, 0.5, "interior")
    path = tmp_path / "problem.json"
    path.write_text(dumps(problem_to_dict(rl.generate(spec), gap=spec.gap)))
    assert path.read_text().count("\n") == 1
    commands = [["solve", str(path), "--method", m] for m in ("spectral", "contour", "fixedpoint")]
    commands += [["certify", str(path)], ["factorize", str(path)], ["example", "--d", "1", "--b", "0.5"]]
    for argv in commands:
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("\n"), argv
        assert dumps(json.loads(out)) == out, argv


def uint64_bits(M):
    return np.ascontiguousarray(M).view(np.uint64)


@pytest.mark.parametrize(
    "rows",
    [
        [[True, False], [False, True]],
        [[1, -2], [3, 4]],
        [[1, 2.5], [-0.0, 7]],
        [[2**63, -1]],
        [[2**64 - 1, 2**53 + 1]],
        [[2**64, 1.5]],
        [[[1.0, -0.0], [-0.0, 0.0]]],
        [[[1, 2], [True, 0.5]]],
        [[1.0, [2.0, -0.0]]],
        [[math.nan, [0.0, math.nan]], [[math.inf, -math.inf], 3]],
        [[5e-324, 1e308]],
    ],
)
def test_matrix_from_json_equals_the_entry_loop_bit_for_bit(rows):
    got = matrix_from_json(rows)
    expected = _matrix_from_entries(rows)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(uint64_bits(got), uint64_bits(expected))


def test_matrix_from_json_converts_rectangular_input_in_bulk():
    M = np.array([[1.0 + 2.0j, -0.0j], [3.0, -4.5 - 0.0j]])
    assert _matrix_from_flat(matrix_to_json(M)) is not None
    assert _matrix_from_flat([[1, 2.0], [True, 4]]) is not None
    assert _matrix_from_flat([[1.0, [2.0, 0.0]]]) is None  # mixed entries take the loop


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2], [3]],
        [[[1.0, 2.0]], [[3.0, 4.0], [5.0, 6.0]]],
        [[[1, 2, 3]]],
        [[[1.0]]],
        [["1.0"]],
        [[[1.0, "2"]]],
        [[None]],
        [],
        [[]],
        [[], []],
        [(1.0, 2.0)],
        [[(1.0, 2.0)]],
        [[np.int64(1)]],
        [[10**400]],
        "[[1.0]]",
        {"rows": [[1.0]]},
    ],
)
def test_matrix_from_json_rejects_as_the_entry_loop_does(rows):
    with pytest.raises((ValueError, OverflowError)) as ours:
        matrix_from_json(rows)
    with pytest.raises((ValueError, OverflowError)) as loop:
        _matrix_from_entries(rows)
    assert type(ours.value) is type(loop.value)
    assert str(ours.value) == str(loop.value)
