"""Instance generation, the random stream, and the sweep CSV surface."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riccatilab as rl
from riccatilab.errors import InfeasibleSpec
from riccatilab.harness import CSV_COLUMNS, realize
from riccatilab.linalg import operator_norm
from riccatilab.rng import SplitMix64


# ---------------------------------------------------------------- rng

def test_splitmix64_reference_stream():
    # published reference outputs for the splitmix64 stream; any other
    # implementation (any language) must reproduce these exactly
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    g = SplitMix64(0x123456789ABCDEF)
    assert g.next_u64() == 0x157A3807A48FAA9D


def test_splitmix64_seed_masking():
    # seeds are taken mod 2^64
    a = SplitMix64(2**64 + 5)
    b = SplitMix64(5)
    assert a.next_u64() == b.next_u64()


@given(st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_uniform_in_unit_interval(seed):
    g = SplitMix64(seed)
    u = g.uniform()
    assert 0.0 <= u < 1.0
    v = g.uniform_open()
    assert 0.0 < v < 1.0


def test_normal_pair_deterministic():
    x1 = SplitMix64(42).normal_pair()
    x2 = SplitMix64(42).normal_pair()
    assert x1 == x2
    assert all(np.isfinite(x1))


def test_unitary_is_unitary():
    for n in (1, 2, 5):
        U = SplitMix64(7).unitary(n)
        assert operator_norm(U @ U.conj().T - np.eye(n)) <= 1e-13


def test_complex_normal_matrix_shape_and_determinism():
    A = SplitMix64(3).complex_normal_matrix(2, 3)
    B = SplitMix64(3).complex_normal_matrix(2, 3)
    assert A.shape == (2, 3)
    assert np.array_equal(A, B)


# ---------------------------------------------------------------- generator

def test_example_problem_and_solution_are_consistent():
    for d, b in [(0.5, 0.1), (1.0, 1.0), (2.0, 1.2)]:
        p = rl.example_problem(d, b)
        X = rl.exact_example_solution(d, b)
        assert rl.residual(p, X) <= 1e-13 * (1 + b)
        assert operator_norm(X) == pytest.approx(b / d, rel=1e-13)


def test_example_spec_validation():
    with pytest.raises(InfeasibleSpec):
        rl.ExampleSpec(d=0.0, b=0.5)
    with pytest.raises(InfeasibleSpec):
        rl.ExampleSpec(d=1.0, b=-0.1)


def test_gen_spec_validation():
    good = dict(seed=1, n_A=2, n_C=4, gap=(-1.0, 1.0), d_target=0.5, b_ratio=0.5)
    rl.GenSpec(**good)
    with pytest.raises(InfeasibleSpec):
        rl.GenSpec(**{**good, "d_target": 1.5})  # above half the gap length
    with pytest.raises(InfeasibleSpec):
        rl.GenSpec(**{**good, "d_target": 0.0})
    with pytest.raises(InfeasibleSpec):
        rl.GenSpec(**{**good, "b_ratio": -0.5})
    with pytest.raises(InfeasibleSpec):
        rl.GenSpec(**{**good, "gap": (1.0, -1.0)})
    with pytest.raises(InfeasibleSpec):
        rl.GenSpec(**{**good, "placement": "sideways"})
    with pytest.raises(InfeasibleSpec):
        rl.GenSpec(**{**good, "n_A": 0})


def test_generate_hits_gap_endpoints_exactly():
    spec = rl.GenSpec(seed=808, n_A=3, n_C=7, gap=(-1.25, 0.75), d_target=0.4, b_ratio=0.6)
    p = rl.generate(spec)
    c = np.linalg.eigvalsh(p.C)
    assert np.min(np.abs(c - (-1.25))) <= 1e-12
    assert np.min(np.abs(c - 0.75)) <= 1e-12


def test_generate_attains_d_target_exactly():
    spec = rl.GenSpec(seed=809, n_A=2, n_C=5, gap=(-1.0, 1.0), d_target=0.37, b_ratio=0.5)
    p = rl.generate(spec)
    assert rl.dist_spectra(p.A, p.C) == pytest.approx(0.37, abs=1e-12)


def test_generate_scales_coupling_exactly():
    spec = rl.GenSpec(seed=810, n_A=2, n_C=5, gap=(-1.0, 1.0), d_target=0.4, b_ratio=0.6)
    p = rl.generate(spec)
    target = 0.6 * np.sqrt(0.4 * 2.0)
    assert operator_norm(p.B) == pytest.approx(target, abs=1e-12)


def test_generate_zero_ratio_gives_zero_B():
    spec = rl.GenSpec(seed=811, n_A=1, n_C=3, gap=(-1.0, 1.0), d_target=0.3, b_ratio=0.0)
    assert operator_norm(rl.generate(spec).B) == 0.0


def test_generate_is_bit_deterministic():
    spec = rl.GenSpec(seed=812, n_A=3, n_C=6, gap=(-1.0, 1.0), d_target=0.3, b_ratio=0.7)
    p1, p2 = rl.generate(spec), rl.generate(spec)
    assert np.array_equal(p1.A, p2.A)
    assert np.array_equal(p1.B, p2.B)
    assert np.array_equal(p1.C, p2.C)


def test_generate_subordinated_orders_spectra():
    spec = rl.GenSpec(
        seed=813, n_A=2, n_C=4, gap=(0.0, 1.0), d_target=0.3, b_ratio=1.5,
        placement="subordinated",
    )
    p = rl.generate(spec)
    a, c = np.linalg.eigvalsh(p.A), np.linalg.eigvalsh(p.C)
    assert a.max() < c.min()
    assert c.min() - a.max() == pytest.approx(0.3, abs=1e-12)


def test_generate_overlapping_interleaves():
    spec = rl.GenSpec(
        seed=814, n_A=4, n_C=6, gap=(-1.0, 1.0), d_target=0.2, b_ratio=0.5,
        placement="overlapping",
    )
    p = rl.generate(spec)
    a, c = np.linalg.eigvalsh(p.A), np.linalg.eigvalsh(p.C)
    # hulls overlap: sigma(A) is not confined to the gap
    assert a.min() < c.max() and c.min() < a.max()


def test_realize_returns_the_named_gap():
    spec = rl.GenSpec(seed=815, n_A=2, n_C=5, gap=(-1.0, 1.0), d_target=0.3, b_ratio=0.5)
    p, gap = realize(spec)
    assert (gap.alpha, gap.beta) == pytest.approx((-1.0, 1.0), abs=1e-12)
    assert gap.d == pytest.approx(0.3, abs=1e-12)
    p2, gap2 = realize(rl.ExampleSpec(d=2.0, b=0.5))
    assert (gap2.alpha, gap2.beta) == (-2.0, 2.0)


# ---------------------------------------------------------------- sweep

def test_sweep_row_per_spec_and_columns():
    specs = [rl.ExampleSpec(d=1.0, b=b) for b in (0.0, 0.5, 1.0)]
    result = rl.sweep(specs)
    assert len(result.rows) == 3
    assert result.columns == CSV_COLUMNS
    assert CSV_COLUMNS[:10] == (
        "seed", "n_A", "n_C", "alpha", "beta", "d", "b", "method", "residual", "x_norm",
    )


def test_sweep_example_rows_reproduce_the_norm():
    result = rl.sweep([rl.ExampleSpec(d=1.0, b=0.25)])
    row = result.rows[0]
    assert row["x_norm"] == pytest.approx(0.25, rel=1e-12)
    assert row["existence_pass"] is True
    assert row["status"] == "ok"


def test_sweep_contraction_frontier_flips_at_d():
    bs = [0.95, 0.98, 0.99, 1.00, 1.01, 1.05]
    result = rl.sweep([rl.ExampleSpec(d=1.0, b=b) for b in bs])
    passes = [row["contraction_pass"] for row in result.rows]
    assert passes == [True, True, True, False, False, False]
    # ||X|| = b/d exactly in exact arithmetic; allow roundoff at the ulp
    norms = [row["x_norm"] for row in result.rows]
    assert all(x >= 1.0 - 1e-12 for x in norms[3:])


def test_sweep_existence_beyond_contraction():
    # between d and sqrt(2) d the solution exists but is not a contraction
    result = rl.sweep([rl.ExampleSpec(d=1.0, b=1.40), rl.ExampleSpec(d=1.0, b=1.45)])
    first, second = result.rows
    assert first["existence_pass"] is True
    assert first["contraction_pass"] is False
    # 1.45 > sqrt(2): even the existence hypothesis fails
    assert second["existence_pass"] is False


def test_sweep_tags_failed_instances():
    # this seed interleaves sigma(A) and sigma(C) so the gap subspace has
    # the wrong dimension; the row must carry the failure tag, not vanish
    bad = rl.GenSpec(
        seed=4824385676517010403, n_A=2, n_C=4, gap=(-1.0, 1.0),
        d_target=0.3, b_ratio=0.8, placement="overlapping",
    )
    result = rl.sweep([rl.ExampleSpec(d=1.0, b=0.5), bad])
    assert len(result.rows) == 2
    row = result.rows[1]
    assert row["status"] == "WrongSubspaceDimension"
    assert row["existence_pass"] is None
    assert row["x_norm"] is None


def test_sweep_keeps_going_past_an_uncertifiable_row():
    # at this scale sigma(A+BX) picks up imaginary parts above the absolute
    # spectral tolerance, so some certificates cannot be evaluated; that
    # must empty their cells, not abort the whole grid
    examples = [rl.ExampleSpec(d=1.0, b=0.5), rl.ExampleSpec(d=1.0, b=0.25)]
    scaled = rl.GenSpec(seed=8, n_A=3, n_C=6, gap=(-1e8, 1e8), d_target=3e7, b_ratio=0.5)
    rows = rl.sweep([examples[0], scaled, examples[1]]).rows
    assert [row["status"] for row in rows] == ["ok", "ok", "ok"]
    assert [rows[0], rows[2]] == rl.sweep(examples).rows


def test_sweep_csv_is_deterministic():
    specs = [rl.ExampleSpec(d=1.0, b=0.3),
             rl.GenSpec(seed=99, n_A=2, n_C=4, gap=(-1.0, 1.0), d_target=0.3, b_ratio=0.5)]
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        rl.sweep(specs).write_csv(buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]
    header = outs[0].splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert len(outs[0].splitlines()) == 3


def test_sweep_csv_empty_cells_for_missing_values():
    bad = rl.GenSpec(
        seed=4824385676517010403, n_A=2, n_C=4, gap=(-1.0, 1.0),
        d_target=0.3, b_ratio=0.8, placement="overlapping",
    )
    buf = io.StringIO()
    rl.sweep([bad]).write_csv(buf)
    data_line = buf.getvalue().splitlines()[1]
    cells = data_line.split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert cells[CSV_COLUMNS.index("x_norm")] == ""
    assert cells[CSV_COLUMNS.index("status")] == "WrongSubspaceDimension"
