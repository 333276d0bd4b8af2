"""Instance generation, the random stream, and the sweep CSV surface."""

import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riccatilab as rl
from riccatilab.errors import InfeasibleSpec
from riccatilab.harness import CSV_COLUMNS, realize
from riccatilab.linalg import operator_norm
from riccatilab.rng import SplitMix64, rephased_q

from cli_golden import SWEEP_MIXED_CSV, moved_columns, moved_rows, sweep_mixed_csv


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


# Golden values of the README's random-stream contract.  Uniforms are pure
# integer arithmetic and pinned bit for bit; normals go through libm's
# log, cos and sin and are pinned to 2 ulp; generated spectra pass through
# LAPACK QR and eigh and are pinned to 1e-12.

def _assert_ulp(actual, expected, maxulp=2):
    actual = np.asarray(actual, dtype=complex)
    expected = np.asarray(expected, dtype=complex)
    np.testing.assert_array_max_ulp(actual.real, expected.real, maxulp=maxulp)
    np.testing.assert_array_max_ulp(actual.imag, expected.imag, maxulp=maxulp)


def test_uniform_golden_values():
    assert SplitMix64(0).uniform().hex() == "0x1.c4415072f63b9p-1"
    assert SplitMix64(0).uniform_open().hex() == "0x1.c4415072f63bap-1"
    g = SplitMix64(12345)
    assert (g.uniform().hex(), g.uniform_open().hex()) == (
        "0x1.108c12c54e888p-3",
        "0x1.a376e72fb8a00p-3",
    )


def test_normal_pair_golden_values():
    _assert_ulp(
        SplitMix64(7).normal_pair(),
        [float.fromhex("0x1.5d70229cdee62p+0"), float.fromhex("0x1.27fabdf770e11p-3")],
    )


def test_complex_normal_matrix_golden_values():
    parts = [
        ("0x1.5d70229cdee62p+0", "0x1.27fabdf770e11p-3"),
        ("-0x1.960a61872e247p-2", "-0x1.d21e03d25aea8p-3"),
        ("0x1.26d0bebc9703cp-8", "0x1.426a347623a51p+0"),
        ("-0x1.29461d47f64cep-1", "0x1.16487974b3ad9p+0"),
        ("-0x1.b67fe497fad83p+0", "0x1.0a49c042a3559p+0"),
        ("0x1.07f8b9c875d66p+1", "-0x1.0fff075b1fae3p-1"),
    ]
    expected = np.array(
        [complex(float.fromhex(re), float.fromhex(im)) for re, im in parts]
    ).reshape(2, 3)
    _assert_ulp(SplitMix64(7).complex_normal_matrix(2, 3), expected)


def _scalar_complex_normal_matrix(g, rows, cols):
    # the per-entry Box-Muller the block draw must reproduce bit for bit
    out = np.empty((rows, cols), dtype=complex)
    for i in range(rows):
        for j in range(cols):
            u1 = g.uniform_open()
            u2 = g.uniform()
            r = math.sqrt(-2.0 * math.log(u1))
            out[i, j] = complex(r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2))
    return out


# seed + 3 * golden is 0 mod 2^64: the block's third counter wraps to exactly 0
_STREAM_SEEDS = [0, 7, 2**64 - 1, (-3 * 0x9E3779B97F4A7C15) % 2**64]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", _STREAM_SEEDS)
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (13, 7), (64, 192)])
def test_complex_normal_matrix_matches_the_scalar_stream(seed, shape):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    got = block.complex_normal_matrix(*shape)
    want = _scalar_complex_normal_matrix(scalar, *shape)
    assert got.shape == shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_normal_pair_matches_the_scalar_stream(seed):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    for _ in range(3):
        got = block.normal_pair()
        want = _scalar_complex_normal_matrix(scalar, 1, 1)[0, 0]
        assert [x.hex() for x in got] == [want.real.hex(), want.imag.hex()]
    assert block.uniform() == scalar.uniform()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", _STREAM_SEEDS)
def test_block_equals_next_u64(seed):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    assert block._block(9).tolist() == [scalar.next_u64() for _ in range(9)]
    assert block._block(0).tolist() == []
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize(
    "placement, eig_A, eig_C, norm_B",
    [
        (
            "interior",
            [-0.7, -0.5979865685195006],
            [-0.9999999999999992, 0.9999999999999999, 1.6129746825466236, 1.7002935135929025],
            0.38729833462074165,
        ),
        (
            "subordinated",
            [-0.8761265474879651, 0.6999999999999998],
            [1.0000000000000004, 1.113450342057155, 1.612974682546625, 1.7002935135929025],
            0.38729833462074165,
        ),
        (
            "overlapping",
            [-1.3668264423302867, -0.9073948518992486],
            [-1.0, 1.0000000000000004, 1.6129746825466253, 1.7002935135929025],
            0.3872983346207417,
        ),
    ],
)
def test_generate_golden_values(placement, eig_A, eig_C, norm_B):
    p = rl.generate(rl.GenSpec(3, 2, 4, (-1.0, 1.0), 0.3, 0.5, placement))
    np.testing.assert_allclose(p.sigma_A, eig_A, rtol=0, atol=1e-12)
    np.testing.assert_allclose(p.eig_C.values, eig_C, rtol=0, atol=1e-12)
    assert p.norm_B == pytest.approx(norm_B, rel=0, abs=1e-12)


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
    for d, b in [(math.inf, 0.5), (math.nan, 0.5), (1.0, math.inf), (1.0, math.nan)]:
        with pytest.raises(InfeasibleSpec):
            rl.ExampleSpec(d=d, b=b)


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
    for bad in [
        {"b_ratio": math.inf},
        {"b_ratio": math.nan},
        {"d_target": math.nan},
        {"gap": (-math.inf, 1.0)},
        {"gap": (-1.0, math.inf)},
        {"gap": (math.nan, 1.0)},
    ]:
        with pytest.raises(InfeasibleSpec):
            rl.GenSpec(**{**good, **bad})


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70, True, 7.0])
def test_gen_spec_rejects_a_seed_outside_the_stream(seed):
    # SplitMix64 takes seeds mod 2^64, so these would alias other seeds
    with pytest.raises(InfeasibleSpec, match="seed="):
        rl.GenSpec(seed, 2, 4, (-1.0, 1.0), 0.3, 0.5)


def test_gen_spec_accepts_both_ends_of_the_seed_range():
    for seed in (0, 2**64 - 1):
        assert rl.GenSpec(seed, 2, 4, (-1.0, 1.0), 0.3, 0.5).seed == seed


def test_generate_hits_gap_endpoints_exactly():
    spec = rl.GenSpec(seed=808, n_A=3, n_C=7, gap=(-1.25, 0.75), d_target=0.4, b_ratio=0.6)
    p = rl.generate(spec)
    c = np.linalg.eigvalsh(p.C)
    assert np.min(np.abs(c - (-1.25))) <= 1e-12
    assert np.min(np.abs(c - 0.75)) <= 1e-12


def test_generate_attains_d_target_exactly():
    spec = rl.GenSpec(seed=809, n_A=2, n_C=5, gap=(-1.0, 1.0), d_target=0.37, b_ratio=0.5)
    p = rl.generate(spec)
    assert rl.dist_spectra(p.sigma_A, p.eig_C.values) == pytest.approx(0.37, abs=1e-12)


def test_generate_scales_coupling_exactly():
    spec = rl.GenSpec(seed=810, n_A=2, n_C=5, gap=(-1.0, 1.0), d_target=0.4, b_ratio=0.6)
    p = rl.generate(spec)
    target = 0.6 * np.sqrt(0.4 * 2.0)
    assert operator_norm(p.B) == pytest.approx(target, abs=1e-12)


def test_generate_zero_ratio_gives_zero_B():
    spec = rl.GenSpec(seed=811, n_A=1, n_C=3, gap=(-1.0, 1.0), d_target=0.3, b_ratio=0.0)
    assert operator_norm(rl.generate(spec).B) == 0.0


@pytest.mark.parametrize("placement", ["interior", "subordinated", "overlapping"])
def test_generate_draws_its_gaussians_as_one_block(placement, monkeypatch):
    # B and both rotations' gaussian matrices come from one stream block
    calls = []
    block = SplitMix64._block

    def counted(self, n):
        calls.append(n)
        return block(self, n)

    monkeypatch.setattr(SplitMix64, "_block", counted)
    for n_A, n_C in ((1, 2), (2, 4), (5, 13)):
        calls.clear()
        rl.generate(rl.GenSpec(21, n_A, n_C, (-1.0, 1.0), 0.3, 0.5, placement))
        assert calls == [2 * (n_A * n_C + n_A * n_A + n_C * n_C)]


def test_one_gaussian_block_is_the_three_consecutive_draws():
    # the README's draw order: B, then unitary(n_A)'s and unitary(n_C)'s
    # matrices; one block of all their entries gives the same values
    for seed, n_A, n_C in ((3, 2, 4), (11, 4, 9)):
        one, three = SplitMix64(seed), SplitMix64(seed)
        g = one.complex_normal_matrix(1, n_A * n_C + n_A * n_A + n_C * n_C)[0]
        B = three.complex_normal_matrix(n_A, n_C)
        state = three._state
        G_A = three.complex_normal_matrix(n_A, n_A)
        G_C = three.complex_normal_matrix(n_C, n_C)
        assert np.array_equal(g, np.concatenate([B.ravel(), G_A.ravel(), G_C.ravel()]))
        assert one._state == three._state
        three._state = state
        assert np.array_equal(rephased_q(G_A), three.unitary(n_A))
        assert np.array_equal(rephased_q(G_C), three.unitary(n_C))


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
    assert p.d == pytest.approx(0.3, abs=1e-12)
    p2, gap2 = realize(rl.ExampleSpec(d=2.0, b=0.5))
    assert (gap2.alpha, gap2.beta) == (-2.0, 2.0)


# ---------------------------------------------------------------- sweep

def test_sweep_row_per_spec_and_columns():
    specs = [rl.ExampleSpec(d=1.0, b=b) for b in (0.0, 0.5, 1.0)]
    result = rl.sweep(specs)
    assert len(result.rows) == 3
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


def test_sweep_keeps_going_and_certifies_a_scaled_row():
    # at this scale eigvals(A+BX) picks up imaginary parts above the
    # absolute spectral tolerance; the spectra taken from the Hermitian
    # compressions are real, so the existence and tan-theta cells are filled
    examples = [rl.ExampleSpec(d=1.0, b=0.5), rl.ExampleSpec(d=1.0, b=0.25)]
    scaled = rl.GenSpec(seed=8, n_A=3, n_C=6, gap=(-1e8, 1e8), d_target=3e7, b_ratio=0.5)
    rows = rl.sweep([examples[0], scaled, examples[1]]).rows
    assert [row["status"] for row in rows] == ["ok", "ok", "ok"]
    assert [rows[0], rows[2]] == rl.sweep(examples).rows
    assert rows[1]["existence_pass"] is True and rows[1]["tan_theta_pass"] is True
    assert rows[1]["existence_margin"] > 0 and rows[1]["tan_theta_margin"] > 0


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


SWEEP_MIXED_CSV_SHA256 = "42483cf5bb11d2a4b1904a6a6cb20ff952376363859834ae8dfe4607f5f8884c"


def test_sweep_mixed_csv_is_pinned():
    # the benchmark's 800-spec grid; any moved bit in any cell (generator,
    # spectral route, certificates, CSV writer) changes the digest, and the
    # kept CSV, itself pinned, names the rows that moved
    kept = SWEEP_MIXED_CSV.read_bytes()
    assert hashlib.sha256(kept).hexdigest() == SWEEP_MIXED_CSV_SHA256, "stale tests/golden/sweep_mixed.csv"
    table = sweep_mixed_csv()
    if hashlib.sha256(table.encode()).hexdigest() != SWEEP_MIXED_CSV_SHA256:
        pytest.fail("the sweep_mixed CSV moved:\n" + "\n".join(moved_rows(kept.decode(), table)))


def test_moved_rows_names_the_seed_and_the_changed_columns():
    kept = SWEEP_MIXED_CSV.read_text(encoding="utf-8")
    lines = kept.splitlines(keepends=True)
    cells = lines[3].split(",")
    column = CSV_COLUMNS.index("x_norm")
    cells[column] = repr(float(np.nextafter(float(cells[column]), np.inf)))
    moved = "".join(lines[:3] + [",".join(cells)] + lines[4:])
    assert moved_rows(kept, kept) == []
    assert moved_rows(kept, moved) == [
        f"row 3, seed {cells[0]}: x_norm: {lines[3].split(',')[column]!r} -> {cells[column]!r}"
    ]
    assert moved_rows(kept, "".join(lines[:-1])) == ["rows: 800 -> 799"]
    # the per-column summary the regeneration script prints for a moved CSV
    old_x, new_x = float(lines[3].split(",")[column]), float(cells[column])
    assert moved_columns(kept, kept) == ["no *_pass or status cell moved"]
    assert moved_columns(kept, moved) == [
        f"x_norm: 1 rows moved, largest move {new_x - old_x:.3g}",
        "no *_pass or status cell moved",
    ]
    cells[CSV_COLUMNS.index("existence_pass")] = "false"
    cells[-1] = "SpectraOverlap\n"
    verdicts = "".join(lines[:3] + [",".join(cells)] + lines[4:])
    assert moved_columns(kept, verdicts)[1:] == [
        "existence_pass: 1 rows moved",
        "status: 1 rows moved",
        "verdict columns moved: existence_pass, status",
    ]


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


def test_sweep_tags_an_instance_that_cannot_be_built():
    # at d = 1e-9 the two eigenvalues of C merge into one cluster around
    # the gap point, so select_gap raises; the row carries the error name,
    # the spec's own cells and nothing else, and the sweep goes on
    good = [rl.ExampleSpec(d=1.0, b=0.5), rl.ExampleSpec(d=1.0, b=0.25)]
    rows = rl.sweep([good[0], rl.ExampleSpec(d=1e-9, b=0.5), good[1]]).rows
    assert [row["status"] for row in rows] == ["ok", "LambdaOnSpectrumOfC", "ok"]
    assert [rows[0], rows[2]] == rl.sweep(good).rows
    filled = {col for col, value in rows[1].items() if value is not None}
    assert filled == {"alpha", "beta", "status"}
    assert (rows[1]["alpha"], rows[1]["beta"]) == (-1e-9, 1e-9)
