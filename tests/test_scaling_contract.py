"""H -> 2^k H is exact: the contract that a power of two scales every output.

A power of two scales every floating-point product, quotient, sum and
square root of a product of two lengths exactly, so on 2^k H each command
should print the output for H, with each dimensional number times 2^k
(4^k for squared quantities) and every dimensionless number, verdict,
applicability and error class unchanged.  The solve, certify and factorize
payloads of the CLI, and the example command's, are compared on the four
reference problems, a seeded slice of the three batteries, the example and
the sqrt(2) witness.

Every route's X holds the contract bit for bit wherever the route returns
at both scales, except where the fixed point takes LAPACK's eig, which
keeps its bits for even k only.  The other outcomes still move through
absolute tolerances; each command and k at which they do is marked with
its cause, ROADMAP item 1, whose scale-aware policy is to lift those marks.
The contract stops where a squared quantity overflows or underflows, at
subnormal data and where LAPACK rescales internally; |k| <= 100 stays
clear of all three on these problems.
"""

import math

import numpy as np
import pytest

import riccatilab as rl
from riccatilab import cli
from riccatilab.linalg import ROW_SOLVE_LIMIT
from riccatilab.rng import SplitMix64

from cli_golden import PROBLEMS
from conftest import (
    MASTER_INTERIOR,
    MASTER_KORINTS,
    MASTER_SUBORDINATED,
    interior_specs,
    subordinated_specs,
)
from test_closed_forms import swap_problem

CONTRACT_K = (-100, -40, -24, -3, 3, 10, 20, 40, 100)
ROUTES = ("spectral", "contour", "fixedpoint")
COMMANDS = ROUTES + ("certify", "factorize", "example")
SLICE = 12

# the power of 2^k by which each payload number scales, by key; a list's
# entries scale like its key, and bound_value, observed_value and margin
# like their certificate's margin (MARGIN_POWER)
POWER = {
    # solve, certify and factorize
    "gap": 1, "gamma": 1, "residual": 1, "x_norm": 0, "X": 0,
    # certificate details
    "d": 1, "gap_length": 1, "b_norm": 1, "coupling_norm": 2, "denominator": 2,
    "hypothesis_threshold": 1, "delta": 1, "delta_tilde": 1, "delta_minus": 1,
    "delta_plus": 1, "enclosure_lower": 1, "enclosure_upper": 1, "split_at": 1,
    "separation_floor": 2, "separation_achieved": 2, "ahat_interval_top": 2,
    # factorize; "defect" is compared on its own
    "lower": 1, "upper": 1, "w_min_singular_value": 0,
    # example
    "A": 1, "B": 1, "C": 1, "X_exact": 0,
}
MARGIN_POWER = {
    "existence_1i": 1, "contraction_1ii": 0, "tan_theta_2": 0,
    "apriori_bound": 0, "tan_2theta_dk": 0, "squared_subordination": 2,
}


def battery_slice(specs, seed, count=6):
    """count distinct specs, drawn by SplitMix64(seed)."""
    rng, picked = SplitMix64(seed), []
    while len(picked) < count:
        i = rng.next_u64() % len(specs)
        if i not in picked:
            picked.append(i)
    return [specs[i] for i in picked]


def contract_cases():
    """name -> (H -> its 2^k H for a factor t, gap point of t, example spec or None)."""
    cases = {}

    def generated(name, spec):
        p = rl.generate(spec)
        point = cli._hint_point(*spec.gap)
        cases[name] = (lambda t: rl.BlockProblem(p.A * t, p.B * t, p.C * t), lambda t: point * t, None)

    for name, spec in PROBLEMS.items():
        generated(name, spec)
    for battery, specs in (
        ("interior", interior_specs(500, MASTER_INTERIOR)),
        ("korints", interior_specs(300, MASTER_KORINTS, shrink_to_contraction=True)),
        ("subordinated", subordinated_specs(200, MASTER_SUBORDINATED)),
    ):
        for spec in battery_slice(specs, seed=24, count=SLICE):
            generated(f"{battery}-seed{spec.seed}", spec)
    example = rl.ExampleSpec(d=1.0, b=0.5)
    cases["example-d1-b0.5"] = (
        lambda t: rl.ExampleSpec(example.d * t, example.b * t).problem(),
        lambda t: cli._hint_point(*example.gap) * t,
        lambda t: rl.ExampleSpec(example.d * t, example.b * t),
    )
    for a in (0.0, 0.5):
        # just below the sharp threshold b^2 = 2 (a + d) d, with the default gap
        p = swap_problem(a, 0.3, 0.999 * math.sqrt(2 * (a + 0.3) * 0.3))
        cases[f"swap-a{a}"] = (lambda t, p=p: rl.BlockProblem(p.A * t, p.B * t, p.C * t), lambda t: None, None)
    return cases


def attempt(work):
    """work(), or the class name of the RiccatiLabError it raised."""
    try:
        return work()
    except rl.RiccatiLabError as err:
        return type(err).__name__


def outcome(p, point, example):
    """What the solve (each route), certify, factorize and example commands print for p."""
    out = {} if example is None else {"example": cli._example_payload(example)}
    gap = attempt(lambda: rl.select_gap(p, point))
    work = {method: lambda method=method: cli._solve_payload(p, gap, method) for method in ROUTES}
    work["certify"] = lambda: cli._certify_payload(p, gap)
    work["factorize"] = lambda: cli._factorize_payload(p, gap)
    # the CLI selects the gap first, so a gap it cannot select fails each command
    out.update((command, gap if isinstance(gap, str) else attempt(w)) for command, w in work.items())
    return out


@pytest.fixture(scope="module")
def outcomes():
    """{(case, k): outcome at 2^k H} for k = 0 and every k of CONTRACT_K."""
    table = {}
    for name, (problem, point, example) in contract_cases().items():
        for k in (0,) + CONTRACT_K:
            t = 2.0**k
            table[name, k] = outcome(problem(t), point(t), None if example is None else example(t))
    return table


def scaled_back(value, k, power=0):
    """value with each number divided by 2^(power k), through dicts and lists;
    a dict's keys set the power of their values (POWER, MARGIN_POWER)."""
    if isinstance(value, dict):
        margin = MARGIN_POWER.get(value.get("theorem"), 0)
        return {
            key: scaled_back(v, k, margin if key in ("bound_value", "observed_value", "margin") else POWER.get(key, 0))
            for key, v in value.items()
        }
    if isinstance(value, list):
        return [scaled_back(v, k, power) for v in value]
    if isinstance(value, float):
        return math.ldexp(value, -power * k)
    return value


def moved(old, new, path=""):
    """One line per leaf where two payloads differ, by dotted path."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [line for key in {**old, **new} for line in moved(old.get(key), new.get(key), f"{path}.{key}")]
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [line for i, (a, b) in enumerate(zip(old, new)) for line in moved(a, b, f"{path}[{i}]")]
    return [] if old == new else [f"{path}: {old!r} -> {new!r}"]


def without_defect(out):
    """out without the factorize payload's defect, which is compared on its own."""
    factorize = out.get("factorize")
    if not isinstance(factorize, dict):
        return out
    return {**out, "factorize": {key: v for key, v in factorize.items() if key != "defect"}}


def item_1(cause):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item 1: {cause}")


MARGINS = item_1(
    "the absolute spectral margins and slacks (1e-8) reach across the gap ends "
    "and merge eigenvalues of C once H is scaled by 2^-24 or less"
)
SQUARED = item_1(
    "the absolute squared slack (1e-9) stops covering the squared certificate's "
    "rounding-sized margin on n_A = 1 equality cases once it scales by 4^k, k >= 10"
)
INSET = item_1(
    "factorization_grid's absolute inset (8e-8) is below half an ulp of the gap "
    "ends from 2^40 up, so a grid point lands on sigma(C)"
)
# not a tolerance: the one route outcome that moves
EIG = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 24: LAPACK's eig (zgeev), which the fixed point takes "
    "from n_A n_C >= 512 on, keeps its bits under 2^k H for even k only",
)


def outcome_marks(command, k):
    if k <= -24 and command != "example":
        return MARGINS
    if command == "certify" and k >= 10:
        return SQUARED
    if command == "factorize" and k >= 40:
        return INSET
    if command == "fixedpoint" and k % 2:
        return EIG
    return ()


def cases_of(outcomes):
    return sorted({name for name, _ in outcomes})


@pytest.mark.parametrize(
    "route, k",
    [pytest.param(route, k, marks=EIG if route == "fixedpoint" and k % 2 else ()) for route in ROUTES for k in CONTRACT_K],
)
def test_each_route_X_keeps_its_bits_under_power_of_two_scaling(outcomes, route, k):
    # wherever the route returns at both scales; bits, so -0.0 and 0.0 differ
    for case in cases_of(outcomes):
        base, scaled = outcomes[case, 0].get(route), outcomes[case, k].get(route)
        if isinstance(base, dict) and isinstance(scaled, dict):
            X0, Xk = (np.asarray(out["X"], dtype=float) for out in (base, scaled))
            assert X0.tobytes() == Xk.tobytes(), f"{case}: the {route} X moved at 2^{k} H"


@pytest.mark.parametrize(
    "command, k",
    [pytest.param(command, k, marks=outcome_marks(command, k)) for command in COMMANDS for k in CONTRACT_K],
)
def test_every_outcome_is_exact_under_power_of_two_scaling(outcomes, command, k):
    # a command's payload scaled back, or the class of the error it raised
    lines = [
        f"{case}: {command}{line}"
        for case in cases_of(outcomes)
        for line in moved(
            without_defect(outcomes[case, 0]).get(command),
            scaled_back(without_defect(outcomes[case, k]), k).get(command),
        )
    ]
    assert not lines, "\n".join(lines[:30])


@item_1("factorization_grid's inset (8e-8) is absolute, and the defect ||D|| / (1 + ||M||) adds a pure number to a length")
def test_the_factorization_defect_is_exact_under_power_of_two_scaling(outcomes):
    lines = []
    for case in cases_of(outcomes):
        base = outcomes[case, 0].get("factorize")
        for k in CONTRACT_K:
            scaled = outcomes[case, k].get("factorize")
            if isinstance(base, dict) and isinstance(scaled, dict) and base["defect"] != scaled["defect"]:
                lines.append(f"{case} at 2^{k} H: {base['defect']!r} -> {scaled['defect']!r}")
    assert not lines, "\n".join(lines[:30])


@pytest.fixture(scope="module")
def battery_give_ups(battery500):
    """(problem, gap point, message) of each interior battery fixed point that gives up at H."""
    give_ups = []
    for s, p, gap, _ in battery500.items:
        try:
            rl.solve_fixedpoint(p, gap)
        except rl.RiccatiLabError as err:
            give_ups.append((p, (s.gap[0] + s.gap[1]) / 2, f"{type(err).__name__}: {err}"))
    return give_ups


@pytest.mark.parametrize("k", (-3, 3, 10))
def test_the_fixed_point_gives_up_at_the_same_step_under_power_of_two_scaling(battery_give_ups, k):
    # the cycle stops compare norms and ratios of norms of the iterates,
    # which a power of two leaves exact, so each of the 24 period-2 cycles
    # (all on the row path) stops at the same step, and every give-up
    # message is the one at H
    assert sum("period-2 cycle at step " in message for _, _, message in battery_give_ups) == 24
    t = 2.0**k
    for p, point, message in battery_give_ups:
        assert p.n_A * p.n_C < ROW_SOLVE_LIMIT
        scaled = rl.BlockProblem(p.A * t, p.B * t, p.C * t)
        with pytest.raises(rl.RiccatiLabError) as err:
            rl.solve_fixedpoint(scaled, rl.select_gap(scaled, point * t))
        assert f"{err.type.__name__}: {err.value}" == message
