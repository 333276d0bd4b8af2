"""Shared instance batteries.

The expensive fixtures are session scoped because several test modules
(and the acceptance suite) probe the same seeded instances from different
angles.  Generation is deterministic, so sharing them loses nothing.
"""

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

import riccatilab as rl
from riccatilab.linalg import _row_systems, _solve_in_eig_C
from riccatilab.rng import SplitMix64

pytest_plugins = ["pytester"]

MASTER_INTERIOR = 20260817
MASTER_KORINTS = 71043
MASTER_SUBORDINATED = 424242
MASTER_OVERLAPPING = 515151


def interior_specs(count, master_seed, shrink_to_contraction=False):
    """Derive a battery of generator specs from a single master seed.

    Every number comes from one splitmix stream, so the whole battery is
    pinned by the master seed alone.  With shrink_to_contraction the
    coupling ratio is scaled below sqrt(1 - d/|gap|), which turns the
    existence hypothesis ||B|| < sqrt(d |gap|) into the stronger
    contraction hypothesis ||B|| < sqrt(d (|gap| - d)).
    """
    m = SplitMix64(master_seed)
    specs = []
    for _ in range(count):
        seed = m.next_u64()
        n_A = 1 + m.next_u64() % 6
        n_C = 2 + m.next_u64() % 11
        alpha = -(0.5 + m.uniform())
        beta = 0.5 + m.uniform()
        length = beta - alpha
        d_target = (0.08 + 0.34 * m.uniform()) * length
        ratio = 0.05 + 0.90 * m.uniform()
        if shrink_to_contraction:
            ratio *= np.sqrt(1.0 - d_target / length)
        specs.append(
            rl.GenSpec(
                seed=seed,
                n_A=n_A,
                n_C=n_C,
                gap=(alpha, beta),
                d_target=d_target,
                b_ratio=ratio,
                placement="interior",
            )
        )
    return specs


def subordinated_specs(count, master_seed):
    m = SplitMix64(master_seed)
    specs = []
    for _ in range(count):
        seed = m.next_u64()
        n_A = 1 + m.next_u64() % 6
        n_C = 1 + m.next_u64() % 12
        beta = 0.5 + m.uniform()
        d_target = (0.05 + 0.40 * m.uniform()) * beta
        # the tan 2-theta bound needs no smallness of B, so push the
        # ratio well past 1 on purpose
        ratio = 0.1 + 1.9 * m.uniform()
        specs.append(
            rl.GenSpec(
                seed=seed,
                n_A=n_A,
                n_C=n_C,
                gap=(0.0, beta),
                d_target=d_target,
                b_ratio=ratio,
                placement="subordinated",
            )
        )
    return specs


def sylvester_in_eig_C(Z, c, G, floor=-math.inf):
    """linalg._solve_in_eig_C with its row systems built for this one Z, as
    solve_fixedpoint builds them once for all its steps; _row_systems, read
    at call time, picks the row or the eig path."""
    return _solve_in_eig_C(Z, c, G, floor, _row_systems(c, G))


@dataclass
class Battery:
    """Solved instances plus the wall time spent generating and solving."""

    items: list  # (spec, problem, gap, solution) tuples
    gen_solve_seconds: float


def _solve_battery(specs):
    t0 = time.perf_counter()
    items = []
    for s in specs:
        p = rl.generate(s)
        gap = rl.select_gap(p, (s.gap[0] + s.gap[1]) / 2)
        items.append((s, p, gap, rl.solve_spectral(p, gap)))
    return Battery(items, time.perf_counter() - t0)


@pytest.fixture(scope="session")
def battery500():
    """500 interior instances under the existence hypothesis."""
    return _solve_battery(interior_specs(500, MASTER_INTERIOR))


@pytest.fixture(scope="session")
def battery300():
    """300 interior instances under the contraction hypothesis."""
    return _solve_battery(interior_specs(300, MASTER_KORINTS, shrink_to_contraction=True))


@pytest.fixture(scope="session")
def battery200_subordinated():
    specs = subordinated_specs(200, MASTER_SUBORDINATED)
    t0 = time.perf_counter()
    items = [(s, rl.generate(s)) for s in specs]
    return Battery(items, time.perf_counter() - t0)


def overlapping_stream(master_seed):
    """Overlapping-placement specs drawn from one master seed, endlessly."""
    m = SplitMix64(master_seed)
    while True:
        seed = m.next_u64()
        n_A = 1 + m.next_u64() % 4
        n_C = 2 + m.next_u64() % 9
        alpha = -(0.5 + m.uniform())
        beta = 0.5 + m.uniform()
        length = beta - alpha
        d_target = (0.08 + 0.30 * m.uniform()) * length
        ratio = 0.05 + 0.85 * m.uniform()
        yield rl.GenSpec(
            seed=seed,
            n_A=n_A,
            n_C=n_C,
            gap=(alpha, beta),
            d_target=d_target,
            b_ratio=ratio,
            placement="overlapping",
        )


def overlapping_specs(count, master_seed):
    """The first count specs of overlapping_stream, none filtered out."""
    return list(itertools.islice(overlapping_stream(master_seed), count))


def sweep_mixed_grid():
    """The 800-spec grid of bench/workloads.py's sweep_mixed, in its order:
    500 interior, 200 subordinated and the first 100 unfiltered overlapping
    specs."""
    return (
        interior_specs(500, MASTER_INTERIOR)
        + subordinated_specs(200, MASTER_SUBORDINATED)
        + overlapping_specs(100, MASTER_OVERLAPPING)
    )


@pytest.fixture(scope="session")
def overlapping100():
    """100 overlapping-placement instances on which a graph solution exists.

    Overlapping placement gives no existence guarantee, so instances where
    the spectral route fails are skipped until 100 usable ones accumulate.
    """
    items = []
    attempts = 0
    for s in itertools.islice(overlapping_stream(MASTER_OVERLAPPING), 3000):
        attempts += 1
        p = rl.generate(s)
        gap = rl.select_gap(p, (s.gap[0] + s.gap[1]) / 2)
        try:
            sol = rl.solve_spectral(p, gap)
        except rl.RiccatiLabError:
            continue
        items.append((s, p, gap, sol))
        if len(items) == 100:
            break
    assert len(items) == 100, f"only {len(items)} usable instances in {attempts} attempts"
    return Battery(items, 0.0)
