"""All roots of small problems: the uniqueness class singles out one.

Every solution X of X A - C X + X B X = B* has a graph that is an
H-invariant subspace of dimension n_A.  When sigma(H) is simple these are
the n_A-subsets S of H's eigenvectors whose upper block V1 is invertible,
with X_S = V2 V1^{-1} (Lancaster & Rodman, Algebraic Riccati Equations,
1995).  Enumerating them is an oracle independent of every route: exactly
one root may pass uniqueness_class_check, and it must be the spectral X,
the contour X and every converged fixed-point X.
"""

import itertools
import math

import numpy as np

import riccatilab as rl
import riccatilab.certificates as certificates
from riccatilab.errors import IterationDiverged
from riccatilab.linalg import operator_norm
from riccatilab.solvers import RiccatiSolution, uniqueness_class_check

MAX_SIZE = 9  # n_A + n_C; at most C(9, 4) = 126 roots an instance


def all_roots(p):
    """Every root X_S = V2 V1^{-1} with smin(V1)^2 > 1e-8, as RiccatiSolutions.

    Refuses (ValueError) a sigma(H) with eigenvalues closer than
    1e-8 (1 + max|w|), where the eigenvectors of a cluster are not
    determined and the subsets would miss roots.
    """
    w, U = np.linalg.eigh(rl.assemble_H(p))
    if np.min(np.diff(w)) <= 1e-8 * (1.0 + np.max(np.abs(w))):
        raise ValueError("sigma(H) is not simple")
    roots = []
    for S in itertools.combinations(range(w.size), p.n_A):
        V1, V2 = U[: p.n_A, S], U[p.n_A :, S]
        if np.linalg.svd(V1, compute_uv=False)[-1] ** 2 > 1e-8:
            roots.append(RiccatiSolution(p, V2 @ np.linalg.inv(V1), "root"))
    return roots


def test_interior_battery_has_one_root_in_the_uniqueness_class(battery500):
    # the in-class root is every route's X, within criterion 03's bounds;
    # the contour is built as criterion 03 builds it
    small = [(p, gap, sol) for _, p, gap, sol in battery500.items if p.n_A + p.n_C <= MAX_SIZE]
    assert len(small) == 183
    count = converged = 0
    for p, gap, sol in small:
        roots = all_roots(p)
        count += len(roots)
        members = [r for r in roots if uniqueness_class_check(p, r, gap)]
        assert len(members) == 1
        X = members[0].X
        assert operator_norm(X - sol.X) <= 1e-10
        contour = rl.build_contour(np.linalg.eigvals(sol.Z).real, np.linalg.eigvalsh(p.C))
        assert operator_norm(X - rl.solve_contour(p, sol.Z, contour).X) <= 1e-8
        try:
            fix = rl.solve_fixedpoint(p, gap)
        except IterationDiverged:
            continue
        converged += 1
        assert operator_norm(X - fix.X) <= 1e-7
    assert count == 6477
    assert converged == 167


def test_subordinated_battery_has_one_root_below_mid(monkeypatch, battery200_subordinated):
    small = [p for _, p in battery200_subordinated.items if p.n_A + p.n_C <= MAX_SIZE]
    assert len(small) == 93
    solves, real = [], certificates.solve_spectral
    monkeypatch.setattr(certificates, "solve_spectral", lambda *a: solves.append(1) or real(*a))
    count = 0
    for p in small:
        below = rl.SpectralGap(-math.inf, (float(p.sigma_A[-1]) + float(p.eig_C.values[0])) / 2.0)
        X = rl.solve_spectral(p, below).X
        roots = all_roots(p)
        count += len(roots)
        members = [r for r in roots if uniqueness_class_check(p, r, below)]
        assert len(members) == 1
        assert operator_norm(members[0].X - X) <= 1e-10
        observed = []
        for r in roots:
            solves.clear()
            observed.append(rl.certify_tan2theta(p, r).observed_value)
            # the certificate re-solves exactly for the roots that fail the root test
            assert len(solves) == (0 if r is members[0] else 1)
        assert max(observed) - min(observed) <= 1e-12
    assert count == 3049
