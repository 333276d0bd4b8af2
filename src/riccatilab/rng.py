"""Seedable random stream used by the instance generator.

The generator is splitmix64: a 64-bit counter advanced by the golden
ratio increment, with a two-round xor-multiply finalizer.  It is tiny,
has no numpy state behind it, and is trivially reproduced bit for bit
in any language, which is what makes sweep outputs byte-identical
across runs.  The exact recipe (constants, uniform and gaussian
derivations, unitary construction) is documented in the README.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit stream with uniform/gaussian/unitary helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        # 53 high bits give a double in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_open(self) -> float:
        # in (0, 1], safe as a log argument
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def normal_pair(self) -> tuple[float, float]:
        """One Box-Muller step: two independent standard normals."""
        z = self.complex_normal_matrix(1, 1)[0, 0]
        return float(z.real), float(z.imag)

    def normal(self) -> float:
        return self.normal_pair()[0]

    def complex_normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Matrix with independent standard-normal real and imaginary parts.

        Entry k (row-major) is one Box-Muller step on the stream's outputs
        2k and 2k + 1, all taken as one block.  log, cos and sin stay on
        math: numpy's SIMD versions differ from libm in the last bit on
        some inputs, which would change the generated instances.
        """
        n = rows * cols
        z = self._block(2 * n) >> np.uint64(11)
        u1 = (z[0::2] + np.uint64(1)).astype(float) * 2.0**-53
        u2 = z[1::2].astype(float) * 2.0**-53
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), float, n))
        theta = ((2.0 * math.pi) * u2).tolist()
        out = np.empty(n, dtype=complex)
        out.real = r * np.fromiter(map(math.cos, theta), float, n)
        out.imag = r * np.fromiter(map(math.sin, theta), float, n)
        return out.reshape(rows, cols)

    def _block(self, n: int) -> np.ndarray:
        """The next n outputs of next_u64 as a uint64 array, in stream order.

        Only array arithmetic touches uint64 values: it wraps mod 2^64
        silently, where numpy scalar arithmetic warns on overflow.
        """
        start = np.array([self._state], dtype=np.uint64)
        z = start + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        self._state = (self._state + n * _GOLDEN) & _MASK
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))

    def unitary(self, n: int) -> np.ndarray:
        """Haar-ish random unitary: QR of a complex gaussian matrix.

        The R diagonal is rephased to be real positive, which removes the
        QR sign ambiguity and pins the result for a given stream state.
        """
        return rephased_q(self.complex_normal_matrix(n, n))


def rephased_q(g: np.ndarray) -> np.ndarray:
    """The Q of g = QR with R's diagonal rephased real positive: unitary's
    construction on a gaussian matrix already drawn."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    phases = diag / np.abs(diag)
    return q * phases.conj()
