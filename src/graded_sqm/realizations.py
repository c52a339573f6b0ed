"""Numeric realizations of the ladder pair {A, Ad}.

A realization substitutes concrete matrices for the letters of the formal
word algebra in :mod:`graded_sqm.sqm_block`: a truncated harmonic Fock
space (superpotential fixed to x, exact integer spectrum) or a
finite-difference grid with a user superpotential.  ``spectrum`` reads
the levels of both partner Hamiltonians Ad A and A Ad, and both ladder
kernels, off the pair alone: the Fock space gives them in closed form as
exact integers without numpy, the grid from one SVD of its lowering
matrix.  The dense matrices of ``realize`` are the tests' oracle.  Only
``spectrum`` uses this module, so it is imported where a realization is
built, not by the exact checks; every dense matrix, and every grid,
imports numpy where it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from .sqm_block import LOWER, RAISE, Word, WordSum

if TYPE_CHECKING:
    import numpy as np

# relative singular-value threshold for numeric kernel detection
KERNEL_REL_TOL = 1e-8
# bytes of the dense complex Hamiltonian block, 2 x points on a side, that
# bound a grid; its spectrum holds three points x points float matrices
MAX_SPECTRUM_BYTES = 1 << 27


@dataclass(frozen=True)
class FockRealization:
    """Truncated harmonic Fock space, superpotential fixed to W(x) = x.

    The lowering letter acts as the standard annihilation operator on levels
    0..cutoff.  Words are realized by walking levels with exact integer
    radicands; matrix elements are the untruncated ones, restricted to
    levels <= cutoff.  Both partner Hamiltonians are diagonal with integer
    levels (:meth:`partner_levels`) and both ladder kernels are exact level
    sets (:meth:`kernel_levels`).
    """

    cutoff: int

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    def _word_matrix(self, word: Word) -> np.ndarray:
        import numpy as np
        out = np.zeros((self.dim, self.dim))
        for k in range(self.dim):
            lvl, rad = _walk(word, k)
            if rad == 0 or lvl >= self.dim:
                continue
            r = math.isqrt(rad)
            out[lvl, k] = float(r) if r * r == rad else math.sqrt(rad)
        return out

    def realize_entry(self, ws: WordSum) -> np.ndarray:
        import numpy as np
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for word, coeff in ws.items():
            out += coeff * self._word_matrix(word)
        return out

    def partner_levels(self) -> tuple[range, range]:
        """Levels of Ad A and of A Ad on Fock levels 0..cutoff.

        Ad A sends level k to k times itself and A Ad to k + 1 times itself.
        These are the untruncated matrix elements, which the dense entries
        of :meth:`realize_entry` also carry, so the top level of A Ad lies
        above the cutoff.
        """
        return range(self.dim), range(1, self.dim + 1)

    def kernel_levels(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Levels below the cutoff that the lowering and the raising letter
        send to zero: the exact kernels of the two ladder matrices.

        The lowering letter sends only the vacuum to zero, and the cutoff is
        at least 1, so its kernel is level 0; the raising letter sends no
        level to zero.  The domain stops below the cutoff because the
        raising operator only fails to be injective at the truncation edge,
        and that artifact must not count as a zero mode.
        """
        return (0,), ()

    def kernel_pair(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        import numpy as np
        ka, kd = self.kernel_levels()
        return [np.eye(1, self.dim, k)[0] for k in ka], [np.eye(1, self.dim, k)[0] for k in kd]

    def describe(self) -> str:
        return f"fock(cutoff={self.cutoff}, W=x)"


def _walk(word: Word, k: int) -> tuple[int, int]:
    """Apply a word, rightmost letter first, to Fock level k.

    Returns (level, radicand): the word sends |k> to sqrt(radicand) |level>,
    with radicand 0 when a lowering letter meets the vacuum.
    """
    lvl, rad = k, 1
    for letter in reversed(word):
        if letter == LOWER:
            if lvl == 0:
                return lvl, 0
            rad *= lvl
            lvl -= 1
        else:
            lvl += 1
            rad *= lvl
    return lvl, rad


def check_grid(points: int, spacing: float) -> None:
    """Refuse a grid before any array of it is built.

    A grid needs at least 3 points, a dense complex Hamiltonian block
    (2 x points on a side) within ``MAX_SPECTRUM_BYTES``, a finite positive
    spacing and an odd point count: the doubler pairing that the spectrum's
    multiplicity check counts on holds only on odd grids.
    """
    if points < 3:
        raise ValueError(f"need at least 3 grid points, got {points}")
    side = 2 * points
    nbytes = 16 * side * side  # complex128
    if nbytes > MAX_SPECTRUM_BYTES:
        raise ValueError(
            f"the dense {side}x{side} Hamiltonian block needs {nbytes} bytes, "
            f"over the guard of {MAX_SPECTRUM_BYTES}; reduce the cutoff or grid size"
        )
    # an infinite spacing zeroes the derivative; a nan one poisons every entry
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"grid spacing must be finite and positive, got {spacing}")
    if points % 2 == 0:
        raise ValueError(
            f"grid point count {points} is even; the doubler pairing that "
            "the multiplicity check counts on holds only on odd grids, so use an odd count"
        )


@dataclass(frozen=True)
class GridRealization:
    """Finite-difference realization on a symmetric Dirichlet grid.

    The momentum is the central-difference stencil; the lowering matrix is
    (derivative + superpotential)/sqrt(2) and the raising matrix is its
    numeric adjoint.  The derivative's norm is at most 1/spacing, so every
    level is at most (max|W| + 1/spacing)**2 / 2, and the 2 x points levels
    of both partners, which a cluster's mean adds up, sum to at most
    points x (max|W| + 1/spacing)**2.  A grid on which that bound overflows
    float64 is refused.
    """

    points: int
    spacing: float
    w_values: np.ndarray
    w_prime_values: np.ndarray | None = None
    label: str = "W"

    def __post_init__(self) -> None:
        check_grid(self.points, self.spacing)
        import numpy as np
        w = np.asarray(self.w_values, dtype=float)
        if w.shape != (self.points,):
            raise ValueError("w_values must have one value per grid point")
        if not np.all(np.isfinite(w)):
            raise ValueError("superpotential values must be finite")
        norm = float(np.max(np.abs(w))) + 1.0 / self.spacing
        if not math.isfinite(self.points * norm * norm):
            raise ValueError(
                "grid levels overflow float64: their sum, at most "
                "points x (max|W| + 1/spacing)**2, is not finite; "
                "use a smaller superpotential or a larger spacing"
            )
        w.setflags(write=False)
        object.__setattr__(self, "w_values", w)
        if self.w_prime_values is not None:
            wp = np.asarray(self.w_prime_values, dtype=float)
            if wp.shape != (self.points,) or not np.all(np.isfinite(wp)):
                raise ValueError("w_prime_values must be finite, one per point")
            wp.setflags(write=False)
            object.__setattr__(self, "w_prime_values", wp)

    @classmethod
    def from_function(
        cls,
        points: int,
        spacing: float,
        w: Callable[[np.ndarray], np.ndarray],
        w_prime: Callable[[np.ndarray], np.ndarray] | None = None,
        label: str = "W",
    ) -> "GridRealization":
        check_grid(points, spacing)  # before W is evaluated on the grid
        import numpy as np
        x = (np.arange(points) - (points - 1) / 2) * spacing
        # an overflowing W is refused by the finiteness check, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(w(x), dtype=float)
            slopes = None if w_prime is None else np.asarray(w_prime(x), dtype=float)
        return cls(points, spacing, values, slopes, label)

    @property
    def dim(self) -> int:
        return self.points

    @property
    def x(self) -> np.ndarray:
        import numpy as np
        return (np.arange(self.points) - (self.points - 1) / 2) * self.spacing

    @cached_property
    def _ladders(self) -> dict[str, np.ndarray]:
        # both ladder matrices once per instance, read-only like w_values
        import numpy as np
        off = np.full(self.points - 1, 1.0 / (2.0 * self.spacing))
        d = np.diag(off, 1) - np.diag(off, -1)
        w = np.diag(self.w_values)
        out = {LOWER: (d + w) / math.sqrt(2), RAISE: (-d + w) / math.sqrt(2)}
        for m in out.values():
            m.setflags(write=False)
        return out

    def lowering_matrix(self) -> np.ndarray:
        return self._ladders[LOWER]

    def raising_matrix(self) -> np.ndarray:
        return self._ladders[RAISE]

    def realize_entry(self, ws: WordSum) -> np.ndarray:
        import numpy as np
        out = np.zeros((self.points, self.points), dtype=np.complex128)
        for word, coeff in ws.items():
            if not word:
                out += coeff * np.eye(self.points)
                continue
            m = self._ladders[word[0]]
            for letter in word[1:]:
                m = m @ self._ladders[letter]
            out += coeff * m
        return out

    def w_prime(self) -> np.ndarray:
        import numpy as np
        if self.w_prime_values is not None:
            return self.w_prime_values
        # central difference of the tabulated superpotential, one-sided ends
        wp = np.gradient(self.w_values, self.spacing)
        return wp

    def stencil_hamiltonian(self) -> np.ndarray:
        """Direct discretization of the Hamiltonian block, 2*points total.

        Upper block (p^2 + W^2 - W')/2, lower block (p^2 + W^2 + W')/2, with
        the standard 3-point second-derivative stencil.
        """
        import numpy as np
        p = self.points
        h2 = self.spacing * self.spacing
        lap = np.zeros((p, p))
        for j in range(p):
            lap[j, j] = -2.0 / h2
            if j > 0:
                lap[j, j - 1] = 1.0 / h2
            if j < p - 1:
                lap[j, j + 1] = 1.0 / h2
        base = 0.5 * (-lap + np.diag(self.w_values**2))
        wp = 0.5 * np.diag(self.w_prime())
        out = np.zeros((2 * p, 2 * p))
        out[:p, :p] = base - wp
        out[p:, p:] = base + wp
        return out

    @cached_property
    def _svd(self) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
        # One SVD L = U s V^T per instance.  The raising matrix is L^T, so
        # Ad A = V s^2 V^T and A Ad = U s^2 U^T share the levels s^2, and
        # the rows of V^T and columns of U whose s is at or below the kernel
        # threshold span the kernels of L and L^T.  w_values is read-only,
        # so the cache cannot go stale, and its arrays are made read-only too.
        import numpy as np
        u, s, vt = np.linalg.svd(self.lowering_matrix())
        null = s <= KERNEL_REL_TOL * s[0]
        levels, ka, kd = s * s, list(vt[null]), list(u.T[null])
        for v in (levels, *ka, *kd):
            v.setflags(write=False)
        return levels, ka, kd

    def partner_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Levels of Ad A and of A Ad: both are the squared singular values
        of the lowering matrix, in descending order."""
        levels = self._svd[0]
        return levels, levels

    def kernel_pair(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        _, ka, kd = self._svd
        return [v for v in ka if _is_smooth(v)], [v for v in kd if _is_smooth(v)]

    def raw_kernel_pair(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Kernels without the checkerboard-artifact filter."""
        _, ka, kd = self._svd
        return list(ka), list(kd)

    def describe(self) -> str:
        return f"grid(points={self.points}, spacing={self.spacing:g}, W={self.label})"


NumericRealization = FockRealization | GridRealization


def _is_smooth(v: np.ndarray) -> bool:
    # Central differences admit checkerboard (grid-frequency) kernel vectors
    # that converge weakly to zero, not to a continuum function; they are
    # discretization artifacts, excluded just like the Fock truncation edge.
    d = float((abs(v[1:] - v[:-1]) ** 2).sum())
    s = float((abs(v[1:] + v[:-1]) ** 2).sum())
    return s > d
