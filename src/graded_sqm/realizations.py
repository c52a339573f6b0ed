"""Numeric realizations of the ladder pair {A, Ad}.

A realization substitutes concrete matrices for the letters of the formal
word algebra in :mod:`graded_sqm.sqm_block`: a truncated harmonic Fock
space (superpotential fixed to x, exact integer spectrum) or a
finite-difference grid with a user superpotential.  Only ``spectrum``
uses them, so this module is imported where a realization is built, not
by the exact checks.  The Fock space reads balanced entries and ladder
kernels off as exact integers without numpy; every dense matrix, and every
grid, imports numpy where it is built.
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


@dataclass(frozen=True)
class FockRealization:
    """Truncated harmonic Fock space, superpotential fixed to W(x) = x.

    The lowering letter acts as the standard annihilation operator on levels
    0..cutoff.  Words are realized by walking levels with exact integer
    radicands; matrix elements are the untruncated ones, restricted to
    levels <= cutoff.  A balanced word (as many lowering as raising letters)
    sends each level to an exact integer multiple of itself, so an entry of
    balanced words with real integer coefficients, such as either diagonal
    entry of the Hamiltonian block, is read off exactly by
    :meth:`exact_diagonal`, and the ladder kernels are exact level sets
    (:meth:`kernel_levels`).
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

    def exact_diagonal(self, ws: WordSum) -> tuple[int, ...] | None:
        """The entry's value on each level 0..cutoff, as exact integers.

        Returns None, refusing the entry, unless every word is balanced and
        every coefficient a real integer: only then is the realized entry
        diagonal with integer eigenvalues equal to these values.
        """
        terms = []
        for word, coeff in ws.items():
            c = _real_integer(coeff)
            if c is None or word.count(LOWER) != word.count(RAISE):
                return None
            terms.append((word, c))
        levels = []
        for k in range(self.dim):
            total = 0
            for word, c in terms:
                rad = _walk(word, k)[1]
                # every edge of a closed walk is climbed as often as it is
                # descended, so the radicand is a perfect square
                r = math.isqrt(rad)
                if r * r != rad:
                    return None
                total += c * r
            levels.append(total)
        return tuple(levels)

    def kernel_levels(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Levels below the cutoff that the lowering and the raising letter
        send to zero: the exact kernels of the two ladder matrices.

        The domain stops below the cutoff because the raising operator only
        fails to be injective at the truncation edge, and that artifact must
        not count as a zero mode.
        """
        ka, kd = (
            tuple(k for k in range(self.cutoff) if _walk((letter,), k)[1] == 0)
            for letter in (LOWER, RAISE)
        )
        return ka, kd

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


def _real_integer(coeff) -> int | None:
    if isinstance(coeff, int):
        return coeff
    c = complex(coeff)
    if c.imag != 0 or not c.real.is_integer():
        return None
    return int(c.real)


def _check_spacing(spacing: float) -> None:
    # an infinite spacing zeroes the derivative; a nan one poisons every entry
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"grid spacing must be finite and positive, got {spacing}")


@dataclass(frozen=True)
class GridRealization:
    """Finite-difference realization on a symmetric Dirichlet grid.

    The momentum is the central-difference stencil; the lowering matrix is
    (derivative + superpotential)/sqrt(2) and the raising matrix is its
    numeric adjoint.
    """

    points: int
    spacing: float
    w_values: np.ndarray
    w_prime_values: np.ndarray | None = None
    label: str = "W"

    def __post_init__(self) -> None:
        import numpy as np
        if self.points < 3:
            raise ValueError(f"need at least 3 grid points, got {self.points}")
        _check_spacing(self.spacing)
        w = np.asarray(self.w_values, dtype=float)
        if w.shape != (self.points,):
            raise ValueError("w_values must have one value per grid point")
        if not np.all(np.isfinite(w)):
            raise ValueError("superpotential values must be finite")
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
        import numpy as np
        _check_spacing(spacing)  # before W is evaluated on the grid
        x = (np.arange(points) - (points - 1) / 2) * spacing
        return cls(
            points,
            spacing,
            np.asarray(w(x), dtype=float),
            None if w_prime is None else np.asarray(w_prime(x), dtype=float),
            label,
        )

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
    def _raw_kernels(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        # one SVD per ladder matrix and instance: w_values is read-only, so
        # the cache cannot go stale, and its vectors are made read-only too
        ka, kd = _svd_kernel(self.lowering_matrix()), _svd_kernel(self.raising_matrix())
        for v in (*ka, *kd):
            v.setflags(write=False)
        return ka, kd

    def kernel_pair(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        ka, kd = self._raw_kernels
        return [v for v in ka if _is_smooth(v)], [v for v in kd if _is_smooth(v)]

    def raw_kernel_pair(self) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Kernels without the checkerboard-artifact filter."""
        ka, kd = self._raw_kernels
        return list(ka), list(kd)

    def describe(self) -> str:
        return f"grid(points={self.points}, spacing={self.spacing:g}, W={self.label})"


NumericRealization = FockRealization | GridRealization


def _svd_kernel(mat: np.ndarray) -> list[np.ndarray]:
    import numpy as np
    _, s, vh = np.linalg.svd(mat)
    tol = KERNEL_REL_TOL * (s[0] if len(s) else 0.0)
    out = []
    for i in range(vh.shape[0]):
        sv = s[i] if i < len(s) else 0.0  # rows past len(s) are exact nulls
        if sv <= tol:
            out.append(vh[i].conj())
    return out


def _is_smooth(v: np.ndarray) -> bool:
    # Central differences admit checkerboard (grid-frequency) kernel vectors
    # that converge weakly to zero, not to a continuum function; they are
    # discretization artifacts, excluded just like the Fock truncation edge.
    d = float((abs(v[1:] - v[:-1]) ** 2).sum())
    s = float((abs(v[1:] + v[:-1]) ** 2).sum())
    return s > d
