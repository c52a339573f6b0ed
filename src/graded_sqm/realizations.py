"""Numeric realizations of the ladder pair {A, Ad}.

A realization substitutes concrete matrices for the letters of the formal
word algebra in :mod:`graded_sqm.sqm_block`: a truncated harmonic Fock
space (superpotential fixed to x, exact integer spectrum) or a
finite-difference grid with a user superpotential.

This is the numeric layer of the package, and :func:`spectrum` is its one
entry point: it reads the levels of both partner Hamiltonians Ad A and
A Ad, and both ladder kernels, off the pair alone.  The Fock space gives
them in closed form as exact integers without numpy, the grid from one SVD
of its lowering matrix.  The dense matrices of ``realize`` are the tests'
oracle.  The module is imported where a realization is built and loads
only what a spectrum runs: not the exact engine (:mod:`graded_sqm.verify`),
not the word algebra (:mod:`graded_sqm.sqm_block`), whose letters the
oracle methods import where they run, and not ``dataclasses``, since the
realizations are plain immutable classes.  Every dense matrix, and every
grid, imports numpy where it is built.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from functools import cached_property
from itertools import chain
from typing import TYPE_CHECKING, Callable, NamedTuple

from .models import HAMILTONIAN_RECORD, split

if TYPE_CHECKING:
    import numpy as np

    from .models import Model
    from .sqm_block import Word, WordSum

# relative singular-value threshold for numeric kernel detection
KERNEL_REL_TOL = 1e-8
# bytes of the dense complex Hamiltonian block, 2 x points on a side, that
# bound a grid; its spectrum holds three points x points float matrices
MAX_SPECTRUM_BYTES = 1 << 27
# Fock levels 0..cutoff that a spectrum reports: cutoff 65535, about 1 s with its report
MAX_FOCK_LEVELS = 1 << 16

FOCK_CLUSTER_TOL = 1e-9
GRID_CLUSTER_TOL = 1e-6


class _Frozen:
    """Fields set once when made, straight into ``__dict__`` (where
    ``cached_property`` stores its values too): assigning or deleting one
    raises, and copy and pickle restore the ``__dict__``."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class FockRealization(_Frozen):
    """Truncated harmonic Fock space, superpotential fixed to W(x) = x.

    The lowering letter acts as the standard annihilation operator on levels
    0..cutoff.  Words are realized by walking levels with exact integer
    radicands; matrix elements are the untruncated ones, restricted to
    levels <= cutoff.  Both partner Hamiltonians are diagonal with integer
    levels (:meth:`partner_levels`) and both ladder kernels are exact level
    sets (:meth:`kernel_levels`).  Equal and hashed by its cutoff.
    """

    def __init__(self, cutoff: int) -> None:
        cutoff = operator.index(cutoff)
        if cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {cutoff}")
        self.__dict__["cutoff"] = cutoff

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockRealization):
            return NotImplemented
        return self.cutoff == other.cutoff

    def __hash__(self) -> int:
        return hash(self.cutoff)

    def __repr__(self) -> str:
        return f"FockRealization(cutoff={self.cutoff})"

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
    from .sqm_block import LOWER

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
            f"over the guard of {MAX_SPECTRUM_BYTES}; reduce the grid size"
        )
    # an infinite spacing zeroes the derivative; a nan one poisons every entry
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"grid spacing must be finite and positive, got {spacing}")
    if points % 2 == 0:
        raise ValueError(
            f"grid point count {points} is even; the doubler pairing that "
            "the multiplicity check counts on holds only on odd grids, so use an odd count"
        )


class GridRealization(_Frozen):
    """Finite-difference realization on a symmetric Dirichlet grid.

    The momentum is the central-difference stencil; the lowering matrix is
    (derivative + superpotential)/sqrt(2) and the raising matrix is its
    numeric adjoint.  The derivative's norm is at most 1/spacing, so every
    level is at most (max|W| + 1/spacing)**2 / 2, and the 2 x points levels
    of both partners, which a cluster's mean adds up, sum to at most
    points x (max|W| + 1/spacing)**2.  A grid on which that bound overflows
    float64 is refused.  Two grids are equal when their points, spacing,
    label and superpotential values are.
    """

    def __init__(self, points: int, spacing: float, w_values: np.ndarray, label: str = "W") -> None:
        check_grid(points, spacing)
        import numpy as np
        w = np.array(w_values, dtype=float)  # a private copy, frozen below
        if w.shape != (points,):
            raise ValueError("w_values must have one value per grid point")
        if not np.all(np.isfinite(w)):
            raise ValueError("superpotential values must be finite")
        norm = float(np.max(np.abs(w))) + 1.0 / spacing
        if not math.isfinite(points * norm * norm):
            raise ValueError(
                "grid levels overflow float64: their sum, at most "
                "points x (max|W| + 1/spacing)**2, is not finite; "
                "use a smaller superpotential or a larger spacing"
            )
        w.setflags(write=False)
        self.__dict__.update(points=points, spacing=spacing, w_values=w, label=label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridRealization):
            return NotImplemented
        import numpy as np
        return (self.points, self.spacing, self.label) == (
            other.points, other.spacing, other.label
        ) and np.array_equal(self.w_values, other.w_values)

    def __hash__(self) -> int:
        # equal grids agree on these three; the values stay out, as array_equal
        # calls -0.0 and 0.0 equal though their bytes differ
        return hash((self.points, self.spacing, self.label))

    def __repr__(self) -> str:
        return f"GridRealization(points={self.points}, spacing={self.spacing!r}, label={self.label!r})"

    @classmethod
    def from_function(
        cls,
        points: int,
        spacing: float,
        w: Callable[[np.ndarray], np.ndarray],
        label: str = "W",
    ) -> "GridRealization":
        check_grid(points, spacing)  # before W is evaluated on the grid
        import numpy as np
        x = (np.arange(points) - (points - 1) / 2) * spacing
        # an overflowing W is refused by the finiteness check, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(w(x), dtype=float)
        return cls(points, spacing, values, label)

    @property
    def dim(self) -> int:
        return self.points

    @property
    def x(self) -> np.ndarray:
        import numpy as np
        return (np.arange(self.points) - (self.points - 1) / 2) * self.spacing

    @cached_property
    def _lowering(self) -> np.ndarray:
        # once per instance, read-only like w_values; the spectrum's SVD
        # reads only this matrix
        import numpy as np
        off = np.full(self.points - 1, 1.0 / (2.0 * self.spacing))
        d = np.diag(off, 1) - np.diag(off, -1)
        out = (d + np.diag(self.w_values)) / math.sqrt(2)
        out.setflags(write=False)
        return out

    @cached_property
    def _raising(self) -> np.ndarray:
        # L^T, entry for entry equal to (-d + w)/sqrt(2), made only for the
        # oracles.  A C-contiguous copy, not a transposed view: products with
        # a view round differently in the last bits.
        out = self._lowering.T.copy()
        out.setflags(write=False)
        return out

    def lowering_matrix(self) -> np.ndarray:
        return self._lowering

    def raising_matrix(self) -> np.ndarray:
        return self._raising

    def realize_entry(self, ws: WordSum) -> np.ndarray:
        import numpy as np

        from .sqm_block import LOWER, RAISE

        ladders = {LOWER: self._lowering, RAISE: self._raising}
        out = np.zeros((self.points, self.points), dtype=np.complex128)
        for word, coeff in ws.items():
            if not word:
                out += coeff * np.eye(self.points)
                continue
            m = ladders[word[0]]
            for letter in word[1:]:
                m = m @ ladders[letter]
            out += coeff * m
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


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------


class EigenCluster(NamedTuple):
    value: float
    multiplicity: int


class SpectrumReport(NamedTuple):
    model: str
    realization: str
    tolerance: float
    total_dim: int
    clusters: tuple[EigenCluster, ...]
    excluded: tuple[EigenCluster, ...]
    zero_modes: int
    artifact_modes: int
    expected_zero: int
    expected_excited: int
    problems: tuple[str, ...]
    # copies of each excited level the check counts: 2 for a grid's doublers;
    # stated in the markdown, kept out of the JSON
    lattice_copies: int = 1

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        d = self._asdict()
        del d["lattice_copies"]
        for key in ("clusters", "excluded"):
            d[key] = tuple(c._asdict() for c in d[key])
        d["ok"] = self.ok
        return d

    def to_markdown(self) -> str:
        # each count is the one the check compares a cluster with
        zero = f"zero multiplicity {self.expected_zero + self.artifact_modes}"
        if self.artifact_modes:
            zero += f" ({self.expected_zero} + {self.artifact_modes} discretization artifacts)"
        excited = f"excited multiplicity {self.expected_excited * self.lattice_copies}"
        if self.lattice_copies != 1:
            excited += f" ({self.expected_excited} x {self.lattice_copies} lattice copies)"
        lines = [
            f"## spectrum — {self.model} on {self.realization}",
            "",
            f"zero modes: {self.zero_modes}"
            + (f" (+{self.artifact_modes} discretization artifacts excluded)" if self.artifact_modes else ""),
            f"expected: {zero}, {excited}",
            "",
            "| energy | multiplicity |",
            "|---|---|",
        ]
        lines += [f"| {c.value:.9g} | {c.multiplicity} |" for c in self.clusters]
        if self.excluded:
            lines += ["", "truncation-excluded clusters: " + ", ".join(
                f"{c.value:.6g} (x{c.multiplicity})" for c in self.excluded
            )]
        lines += ["", f"result: **{'PASS' if self.ok else 'FAIL'}**"]
        lines += [f"- {p}" for p in self.problems]
        return "\n".join(lines)


def _cluster(values: np.ndarray, tol: float, copies: int) -> list[EigenCluster]:
    """Clusters of sorted values, each multiplicity counted ``copies`` times."""
    import numpy as np
    clusters: list[EigenCluster] = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or values[i] - values[i - 1] > tol * max(1.0, abs(values[i])):
            chunk = values[start:i]
            clusters.append(EigenCluster(float(np.mean(chunk)), copies * len(chunk)))
            start = i
    return clusters


def spectrum(model: Model, realization: NumericRealization) -> SpectrumReport:
    """Cluster the Hamiltonian's eigenvalues and count its zero modes.

    The Hamiltonian of every family is the Clifford identity times the
    canonical block diag(Ad A, A Ad) of the two partner Hamiltonians, so
    its spectrum is the union of the partners' levels with every
    multiplicity multiplied by clifford-dim.  Both facts are checked exactly
    on the model's record of H, which must be that of 1 x Q Q, and any
    other Hamiltonian is refused before a matrix is built.  The realization
    then gives both partners' levels and both ladder kernels from the
    ladder pair alone: on Fock in closed form
    (``FockRealization.partner_levels`` and ``kernel_levels``), so the
    clusters are exact counts with no numpy; on the grid from one SVD of
    the lowering matrix L, since Ad A = L^T L and A Ad = L L^T share the
    levels s^2.  A Fock realization of more than ``MAX_FOCK_LEVELS``
    levels is refused before any level is read; a grid is checked where it
    is built (:func:`check_grid`).

    The expected pattern for every family is the one its ground-state and
    degeneracy statements specialize to on these realizations: the zero
    cluster is absent or clifford-dim fold, every reported excited cluster
    is (2 x clifford dim) fold.  Fock clusters must sit on integers; levels
    at or above the cutoff are truncation-affected and excluded.
    """
    cliffdim = model.clifford_dim
    side = 2 * realization.dim
    if split(model.h)[:2] != (0, 0):
        raise ValueError(
            f"{model.spec.selector}: the Hamiltonian's Clifford factor is not the identity"
        )
    if model.h != HAMILTONIAN_RECORD:
        raise ValueError(f"{model.spec.selector}: the Hamiltonian block is not diag(Ad A, A Ad)")
    is_fock = isinstance(realization, FockRealization)
    tol = FOCK_CLUSTER_TOL if is_fock else GRID_CLUSTER_TOL

    artifact_modes = 0
    if is_fock:
        if realization.dim > MAX_FOCK_LEVELS:
            raise ValueError(
                f"Fock levels {realization.dim} are over {MAX_FOCK_LEVELS}; reduce the cutoff"
            )
        kernel_a, kernel_ad = realization.kernel_levels()
        counts = Counter(chain(*realization.partner_levels()))
        all_clusters = [EigenCluster(float(v), cliffdim * counts[v]) for v in sorted(counts)]
        # levels at or above the cutoff are truncation-affected
        edge = realization.cutoff - 0.5
    else:
        import numpy as np
        kernel_a, kernel_ad = realization.kernel_pair()
        raw_a, raw_ad = realization.raw_kernel_pair()
        artifact_modes = cliffdim * (len(raw_a) + len(raw_ad) - len(kernel_a) - len(kernel_ad))
        evals = np.sort(np.concatenate(realization.partner_levels()))
        all_clusters = _cluster(evals, tol, cliffdim)
        # the upper part of the lattice band is not discretization-faithful
        edge = 0.25 * float(evals[-1])
    physical = len(kernel_a) + len(kernel_ad)
    zero_modes = cliffdim * physical

    clusters, excluded = [], []
    for c in all_clusters:
        (excluded if c.value > edge else clusters).append(c)

    expected_zero = cliffdim if physical else 0
    expected_excited = 2 * cliffdim
    # On an odd grid, central differences pair every nonzero eigenvalue of
    # one diagonal block with an exactly equal doubler eigenvalue of the
    # other (checkerboard symmetry composed with the singular-value pairing),
    # so raw grid multiplicities carry an exact factor 2 of artifacts.
    lattice_copies = 1 if is_fock else 2
    problems: list[str] = []
    if physical > 1:
        problems.append(
            f"both ladder kernels nonempty ({len(kernel_a)}, {len(kernel_ad)}); "
            "zero modes should come from one chirality only"
        )
    for c in clusters:
        if abs(c.value) <= tol:
            want = expected_zero + artifact_modes
            if c.multiplicity != want:
                problems.append(
                    f"zero cluster multiplicity {c.multiplicity}, expected {want}"
                )
        else:
            if c.multiplicity != expected_excited * lattice_copies:
                problems.append(
                    f"cluster at {c.value:.6g} has multiplicity {c.multiplicity}, "
                    f"expected {expected_excited * lattice_copies}"
                )
            if is_fock and abs(c.value - round(c.value)) > tol:
                problems.append(f"cluster at {c.value!r} is not integer-valued")
    if expected_zero and not any(abs(c.value) <= tol for c in clusters):
        problems.append("expected a zero cluster but found none")

    return SpectrumReport(
        model.spec.selector,
        realization.describe(),
        tol,
        cliffdim * side,
        tuple(clusters),
        tuple(excluded),
        zero_modes,
        artifact_modes,
        expected_zero,
        expected_excited,
        tuple(problems),
        lattice_copies,
    )
