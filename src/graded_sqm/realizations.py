"""Numeric realizations of the ladder pair {A, Ad}.

A realization substitutes concrete matrices for the letters of the formal
word algebra in :mod:`graded_sqm.sqm_block`: a truncated harmonic Fock
space (superpotential fixed to x, exact integer spectrum) or a
finite-difference grid with a user superpotential.

This is the numeric layer of the package, and :func:`spectrum` is its one
entry point: it reads the levels of both partner Hamiltonians Ad A and
A Ad, and both ladder kernels, off the pair alone.  The Fock space gives
them in closed form as exact integers without numpy.  The grid's one
matrix, written in one place, is its lowering matrix times the
checkerboard sign, symmetric and tridiagonal: its eigenvalues alone give
the levels, a kernel level as exactly 0, and its diagonals the kernels,
one pivoted elimination per null vector, so no eigenvector matrix is built.
Each realization states the dense matrix of one word, ``word_matrix``,
and :func:`graded_sqm.sqm_block.realize` sums them into the tests' oracle.
The module is imported where a realization is built and loads only what a
spectrum runs: not the exact engine (:mod:`graded_sqm.verify`), not the
word algebra (:mod:`graded_sqm.sqm_block`), whose letters ``word_matrix``
imports where it runs, and not ``dataclasses``: both realizations are
checked named tuples.  Every dense matrix, and every grid, imports numpy
where it is built.
"""

from __future__ import annotations

import math
import operator
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

from .grading import CheckedTuple
from .models import HAMILTONIAN_RECORD, split

if TYPE_CHECKING:
    import numpy as np

    from .models import Model
    from .sqm_block import Word
    Kernels = tuple[list[np.ndarray], list[np.ndarray]]  # of the lowering and the raising matrix

# relative singular-value threshold for numeric kernel detection
KERNEL_REL_TOL = 1e-8
# bytes of the two points x points float64 arrays of a grid's levels, S = L C and
# eigvalsh's working copy of it, that bound a grid
MAX_SPECTRUM_BYTES = 32 << 20
# Fock levels 0..cutoff that a spectrum reports: cutoff 65535, about 1 s with its report
MAX_FOCK_LEVELS = 1 << 16

FOCK_CLUSTER_TOL = 1e-9
GRID_CLUSTER_TOL = 1e-6


class FockRealization(CheckedTuple, NamedTuple("FockRealization", [("cutoff", int)])):
    """Truncated harmonic Fock space, superpotential fixed to W(x) = x.

    The lowering letter acts as the standard annihilation operator on levels
    0..cutoff.  A word is realized by walking levels with exact integer
    radicands (:meth:`word_matrix`); matrix elements are the untruncated
    ones, restricted to levels <= cutoff, so Ad A is diag(0..cutoff) and
    A Ad diag(1..cutoff + 1).  Both ladder kernels are exact level sets
    (:meth:`kernel_levels`).  A named tuple checked when made, like
    ``ModelSpec``: a cutoff of more than ``MAX_FOCK_LEVELS`` levels is
    refused there, before any level is read.
    """

    __slots__ = ()

    def __new__(cls, cutoff: int) -> "FockRealization":
        cutoff = operator.index(cutoff)
        if cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {cutoff}")
        if cutoff + 1 > MAX_FOCK_LEVELS:
            raise ValueError(f"Fock levels {cutoff + 1} are over {MAX_FOCK_LEVELS}; reduce the cutoff")
        return super().__new__(cls, cutoff)

    @property
    def dim(self) -> int:
        return self.cutoff + 1

    def word_matrix(self, word: Word) -> np.ndarray:
        import numpy as np
        out = np.zeros((self.dim, self.dim))
        for k in range(self.dim):
            lvl, rad = _walk(word, k)
            if rad == 0 or lvl >= self.dim:
                continue
            r = math.isqrt(rad)
            out[lvl, k] = float(r) if r * r == rad else math.sqrt(rad)
        return out

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


def check_grid(points: int, spacing: float) -> tuple[int, float]:
    """Refuse a grid before any array of it is built; return the int and float that passed.

    A grid needs an integer count of at least 3 points, the two float64
    points x points arrays of its levels (S = L C and eigvalsh's working
    copy of it, see :meth:`GridRealization.decompose`) within
    ``MAX_SPECTRUM_BYTES``, a finite positive spacing, a finite extent
    (points - 1)/2 x spacing, so that every coordinate is finite, and an
    odd point count: the doubler pairing that the spectrum's multiplicity
    check counts on holds only on odd grids.
    """
    points = operator.index(points)
    if points < 3:
        raise ValueError(f"need at least 3 grid points, got {points}")
    nbytes = 16 * points * points  # two float64 arrays
    if nbytes > MAX_SPECTRUM_BYTES:
        raise ValueError(
            f"the float64 S = L C and the eigenvalue solver's working copy of it, "
            f"for {points} points, "
            f"need {nbytes} bytes, over the guard of {MAX_SPECTRUM_BYTES}; reduce the grid size"
        )
    # an infinite spacing zeroes the derivative; a nan one poisons every entry
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"grid spacing must be finite and positive, got {spacing}")
    if not math.isfinite((points - 1) / 2 * spacing):
        raise ValueError(
            f"grid extent (points - 1)/2 x spacing overflows float64 at spacing {spacing}; reduce the spacing"
        )
    if points % 2 == 0:
        raise ValueError(
            f"grid point count {points} is even; the doubler pairing that "
            "the multiplicity check counts on holds only on odd grids, so use an odd count"
        )
    return points, float(spacing)


class GridRealization(CheckedTuple, NamedTuple("GridRealization", [
    ("points", int), ("spacing", float), ("w_values", "tuple[float, ...]"), ("label", str),
])):
    """Finite-difference realization on a symmetric Dirichlet grid.

    The momentum is the central-difference stencil; the lowering matrix is
    (derivative + superpotential)/sqrt(2), and only :meth:`word_matrix`
    builds its transpose.  The derivative's norm is at most 1/spacing, so
    every level is at most (max|W| + 1/spacing)**2 / 2, and the 2 x points
    levels of both partners, which a cluster's mean adds up, sum to at most
    points x (max|W| + 1/spacing)**2.  A grid on which that bound overflows
    float64 is refused.  A named tuple checked when made, which holds the
    values as a tuple of floats, so it compares, hashes and pickles as the
    tuple of its fields.  It is read through :meth:`decompose`.
    """

    __slots__ = ()

    def __new__(cls, points: int, spacing: float, w_values: np.ndarray, label: str = "W") -> GridRealization:
        points, spacing = check_grid(points, spacing)
        import numpy as np
        w = np.asarray(w_values, dtype=float)
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
        return super().__new__(cls, points, spacing, tuple(w.tolist()), label)

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
        points, spacing = check_grid(points, spacing)  # before W is evaluated on the grid
        import numpy as np
        # an overflowing W is refused by the finiteness check, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.asarray(w(_coordinates(points, spacing)), dtype=float)
        return cls(points, spacing, values, label)

    @property
    def dim(self) -> int:
        return self.points

    @property
    def x(self) -> np.ndarray:
        return _coordinates(self.points, self.spacing)

    def _symmetric(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """S = L C, the grid's one matrix, with its diagonal (-1)^j W_j / sqrt(2),
        its off-diagonal (-1)^(j+1) / (2 h sqrt(2)) and the signs (-1)^j of
        the checkerboard C: the one place the stencil is written."""
        import numpy as np
        n = self.points
        sign = np.resize((1.0, -1.0), n)
        diag = np.asarray(self.w_values) / math.sqrt(2) * sign
        off = 1.0 / (2.0 * self.spacing) / math.sqrt(2) * sign[1:]
        s = np.diag(diag)
        s.flat[1::n + 1] = off
        s.flat[n::n + 1] = off
        return s, diag, off, sign

    def lowering_matrix(self) -> np.ndarray:
        """L = S C, read-only, the tests' oracle: W/sqrt(2) on the diagonal, +-1/(2 h sqrt(2)) beside it."""
        s, _, _, sign = self._symmetric()
        s *= sign
        s.setflags(write=False)
        return s

    def word_matrix(self, word: Word) -> np.ndarray:
        # L^T as a C-contiguous copy: products with a transposed view round differently
        import numpy as np

        from .sqm_block import LOWER, RAISE

        if not word:
            return np.eye(self.points)
        lower = self.lowering_matrix()
        ladders = {LOWER: lower, RAISE: lower.T.copy()}
        m = ladders[word[0]]
        for letter in word[1:]:
            m = m @ ladders[letter]
        return m

    def decompose(self) -> tuple[np.ndarray, Kernels, Kernels]:
        """The levels, the ladder kernels and the raw ones, from one
        symmetric eigenvalue solve per call.  The derivative is antisymmetric
        with only two off-diagonals, so the checkerboard C = diag((-1)^j)
        gives C L C = L^T exactly and S = L C (:meth:`_symmetric`) is
        symmetric and tridiagonal.  Its eigenvalues l carry the singular
        values |l| of L: Ad A = L^T L and A Ad = L L^T share the levels l^2,
        in descending order.  The eigenvectors v of S whose |l| is at or
        below the kernel threshold span ker L^T = ker S, and their images
        C v span ker L; their levels are set to exactly 0, the zero that the
        threshold counts, not the solver's rounding of it.  Only S and the
        solver's copy of it are points x points: each null vector comes from
        S's two diagonals by one solve of inverse iteration
        (:func:`_null_vectors`)."""
        import numpy as np
        s, diag, off, sign = self._symmetric()
        lam = np.linalg.eigvalsh(s)
        del s
        size = np.abs(lam)
        top = size.max()
        kernel = size <= KERNEL_REL_TOL * top
        if top:
            null = _null_vectors(diag / top, off / top, lam[kernel] / top)
        else:  # S = 0, where W = 0 and 2 h overflows, so 1/(2 h) is 0: every unit vector is null
            null = np.eye(self.points)
        lam[kernel] = 0.0
        raw = list(sign * null), list(null)
        smooth = tuple([v for v in k if _is_smooth(v)] for k in raw)
        return np.sort(lam * lam)[::-1], smooth, raw

    def kernel_pair(self) -> Kernels:
        return self.decompose()[1]

    def describe(self) -> str:
        return f"grid(points={self.points}, spacing={self.spacing:g}, W={self.label})"


NumericRealization = FockRealization | GridRealization


def _coordinates(points: int, spacing: float) -> np.ndarray:
    import numpy as np
    return (np.arange(points) - (points - 1) / 2) * spacing


def _is_smooth(v: np.ndarray) -> bool:
    # Central differences admit checkerboard (grid-frequency) kernel vectors
    # that converge weakly to zero, not to a continuum function; they are
    # discretization artifacts, excluded just like the Fock truncation edge.
    # The neighbour overlap sum v_j v_{j+1} of a unit vector is near 1 for a
    # smooth one and near -1 for a checkerboard; a vector on one sublattice,
    # as when W vanishes on every even site, has overlap 0 up to rounding.
    return float(v[1:] @ v[:-1]) > KERNEL_REL_TOL


def _null_vectors(diag: np.ndarray, off: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Unit eigenvectors, one per shift, of the symmetric tridiagonal T with
    diagonal ``diag`` and off-diagonal ``off``, whose largest eigenvalue is
    1 in size; ``shifts`` are its eigenvalues as ``eigvalsh`` found them.

    One step of inverse iteration per vector, from a fixed start: the
    fractional parts of j (i + 1) / phi for vector i and the golden ratio
    phi.  Gaussian elimination with partial pivoting reduces T - shift to
    upper triangular U, as LAPACK's dlagtf, and applies each multiplier and
    row swap to the start where it is made; one back substitution,
    Gram-Schmidt against the earlier vectors and a normalization follow.
    T is scaled to norm 1, so a pivot below eps in size becomes eps with
    its sign: W = 0 makes T exactly singular, and with a shift of 0 the
    last pivot is 0.  Each shift is an eigenvalue to working precision, so
    one solve gives its eigenvector (Peters & Wilkinson, SIAM Rev. 21,
    1979).  The shifts are kernel levels, within 2 x KERNEL_REL_TOL of each
    other, so every vector is orthogonalized against all the earlier ones,
    as LAPACK's dstein does inside a cluster.
    """
    import numpy as np
    e, n, eps = off.tolist(), len(diag), sys.float_info.epsilon
    out: list[np.ndarray] = []
    for i, shift in enumerate(shifts.tolist()):
        step = (i + 1) * (math.sqrt(5.0) - 1.0) / 2.0
        # the start, with two zeros past its end for the back substitution,
        # and U's diagonal a and its two superdiagonals b and c
        y = [j * step % 1.0 - 0.5 for j in range(1, n + 1)] + [0.0, 0.0]
        a, b, c = (diag - shift).tolist(), e + [0.0], [0.0] * n
        for k in range(n - 1):
            if abs(a[k]) >= abs(e[k]):
                if a[k]:
                    m = e[k] / a[k]
                    a[k + 1] -= m * b[k]
                    y[k + 1] -= m * y[k]
            else:
                # row k + 1 leads: its first entry e[k] is the pivot
                m = a[k] / e[k]
                a[k], a[k + 1], b[k] = e[k], b[k] - m * a[k + 1], a[k + 1]
                c[k], b[k + 1] = b[k + 1], -m * b[k + 1]
                y[k], y[k + 1] = y[k + 1], y[k] - m * y[k + 1]
        for k in range(n - 1, -1, -1):
            y[k] = (y[k] - b[k] * y[k + 1] - c[k] * y[k + 2]) / math.copysign(max(abs(a[k]), eps), a[k])
        v = np.array(y[:n])
        for u in out:
            v -= (u @ v) * u
        out.append(v / np.linalg.norm(v))
    return np.array(out).reshape(len(out), n)


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

    @property
    def zero_multiplicity(self) -> int:
        """The multiplicity the check wants of a zero cluster."""
        return self.expected_zero + self.artifact_modes

    @property
    def excited_multiplicity(self) -> int:
        """The multiplicity the check wants of every excited cluster."""
        return self.expected_excited * self.lattice_copies

    def to_dict(self) -> dict:
        d = self._asdict()
        del d["lattice_copies"]
        for key in ("clusters", "excluded"):
            d[key] = tuple(c._asdict() for c in d[key])
        d["ok"] = self.ok
        return d

    def to_markdown(self) -> str:
        # each count is the one the check compares a cluster with
        zero = f"zero multiplicity {self.zero_multiplicity}"
        if self.artifact_modes:
            zero += f" ({self.expected_zero} + {self.artifact_modes} discretization artifacts)"
        excited = f"excited multiplicity {self.excited_multiplicity}"
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
    """Clusters of sorted values, split wherever the gap below a value v
    exceeds tol x max(1, |v|), each multiplicity counted ``copies`` times."""
    import numpy as np
    gaps = np.flatnonzero(np.diff(values) > tol * np.maximum(1.0, np.abs(values[1:])))
    return [EigenCluster(float(np.mean(c)), copies * len(c)) for c in np.split(values, gaps + 1)]


def spectrum(model: Model, realization: NumericRealization) -> SpectrumReport:
    """Cluster the Hamiltonian's eigenvalues and count its zero modes.

    The Hamiltonian of every family is the Clifford identity times the
    canonical block diag(Ad A, A Ad) of the two partner Hamiltonians, so
    its spectrum is the union of the partners' levels with every
    multiplicity multiplied by clifford-dim.  Both facts are checked exactly
    on the model's record of H, which must be that of 1 x Q Q, and any
    other Hamiltonian is refused before a matrix is built.  The realization
    then gives both partners' levels and both ladder kernels from the
    ladder pair alone: on Fock in closed form, Ad A's levels 0..cutoff and
    A Ad's 1..cutoff + 1 counted from the cutoff and the kernels from
    ``FockRealization.kernel_levels``, so the clusters are exact counts
    with no numpy; on the grid from the eigenvalues of the symmetric
    S = L C, with L the lowering matrix and C the checkerboard sign, since
    Ad A = L^T L and A Ad = L L^T share the levels l^2 of the eigenvalues
    l of S, and from its null vectors (``GridRealization.decompose``),
    each kernel level exactly 0; they split where a gap exceeds the
    tolerance (:func:`_cluster`).
    Every realization is refused where it is made: a Fock cutoff of more
    than ``MAX_FOCK_LEVELS`` levels, and a grid by :func:`check_grid`.

    The expected pattern for every family is the one its ground-state and
    degeneracy statements specialize to on these realizations: the zero
    cluster is absent or clifford-dim fold, every reported excited cluster
    is (2 x clifford dim) fold, with the grid's artifacts and lattice copies
    added as ``SpectrumReport.zero_multiplicity`` and ``excited_multiplicity``
    state them.  Fock levels are integers; levels at or above the cutoff
    are truncation-affected and excluded.
    """
    cliffdim = model.clifford_dim
    if split(model.h)[:2] != (0, 0):
        raise ValueError(
            f"{model.spec.selector}: the Hamiltonian's Clifford factor is not the identity"
        )
    if model.h != HAMILTONIAN_RECORD:
        raise ValueError(f"{model.spec.selector}: the Hamiltonian block is not diag(Ad A, A Ad)")
    is_fock = isinstance(realization, FockRealization)
    tol = FOCK_CLUSTER_TOL if is_fock else GRID_CLUSTER_TOL

    if is_fock:  # exact kernels, so the raw ones are the same
        kernel_a, kernel_ad = raw = realization.kernel_levels()
        # Ad A has levels 0..cutoff and A Ad 1..top: the ones between are in both
        top = realization.cutoff + 1
        all_clusters = [EigenCluster(float(v), cliffdim * (1 if v in (0, top) else 2)) for v in range(top + 1)]
        # levels at or above the cutoff are truncation-affected
        edge = realization.cutoff - 0.5
    else:
        import numpy as np
        levels, (kernel_a, kernel_ad), raw = realization.decompose()
        evals = np.sort(np.concatenate((levels, levels)))
        all_clusters = _cluster(evals, tol, cliffdim)
        # the upper part of the lattice band is not discretization-faithful
        edge = 0.25 * float(evals[-1])
    physical = len(kernel_a) + len(kernel_ad)
    artifact_modes = cliffdim * (len(raw[0]) + len(raw[1]) - physical)

    clusters, excluded = [], []
    for c in all_clusters:
        (excluded if c.value > edge else clusters).append(c)

    # On an odd grid, central differences pair every nonzero eigenvalue of
    # one diagonal block with an exactly equal doubler eigenvalue of the
    # other (checkerboard symmetry composed with the singular-value pairing),
    # so raw grid multiplicities carry an exact factor 2 of artifacts.
    report = SpectrumReport(
        model=model.spec.selector, realization=realization.describe(), tolerance=tol,
        total_dim=cliffdim * 2 * realization.dim, clusters=tuple(clusters), excluded=tuple(excluded),
        zero_modes=cliffdim * physical, artifact_modes=artifact_modes,
        expected_zero=cliffdim if physical else 0, expected_excited=2 * cliffdim,
        problems=(), lattice_copies=1 if is_fock else 2,
    )
    problems: list[str] = []
    if physical > 1:
        problems.append(
            f"both ladder kernels nonempty ({len(kernel_a)}, {len(kernel_ad)}); "
            "zero modes should come from one chirality only"
        )
    for c in clusters:
        zero = abs(c.value) <= tol
        want = report.zero_multiplicity if zero else report.excited_multiplicity
        if c.multiplicity != want:
            problems.append(
                f"zero cluster multiplicity {c.multiplicity}, expected {want}" if zero
                else f"cluster at {c.value:.6g} has multiplicity {c.multiplicity}, expected {want}"
            )
    if report.expected_zero and not any(abs(c.value) <= tol for c in clusters):
        problems.append("expected a zero cluster but found none")
    return report._replace(problems=tuple(problems))
