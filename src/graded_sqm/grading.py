"""Degree bookkeeping for Z2^n gradings.

A degree is an n-component bit vector.  Degrees add componentwise mod 2,
their mod-2 inner product decides whether two graded operators close in a
commutator or an anticommutator, and the parity (bit sum mod 2) separates
supercharge-like from central-like degrees.  This module also provides the
closed-form element counts of the graded algebra and the canonical ordering
of parity-1 degrees used everywhere else in the package.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

# Model building is capped at this rank for every general family.  The checks
# work on the bits of each Pauli string, so the dimension no longer matters;
# the cap bounds the centrality sweep, whose work is the central count times
# the operator count, both quadratic in the 2**(n-1) supercharges.
MAX_RANK = 8

COMMUTATOR = "commutator"
ANTICOMMUTATOR = "anticommutator"


class CheckedTuple(tuple):
    """Base of the value types, each ``class T(CheckedTuple, NamedTuple(...))``
    checked in its ``__new__``, through which ``_make`` and ``_replace`` build
    too.  Not a frozen dataclass, so that no call imports ``dataclasses``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class DegreeVector(CheckedTuple, NamedTuple("DegreeVector", [("n", int), ("mask", int)])):
    """Element of Z2^n, bit-packed: bit j-1 of ``mask`` is component a_j.
    Checked when made.
    """

    __slots__ = ()

    def __new__(cls, n: int, mask: int) -> "DegreeVector":
        if not 2 <= n <= 64:
            raise ValueError(f"rank must be in 2..64, got {n}")
        if not 0 <= mask < (1 << n):
            raise ValueError(f"mask {mask:#x} out of range for rank {n}")
        return super().__new__(cls, n, mask)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "DegreeVector":
        bits = tuple(bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"components must be 0 or 1, got {bits}")
        mask = 0
        for j, b in enumerate(bits):
            mask |= b << j
        return cls(len(bits), mask)

    @classmethod
    def from_string(cls, s: str) -> "DegreeVector":
        return cls.from_bits(int(c) for c in s)

    @classmethod
    def zero(cls, n: int) -> "DegreeVector":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "DegreeVector":
        return cls(n, (1 << n) - 1)

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self.mask >> j) & 1 for j in range(self.n))

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    @property
    def parity(self) -> int:
        return self.weight & 1

    def __add__(self, other: "DegreeVector") -> "DegreeVector":
        _check_rank(self, other)
        return DegreeVector(self.n, self.mask ^ other.mask)

    def __str__(self) -> str:
        return degree_text(self.n, self.mask)

    def __repr__(self) -> str:
        return f"DegreeVector('{self}')"


def degree_text(n: int, mask: int) -> str:
    """The rendering of a degree in every report: a_1 leftmost."""
    return format(mask, f"0{n}b")[::-1]


def _check_rank(a: DegreeVector, b: DegreeVector) -> None:
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")


def dot(a: DegreeVector, b: DegreeVector) -> int:
    """Mod-2 inner product of two degrees of equal rank."""
    _check_rank(a, b)
    return (a.mask & b.mask).bit_count() & 1


def bracket_kind(a: DegreeVector, b: DegreeVector) -> str:
    """Which bracket closes operators of these degrees.

    Anticommutator when the mod-2 inner product is 1, commutator when 0.
    """
    return ANTICOMMUTATOR if dot(a, b) else COMMUTATOR


def bracket_sign(a: DegreeVector, b: DegreeVector) -> int:
    """Sign s in the graded bracket x*y - s*y*x; -1 for anticommutator."""
    return -1 if dot(a, b) else 1


def odd_masks(n: int) -> list[int]:
    """The masks of all 2**(n-1) parity-1 degrees of rank n in canonical
    order, the one the intermediate-family generator tables are written
    against.

    Degrees are sorted by weight, and inside a weight class the single set
    bit (resp. the single unset bit) walks from the last component to the
    first; ``-mask`` realizes exactly that.
    """
    if n < 2:
        raise ValueError(f"rank must be >= 2, got {n}")
    odd = [m for m in range(1 << n) if m.bit_count() & 1]
    odd.sort(key=lambda m: (m.bit_count(), -m))
    return odd


def enumerate_odd_degrees(n: int) -> list[DegreeVector]:
    """All parity-1 degrees of rank n in canonical order."""
    return [DegreeVector(n, m) for m in odd_masks(n)]


class AlgebraCensus(NamedTuple):
    """Element counts of the rank-n graded algebra."""

    n: int
    num_supercharges: int
    num_central: int
    dim_central_subspace: int


def census(n: int) -> AlgebraCensus:
    """Closed-form counts: supercharges, central elements, subspace dimension.

    There is one supercharge per parity-1 degree and one central element per
    unordered pair of distinct supercharges; the central elements distribute
    evenly over the 2**(n-1) - 1 nonzero parity-0 degrees.
    """
    if n < 2:
        raise ValueError(f"rank must be >= 2, got {n}")
    nq = 1 << (n - 1)
    return AlgebraCensus(
        n=n,
        num_supercharges=nq,
        num_central=(1 << (n - 2)) * (nq - 1),
        dim_central_subspace=1 << (n - 2),
    )
