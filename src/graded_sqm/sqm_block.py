"""The 2x2 supersymmetric building block as a formal word matrix.

The formal layer is a free word algebra over the ladder alphabet {A, Ad}:
no rewriting, no normal ordering, equality is letter-by-letter.  The block
identities (the square of the supercharge block equals the Hamiltonian
block, and both graded-commute correctly with the involution block) hold as
exact word-matrix identities, so every algebraic claim downstream is
independent of any concrete realization of the ladder pair.

The numeric realizations of the letters live in
:mod:`graded_sqm.realizations`; :func:`realize` applies one to a formal
block, and :func:`ground_state_pair` gives its ladder kernels.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .realizations import NumericRealization

LOWER = "A"
RAISE = "Ad"

Word = tuple[str, ...]


class WordSum:
    """Formal Gaussian-integer combination of free words over {A, Ad}."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Word, complex] | None = None):
        self._terms = {w: c for w, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "WordSum":
        return cls()

    @classmethod
    def unit(cls, coeff: complex = 1) -> "WordSum":
        return cls({(): coeff})

    @classmethod
    def letter(cls, name: str) -> "WordSum":
        if name not in (LOWER, RAISE):
            raise ValueError(f"unknown letter {name!r}")
        return cls({(name,): 1})

    def items(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "WordSum") -> "WordSum":
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) + c
        return WordSum(out)

    def __neg__(self) -> "WordSum":
        return WordSum({w: -c for w, c in self._terms.items()})

    def __sub__(self, other: "WordSum") -> "WordSum":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, WordSum):
            out: dict[Word, complex] = {}
            for w1, c1 in self._terms.items():
                for w2, c2 in other._terms.items():
                    w = w1 + w2
                    out[w] = out.get(w, 0) + c1 * c2
            return WordSum(out)
        return WordSum({w: c * other for w, c in self._terms.items()})

    def __rmul__(self, scalar) -> "WordSum":
        return self * scalar

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WordSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def adjoint(self) -> "WordSum":
        swap = {LOWER: RAISE, RAISE: LOWER}
        return WordSum(
            {
                tuple(swap[x] for x in reversed(w)): complex(c).conjugate()
                for w, c in self._terms.items()
            }
        )

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for w, c in sorted(self._terms.items()):
            word = "*".join(w) if w else "1"
            bits.append(f"({c})*{word}" if c != 1 else word)
        return " + ".join(bits)


class SqmBlock:
    """2x2 matrix with WordSum entries; ordinary matrix algebra."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)
        if len(self.entries) != 2 or any(len(r) != 2 for r in self.entries):
            raise ValueError("block must be 2x2")

    @classmethod
    def zero(cls) -> "SqmBlock":
        z = WordSum.zero()
        return cls([[z, z], [z, z]])

    @classmethod
    def identity(cls) -> "SqmBlock":
        z = WordSum.zero()
        one = WordSum.unit()
        return cls([[one, z], [z, one]])

    def __matmul__(self, other: "SqmBlock") -> "SqmBlock":
        e, f = self.entries, other.entries
        return SqmBlock(
            [
                [e[i][0] * f[0][j] + e[i][1] * f[1][j] for j in range(2)]
                for i in range(2)
            ]
        )

    def __add__(self, other: "SqmBlock") -> "SqmBlock":
        return SqmBlock(
            [[self.entries[i][j] + other.entries[i][j] for j in range(2)] for i in range(2)]
        )

    def __sub__(self, other: "SqmBlock") -> "SqmBlock":
        return self + (-other)

    def __neg__(self) -> "SqmBlock":
        return SqmBlock([[-e for e in row] for row in self.entries])

    def __mul__(self, scalar) -> "SqmBlock":
        return SqmBlock([[e * scalar for e in row] for row in self.entries])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SqmBlock):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def adjoint(self) -> "SqmBlock":
        e = self.entries
        return SqmBlock([[e[j][i].adjoint() for j in range(2)] for i in range(2)])

    def __repr__(self) -> str:
        e = self.entries
        return f"[[{e[0][0]!r}, {e[0][1]!r}], [{e[1][0]!r}, {e[1][1]!r}]]"


def canonical_blocks() -> tuple[SqmBlock, SqmBlock, SqmBlock]:
    """The supercharge, Hamiltonian and involution blocks (Q, H, S).

    Q is antidiagonal with the raising letter on top, H is the diagonal of
    the two letter orderings, S is diag(1, -1).  Q @ Q == H holds as a free
    word-matrix identity, as do {Q, S} == 0 and [H, S] == 0.
    """
    z = WordSum.zero()
    a = WordSum.letter(LOWER)
    ad = WordSum.letter(RAISE)
    q = SqmBlock([[z, ad], [a, z]])
    h = SqmBlock([[ad * a, z], [z, a * ad]])
    s = SqmBlock([[WordSum.unit(1), z], [z, WordSum.unit(-1)]])
    return q, h, s


def realize(block: SqmBlock | WordSum, realization: NumericRealization) -> np.ndarray:
    """Substitute numeric ladder matrices into a formal block or entry.

    A single word-sum entry is realized as the dim x dim complex sum of its
    coefficients times the realization's ``word_matrix`` of each word.  For
    a block, the block index is the outer tensor slot: the result is 2*dim
    dimensional with the (i, j) entries realized as dim x dim sub-blocks.
    """
    import numpy as np
    if isinstance(block, SqmBlock):
        return np.block([[realize(e, realization) for e in row] for row in block.entries])
    out = np.zeros((realization.dim, realization.dim), dtype=np.complex128)
    for word, coeff in block.items():
        out += coeff * realization.word_matrix(word)
    return out


def ground_state_pair(
    realization: NumericRealization,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Numeric kernels of the lowering and raising matrices.

    Returns (kernel of A, kernel of Ad) as lists of unit vectors.  Empty
    kernels are valid results; the nonempty side tells which chirality of
    zero-energy state the realization supports.
    """
    return realization.kernel_pair()
