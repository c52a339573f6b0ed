"""Exact Pauli-string arithmetic and gamma-matrix generators.

Every operator in the Clifford factor of the models is a Pauli string
i**k * X**x * Z**z on m qubits: the bits of ``x`` and ``z`` say on which
tensor factors a sigma_1 and a sigma_3 act, and ``k`` is a phase exponent
mod 4.  Bit order follows ``np.kron``: the first tensor factor is the most
significant bit.  Products, adjoints, equality and commutation are O(1)
integer operations on (x, z, k) whatever the dimension 2**m, following the
binary (symplectic) representation of Aaronson & Gottesman
(quant-ph/0406196).  Dense complex matrices appear only through
:meth:`PauliOperator.to_dense`, the bridge to the tests' numpy oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# value of i**k for k = 0..3
PHASES = (1, 1j, -1, -1j)

_PHASE_EXPONENT = {1: 0, 1j: 1, -1: 2, -1j: 3, -1 + 0j: 2, 1 + 0j: 0}


def phase_exponent(scalar: complex) -> int:
    """Exponent k with scalar == i**k; raises for non-unit scalars."""
    try:
        return _PHASE_EXPONENT[scalar]
    except KeyError:
        raise ValueError(f"{scalar!r} is not a power of i") from None


@dataclass(frozen=True)
class PauliOperator:
    """The Pauli string i**k * X**x * Z**z on m qubits, dimension 2**m.

    As a matrix it sends basis vector c to i**k * (-1)**|z & c| times basis
    vector c ^ x.  Single-qubit codes: sigma_1 = (x=1, z=0, k=0),
    sigma_3 = (0, 1, 0), sigma_2 = (1, 1, 1).  Instances are immutable and
    ``k`` is stored mod 4, so equality is equality of the matrices.
    """

    m: int
    x: int
    z: int
    k: int = 0

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError(f"qubit count must be >= 0, got {self.m}")
        for bits in (self.x, self.z):
            if bits < 0 or bits >> self.m:
                raise ValueError(f"{bits} is not a bit string on {self.m} qubits")
        object.__setattr__(self, "k", self.k % 4)

    @classmethod
    def identity(cls, dim: int) -> "PauliOperator":
        m = dim.bit_length() - 1
        if dim < 1 or dim != 1 << m:
            raise ValueError(f"dimension {dim} is not a power of two")
        return cls(m, 0, 0)

    @property
    def dim(self) -> int:
        return 1 << self.m

    def _check_dim(self, other: "PauliOperator") -> None:
        if self.m != other.m:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __matmul__(self, other: "PauliOperator") -> "PauliOperator":
        if not isinstance(other, PauliOperator):
            return NotImplemented
        self._check_dim(other)
        # Z**z1 X**x2 = (-1)**|z1 & x2| X**x2 Z**z1
        k = self.k + other.k + 2 * (self.z & other.x).bit_count()
        return PauliOperator(self.m, self.x ^ other.x, self.z ^ other.z, k)

    def adjoint(self) -> "PauliOperator":
        # (X**x Z**z)^dagger = Z**z X**x = (-1)**|x & z| X**x Z**z
        return PauliOperator(self.m, self.x, self.z, -self.k + 2 * (self.x & self.z).bit_count())

    def scale(self, exponent: int) -> "PauliOperator":
        """Multiply by i**exponent."""
        return PauliOperator(self.m, self.x, self.z, self.k + exponent)

    def __mul__(self, scalar: complex) -> "PauliOperator":
        return self.scale(phase_exponent(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "PauliOperator":
        return self.scale(2)

    def kron(self, other: "PauliOperator") -> "PauliOperator":
        return PauliOperator(
            self.m + other.m,
            self.x << other.m | other.x,
            self.z << other.m | other.z,
            self.k + other.k,
        )

    def commutation_parity(self, other: "PauliOperator") -> int:
        """0 if the two strings commute, 1 if they anticommute."""
        self._check_dim(other)
        return ((self.x & other.z).bit_count() + (self.z & other.x).bit_count()) & 1

    def is_hermitian(self) -> bool:
        return self == self.adjoint()

    def scalar_of_identity(self) -> complex | None:
        """The scalar c with self == c * identity, if any."""
        if self.x or self.z:
            return None
        return PHASES[self.k]

    def _row_columns_and_phases(self) -> tuple[np.ndarray, np.ndarray]:
        """Column and phase exponent of the sole nonzero entry of each row."""
        rows = np.arange(self.dim, dtype=np.int64)
        cols = rows ^ self.x
        signs = np.zeros(self.dim, dtype=np.int64)
        for bit in range(self.m):
            signs ^= (cols >> bit) & (self.z >> bit) & 1
        return cols, (self.k + 2 * signs) % 4

    def to_dense(self) -> np.ndarray:
        cols, phases = self._row_columns_and_phases()
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        out[np.arange(self.dim), cols] = np.asarray(PHASES)[phases]
        return out

    def triples(self) -> list[tuple[int, int, int]]:
        """Debug serialization: (row, col, phase exponent), row-major."""
        cols, phases = self._row_columns_and_phases()
        return [(r, int(cols[r]), int(phases[r])) for r in range(self.dim)]


def gamma(j: int, m: int) -> PauliOperator:
    """Generator j of the 2m-generator Clifford algebra, dimension 2**m.

    gamma_1 is a pure sigma_1 tensor chain; for j >= 2 a sigma_3 factor sits
    after m-j+1 leading sigma_1 factors.
    """
    if not 1 <= j <= m:
        raise ValueError(f"index {j} out of range 1..{m}")
    return PauliOperator(m, _leading_ones(j, m), 0 if j == 1 else 1 << (j - 2))


def gamma_tilde(j: int, m: int) -> PauliOperator:
    """Generator j+m of the same algebra: sigma_2 after m-j sigma_1 factors.

    Has the same x bits, so its nonzero entries sit at the same positions,
    as gamma(j, m).
    """
    if not 1 <= j <= m:
        raise ValueError(f"index {j} out of range 1..{m}")
    return PauliOperator(m, _leading_ones(j, m), 1 << (j - 1), 1)


def big_gamma(j: int, m: int) -> PauliOperator:
    """i * gamma_j * gamma_tilde_j: diagonal, hermitian, squares to identity.

    The sigma_1 factors cancel and the sigma_3 and sigma_2 factors leave
    -Z on the one or two tensor factors they occupy.
    """
    if not 1 <= j <= m:
        raise ValueError(f"index {j} out of range 1..{m}")
    return PauliOperator(m, 0, (3 << (j - 2)) if j > 1 else 1, 2)


def _leading_ones(j: int, m: int) -> int:
    # sigma_1 on the first m-j+1 tensor factors, i.e. the top m-j+1 bits
    return ((1 << (m - j + 1)) - 1) << (j - 1)


def proportional(x: PauliOperator, y: PauliOperator) -> complex | None:
    """The scalar i**k with x == i**k * y, or None if no such scalar exists."""
    x._check_dim(y)
    if (x.x, x.z) != (y.x, y.z):
        return None
    return PHASES[(x.k - y.k) % 4]


def commutes(x: PauliOperator, y: PauliOperator) -> bool:
    return x.commutation_parity(y) == 0


def anticommutes(x: PauliOperator, y: PauliOperator) -> bool:
    return x.commutation_parity(y) == 1
