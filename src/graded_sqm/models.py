"""Model families of graded supersymmetric quantum mechanics.

Every family realizes the full graded algebra {H, Q_a, Z_ab} as tensor
operators: an exact Pauli-string Clifford factor times a formal 2x2 ladder
block.  The minimal family uses the smallest Clifford algebra (two block
types distinguish the last degree component), the next-to-minimal and
maximal families use a single supercharge block with per-degree generator
products, and the rank-4/rank-5 intermediate families come from hard-coded
generator tables.  All generator factors are checked hermitian and
idempotent at build time so a transcription error fails fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple

from .clifford import PauliOperator, big_gamma, gamma, gamma_tilde
from .grading import (
    MAX_RANK,
    DegreeVector,
    dot,
    enumerate_odd_degrees,
)
from .sqm_block import SqmBlock, canonical_blocks

HAMILTONIAN = "hamiltonian"
SUPERCHARGE = "supercharge"
CENTRAL = "central"

# the fixed-rank families: rank n and qubit count m of each generator table
CUSTOM_FAMILIES = {"n4cl12": (4, 6), "n4cl10": (4, 5), "n5cl28": (5, 14), "n5cl26": (5, 13)}
FAMILIES = ("minimal", "next", "maximal", *CUSTOM_FAMILIES)


class ModelSpecError(ValueError):
    """Invalid model selector, rank out of cap, or incompatible options."""


@dataclass(frozen=True)
class GradedOperator:
    """Tensor operator: Pauli-string Clifford factor x formal ladder block."""

    clifford: PauliOperator
    block: SqmBlock
    degree: DegreeVector
    role: str
    pair: tuple[DegreeVector, DegreeVector] | None = None

    @property
    def total_dim(self) -> int:
        return self.clifford.dim * 2

    def label(self) -> str:
        if self.role == SUPERCHARGE:
            return f"Q[{self.degree}]"
        if self.role == CENTRAL:
            a, b = self.pair
            return f"Z[{a},{b}]"
        return "H"


@dataclass(frozen=True)
class ModelSpec:
    """Which family to build, at which rank, with which degree ordering."""

    family: str
    n: int
    ordering: str = "default"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ModelSpecError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.ordering not in ("default", "reversed"):
            raise ModelSpecError(f"ordering must be 'default' or 'reversed', got {self.ordering!r}")
        if self.family in CUSTOM_FAMILIES:
            want = CUSTOM_FAMILIES[self.family][0]
            if self.n != want:
                raise ModelSpecError(f"family {self.family} requires n={want}, got n={self.n}")
            if self.ordering != "default":
                raise ModelSpecError(
                    f"family {self.family} has a fixed generator table; ordering overrides not supported"
                )
        elif not 2 <= self.n <= MAX_RANK:
            raise ModelSpecError(f"{self.family} family limited to 2 <= n <= {MAX_RANK}, got n={self.n}")

    @classmethod
    def parse(cls, selector: str, ordering: str = "default") -> "ModelSpec":
        """Parse selector strings like 'minimal:n=4' or 'n4cl12'."""
        s = selector.strip().lower()
        if s in CUSTOM_FAMILIES:
            return cls(s, CUSTOM_FAMILIES[s][0], ordering)
        if ":" in s:
            family, _, rest = s.partition(":")
            if rest.startswith("n="):
                try:
                    return cls(family, int(rest[2:]), ordering)
                except ValueError as exc:
                    if isinstance(exc, ModelSpecError):
                        raise
                    raise ModelSpecError(f"bad rank in selector {selector!r}") from None
        raise ModelSpecError(
            f"cannot parse selector {selector!r}; expected 'family:n=K' or one of {sorted(CUSTOM_FAMILIES)}"
        )

    @property
    def selector(self) -> str:
        if self.family in CUSTOM_FAMILIES:
            return self.family
        return f"{self.family}:n={self.n}"

    @property
    def qubits(self) -> int:
        """The number m of qubits of the Clifford factor."""
        if self.family == "minimal":
            return self.n - 1
        if self.family == "next":
            return self.n
        if self.family == "maximal":
            return (1 << (self.n - 1)) - 1
        return CUSTOM_FAMILIES[self.family][1]

    @property
    def clifford_dim(self) -> int:
        return 1 << self.qubits

    @property
    def total_dim(self) -> int:
        return 2 * self.clifford_dim


class Model(NamedTuple):
    """A fully built family: Hamiltonian, supercharges and central elements.

    Central elements are stored for ordered degree pairs (earlier, later) in
    the model's degree ordering; the opposite orientation is available
    through :meth:`central`, scaled by the graded antisymmetry sign.
    """

    spec: ModelSpec
    odd_degrees: tuple[DegreeVector, ...]
    hamiltonian: GradedOperator
    supercharges: dict[DegreeVector, GradedOperator]
    centrals: dict[tuple[DegreeVector, DegreeVector], GradedOperator]

    @property
    def clifford_dim(self) -> int:
        return self.hamiltonian.clifford.dim

    @property
    def total_dim(self) -> int:
        return self.hamiltonian.total_dim

    def supercharge(self, a: DegreeVector) -> GradedOperator:
        return self.supercharges[a]

    def stored_central(self, a: DegreeVector, b: DegreeVector) -> tuple[GradedOperator, int]:
        """The stored central element of a distinct degree pair and the sign
        s with ``central(a, b)`` equal to s times it."""
        if (a, b) in self.centrals:
            return self.centrals[(a, b)], 1
        return self.centrals[(b, a)], -1 if dot(a, b) == 0 else 1  # -(-1)**(a.b)

    def central(self, a: DegreeVector, b: DegreeVector) -> GradedOperator:
        """Central element for any orientation of a distinct degree pair."""
        stored, sign = self.stored_central(a, b)
        if sign == 1:
            return stored
        return GradedOperator(
            stored.clifford, stored.block * sign, stored.degree, CENTRAL, (a, b)
        )

    def operators(self) -> list[GradedOperator]:
        return [self.hamiltonian, *self.supercharges.values(), *self.centrals.values()]


def hermitizing_phase(degree: DegreeVector, ncomp: int) -> int:
    """Number of unordered set-bit pairs among the first ncomp components.

    Used as an exponent of i: it is exactly the sign picked up when
    reversing a product of that many anticommuting generators, so the
    prefactor makes the generator product hermitian.
    """
    w = (degree.mask & ((1 << ncomp) - 1)).bit_count()
    return w * (w - 1) // 2


def minimal_phase_exponent(a: DegreeVector) -> int:
    """Phase exponent for the minimal family's generator products.

    Only the first n-1 components enter.  Raises for parity-0 degrees,
    which label no supercharge.
    """
    if a.parity != 1:
        raise ValueError(f"degree {a} has parity 0; supercharge degrees have parity 1")
    return hermitizing_phase(a, a.n - 1)


def _gamma_word(bits: tuple[int, ...], m: int) -> PauliOperator:
    ops = [gamma(j, m) for j in range(1, len(bits) + 1) if bits[j - 1]]
    return reduce(lambda x, y: x @ y, ops, PauliOperator.identity(1 << m))


def _check_generator(g: PauliOperator, what: str) -> None:
    if not g.is_hermitian():
        raise ValueError(f"{what} is not hermitian")
    if (g @ g).scalar_of_identity() != 1:
        raise ValueError(f"{what} does not square to identity")


def _ordered_degrees(spec: ModelSpec) -> list[DegreeVector]:
    degrees = enumerate_odd_degrees(spec.n)
    if spec.ordering == "reversed":
        degrees.reverse()
    return degrees


def _assemble_product_family(
    spec: ModelSpec,
    degrees: list[DegreeVector],
    gens: list[PauliOperator],
    block_bits: list[int] | None = None,
) -> Model:
    """Q_a = G_a x B_a and Z_ab = (-i)**(1 - a.b) G_a G_b x B_a B_b.

    B_a is the supercharge block Q for block bit s_a = 0 (every degree when
    ``block_bits`` is None) and i Q S for s_a = 1, so B_a B_b is H when
    s_a == s_b and +-i H S when they differ.  Each phase-scaled central
    block is built once and shared.
    """
    qb, hb, sb = canonical_blocks()
    charge_blocks = (qb, (qb @ sb) * 1j)
    bits = block_bits or [0] * len(degrees)
    for a, g in zip(degrees, gens):
        _check_generator(g, f"generator for degree {a}")
    supercharges = {
        a: GradedOperator(g, charge_blocks[s], a, SUPERCHARGE)
        for a, g, s in zip(degrees, gens, bits)
    }
    shared: dict[tuple[int, int, int], SqmBlock] = {}
    centrals: dict[tuple[DegreeVector, DegreeVector], GradedOperator] = {}
    for k, a in enumerate(degrees):
        for l in range(k + 1, len(degrees)):
            b = degrees[l]
            key = (bits[k], bits[l], dot(a, b))
            block = shared.get(key)
            if block is None:
                s_a, s_b, d = key
                block = shared[key] = (charge_blocks[s_a] @ charge_blocks[s_b]) * (-1j) ** (1 - d)
            centrals[(a, b)] = GradedOperator(
                gens[k] @ gens[l], block, a + b, CENTRAL, (a, b)
            )
    ham = GradedOperator(
        PauliOperator.identity(gens[0].dim), hb, DegreeVector.zero(spec.n), HAMILTONIAN
    )
    return Model(spec, tuple(degrees), ham, supercharges, centrals)


def _build_minimal(spec: ModelSpec) -> Model:
    """Smallest family: total dimension 2**n.

    The generator product for a degree uses only its first n-1 components;
    the last component a_n sets the block bit s_a = 1 - a_n, which selects
    between the plain supercharge block and its involution-twisted
    companion, and likewise splits the central elements between the two
    diagonal block forms.
    """
    degrees = _ordered_degrees(spec)
    m = spec.qubits
    gens = [_gamma_word(a.bits[:m], m).scale(minimal_phase_exponent(a)) for a in degrees]
    return _assemble_product_family(spec, degrees, gens, [1 - a.bits[-1] for a in degrees])


def _build_next(spec: ModelSpec) -> Model:
    """Next-to-minimal family: total dimension 2**(n+1).

    Generator products now use all n components.  The all-ones degree has
    parity 1 only for odd n; its supercharge is the identity factor, which
    is why the family partially splits central elements apart for odd n.
    """
    degrees = _ordered_degrees(spec)
    n, m = spec.n, spec.qubits
    ones, identity = DegreeVector.ones(n), PauliOperator.identity(1 << m)
    gens = [identity if a == ones else _gamma_word(a.bits, m).scale(hermitizing_phase(a, n)) for a in degrees]
    return _assemble_product_family(spec, degrees, gens)


def _build_maximal(spec: ModelSpec) -> Model:
    """Maximal family: total dimension 2**(2**(n-1)).

    One Clifford generator pair per supercharge except the last; diagonal
    involution factors are interleaved so that two generators anticommute
    exactly when their degrees have mod-2 inner product zero, and the final
    generator is a pure product of diagonal involutions.
    """
    degrees = _ordered_degrees(spec)
    mp = spec.qubits
    M = mp + 1
    dim = 1 << mp
    involutions = [big_gamma(j, mp) for j in range(1, mp + 1)]

    gens = [gamma(1, mp)]
    for k in range(2, M):
        g = PauliOperator.identity(dim)
        for j in range(1, k):
            if dot(degrees[j - 1], degrees[k - 1]):
                g = g @ involutions[j - 1]
        gens.append(g @ gamma(k, mp))
    last = PauliOperator.identity(dim)
    for j in range(1, M):
        if not dot(degrees[j - 1], degrees[M - 1]):
            last = last @ involutions[j - 1]
    gens.append(last)
    return _assemble_product_family(spec, degrees, gens)


def _product(*ops: PauliOperator) -> PauliOperator:
    return reduce(lambda x, y: x @ y, ops)


def _n4cl12_generators(g: list, gt: list, G: list) -> list[PauliOperator]:
    return [
        g[1],
        g[2],
        g[3],
        g[4],
        _product(G[1], G[2], G[3], g[5]),
        _product(G[1], G[2], G[4], g[6]),
        _product(G[2], G[5], G[6]),
        _product(g[1], gt[2], gt[3], gt[4]),
    ]


def _n4cl10_generators(g: list, gt: list, G: list) -> list[PauliOperator]:
    return [
        g[1],
        g[2],
        g[3],
        g[4],
        _product(G[1], G[2], G[3], g[5]),
        _product(G[3], G[5]),
        _product(gt[1], g[2], gt[3], gt[4]),
        _product(g[2], g[3], g[4]).scale(1),
    ]


def _n5cl28_generators(g: list, gt: list, G: list) -> list[PauliOperator]:
    return [
        g[1],
        g[2],
        g[3],
        g[4],
        g[5],
        _product(G[1], G[2], G[3], g[6]),
        _product(G[1], G[2], G[4], g[7]),
        _product(G[1], G[2], G[5], g[8]),
        _product(G[1], G[3], G[4], G[8], g[9]),
        _product(G[1], G[3], G[5], G[7], g[10]),
        _product(G[1], G[4], G[5], G[6], g[11]),
        _product(G[2], G[3], G[4], G[8], G[10], G[11], g[12]),
        _product(G[2], G[3], G[5], G[7], G[9], G[11], g[13]),
        _product(G[2], G[4], G[5], G[6], G[9], G[10], g[14]),
        _product(G[1], G[2], G[9], G[10], G[11], G[12], G[13], G[14]),
        _product(gt[1], gt[2], gt[3], gt[4], gt[5], g[6], g[7], g[8]),
    ]


def _n5cl26_generators(g: list, gt: list, G: list) -> list[PauliOperator]:
    return [
        g[1],
        g[2],
        g[3],
        g[4],
        g[5],
        _product(G[1], G[2], G[3], g[6]),
        _product(G[1], G[2], G[4], g[7]),
        _product(G[1], G[2], G[5], g[8]),
        _product(G[1], G[3], G[4], G[8], g[9]),
        _product(G[1], G[3], G[5], G[7], g[10]),
        _product(G[1], G[4], G[5], G[6], g[11]),
        _product(G[2], G[3], G[4], G[8], G[10], G[11], g[12]),
        _product(G[2], G[3], G[5], G[7], G[9], G[11], g[13]),
        _product(G[1], G[3], G[7], G[8], G[11], G[12], G[13]),
        _product(g[3], g[4], g[5], gt[12], gt[13]),
        _product(gt[1], gt[2], gt[3], gt[4], gt[5], g[6], g[7], g[8]),
    ]


def _build_custom(spec: ModelSpec) -> Model:
    """Intermediate rank-4 / rank-5 families from fixed generator tables.

    The table of family F is ``_F_generators``; it indexes the gamma,
    gamma-tilde and big-gamma alphabets on the family's m qubits from 1.
    """
    m = spec.qubits
    g, gt, G = (
        [None] + [letter(j, m) for j in range(1, m + 1)] for letter in (gamma, gamma_tilde, big_gamma)
    )
    table = globals()[f"_{spec.family}_generators"]
    return _assemble_product_family(spec, _ordered_degrees(spec), table(g, gt, G))


_BUILDERS = {"minimal": _build_minimal, "next": _build_next, "maximal": _build_maximal}


def build(spec: ModelSpec) -> Model:
    return _BUILDERS.get(spec.family, _build_custom)(spec)


def build_from_selector(selector: str) -> Model:
    return build(ModelSpec.parse(selector))
