"""Model families of graded supersymmetric quantum mechanics.

Every family realizes the full graded algebra {H, Q_a, Z_ab} as tensor
operators: a Pauli-string Clifford factor times a 2x2 ladder block that is
a monomial i**k S**s Q**e.  A model is held as packed tables, one record
per operator (see :class:`Model`).  Each family is one row of one table
(its fixed rank, qubit count and generator rule), and :func:`build` makes
the records from the integer bits of the row's generators, with no
operator object.  The minimal family uses the smallest Clifford algebra
(two block types distinguish the last degree component), the
next-to-minimal and maximal families use a single supercharge block with
per-degree generator products, and the rank-4/rank-5 intermediate
families come from hard-coded generator tables.
All generator factors are checked hermitian at build time (a Pauli string
is hermitian exactly when it squares to the identity), so a transcription
error fails fast.  The operator objects are views, made on demand by
:mod:`graded_sqm.operators`, which a ``verify`` call never loads.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Callable, NamedTuple

from .grading import MAX_RANK, CheckedTuple, DegreeVector, degree_text, dot, odd_masks

if TYPE_CHECKING:
    from .operators import GradedOperator

HAMILTONIAN = "hamiltonian"
SUPERCHARGE = "supercharge"
CENTRAL = "central"


class ModelSpecError(ValueError):
    """Invalid model selector, rank out of cap, or incompatible options."""


class ModelSpec(CheckedTuple, NamedTuple("ModelSpec", [("family", str), ("n", int), ("ordering", str)])):
    """Which family to build, at which rank, with which degree ordering.

    Checked when made, against the family's row of ``_FAMILIES``.
    """

    __slots__ = ()

    def __new__(cls, family: str, n: int, ordering: str = "default") -> "ModelSpec":
        if not isinstance(n, int):
            raise ModelSpecError(f"rank must be an int, got {n!r}")
        if family not in FAMILIES:
            raise ModelSpecError(f"unknown family {family!r}; choose from {FAMILIES}")
        if ordering not in ("default", "reversed"):
            raise ModelSpecError(f"ordering must be 'default' or 'reversed', got {ordering!r}")
        want = _FAMILIES[family].rank
        if want is not None:
            if n != want:
                raise ModelSpecError(f"family {family} requires n={want}, got n={n}")
            if ordering != "default":
                raise ModelSpecError(
                    f"family {family} has a fixed generator table; ordering overrides not supported"
                )
        elif not 2 <= n <= MAX_RANK:
            raise ModelSpecError(f"{family} family limited to 2 <= n <= {MAX_RANK}, got n={n}")
        return super().__new__(cls, family, n, ordering)

    @classmethod
    def parse(cls, selector: str, ordering: str = "default") -> "ModelSpec":
        """Parse selector strings like 'minimal:n=4' or 'n4cl12'."""
        s = selector.strip().lower()
        if s in _FAMILIES and _FAMILIES[s].rank is not None:
            return cls(s, _FAMILIES[s].rank, ordering)
        if ":" in s:
            family, _, rest = s.partition(":")
            if rest.startswith("n="):
                rank = rest[2:]
                try:
                    # int() also reads a sign, underscores and non-ASCII digits
                    if not (rank.isascii() and rank.isdigit()):
                        raise ValueError(rank)
                    n = int(rank)  # and refuses too many digits
                except ValueError:
                    raise ModelSpecError(f"bad rank in selector {selector!r}") from None
                return cls(family, n, ordering)
        fixed = sorted(f for f, row in _FAMILIES.items() if row.rank is not None)
        raise ModelSpecError(
            f"cannot parse selector {selector!r}; expected 'family:n=K' or one of {fixed}"
        )

    @property
    def selector(self) -> str:
        return self.family if _FAMILIES[self.family].rank is not None else f"{self.family}:n={self.n}"

    @property
    def qubits(self) -> int:
        """The number m of qubits of the Clifford factor."""
        return _FAMILIES[self.family].qubits(self.n)


# ---------------------------------------------------------------------------
# packed records
# ---------------------------------------------------------------------------

Record = tuple[int, int, int, int]
Block = tuple[int, int, int]  # (k, s, e): the monomial block i**k S**s Q**e

# the build's supercharge blocks, by block bit: Q, and i Q S = i**3 S Q
Q_BLOCKS: tuple[Block, Block] = ((0, 0, 1), (3, 1, 1))

# the Hamiltonian 1 x Q Q: Q Q is the canonical block diag(Ad A, A Ad)
HAMILTONIAN_RECORD: Record = (0, 0, 0, 2)


def fold(x: int, z: int, k: int, block: Block) -> Record:
    """The record of i**k X**x Z**z x i**kb S**s Q**e, for block (kb, s, e):
    the block is the last qubit, with x bit e mod 2 and z bit s, and its
    phase kb joins k, with the sign of Z**s X**e = (-1)**(s e) X**e Z**s."""
    kb, s, e = block
    odd = e & 1
    return x << 1 | odd, z << 1 | s, (k + kb + 2 * (s & odd)) & 3, e


def split(record: Record) -> tuple[int, int, int, int, int]:
    """The (x, z, k, s, e) with ``fold(x, z, k, (0, s, e)) == record``:
    the Clifford string, its phase and the block S**s Q**e.  The block
    qubit's x bit is read as e mod 2 and not checked."""
    x, z, k, e = record
    s = z & 1
    return x >> 1, z >> 1, (k + 2 * (s & e)) & 3, s, e


def product(u: Record, v: Record) -> Record:
    """The record of the product u v: the words XOR, the phase gains
    2 |z_u & x_v| (Z**z X**x = (-1)**|z & x| X**x Z**z) and the ladder
    powers add."""
    xu, zu, ku, eu = u
    xv, zv, kv, ev = v
    return xu ^ xv, zu ^ zv, (ku + kv + 2 * (zu & xv).bit_count()) & 3, eu + ev


def central(u: Record, v: Record, d: int) -> Record:
    """The record of Z = (-i)**(1 - d) u v, the central element of the
    supercharges u and v whose degrees have inner product d: that of
    :func:`product` with the phase raised by 3 (1 - d)."""
    x, z, k, e = product(u, v)
    return x, z, (k + 3 - 3 * d) & 3, e


class Model:
    """A built model as packed tables: one record (x, z, k, e) per operator.

    A record is the operator i**k X**x Z**z x Q**e: a Pauli string on m + 1
    qubits, the ladder block the last one, times a ladder power.  A
    monomial block i**k S**s Q**e multiplies like the one-qubit string
    i**k Z**s X**(e mod 2) with the powers of Q added, since S anticommutes
    with Q as Z with X, S S = 1 and Q Q = H.  :func:`fold`, :func:`split`
    and the build's blocks ``Q_BLOCKS`` are the one statement of this
    format; a product is :func:`product` (after Aaronson & Gottesman,
    quant-ph/0406196).

    The tables: ``masks``, the degree masks of every supercharge in the
    model's ordering; ``q``, their records; ``h``, the Hamiltonian's;
    ``pairs``, every index pair i < j, and ``z``, their central records;
    ``m``, the number of Clifford qubits.  The exact checks read these and
    nothing else.

    The operators are views, made on demand by :mod:`graded_sqm.operators`
    by splitting the records: ``hamiltonian``, ``supercharges``,
    ``centrals``, :meth:`central` and :meth:`operators`.  ``Model(spec,
    odd_degrees, hamiltonian, supercharges, centrals)`` makes a model from
    operators in the built layout only (``operators.read_tables``): it
    keeps their records, not the objects, and refuses any other layout or
    an operator whose block is not a monomial.
    """

    __slots__ = ("spec", "m", "masks", "h", "q", "pairs", "z", "_views")

    def __init__(self, spec: ModelSpec, odd_degrees, hamiltonian, supercharges, centrals) -> None:
        from .operators import read_tables

        self._fill(spec, *read_tables(spec.n, odd_degrees, hamiltonian, supercharges, centrals))

    @classmethod
    def from_tables(cls, spec: ModelSpec, m: int, masks, h: Record, q, z) -> "Model":
        model = cls.__new__(cls)
        model._fill(spec, m, masks, h, q, z)
        return model

    def _fill(self, spec, m, masks, h, q, z) -> None:
        self.spec, self.m, self.h = spec, m, h
        self.masks, self.q, self.z = tuple(masks), tuple(q), tuple(z)
        self.pairs = tuple(combinations(range(len(self.q)), 2))
        if (len(self.masks), len(self.z)) != (len(self.q), len(self.pairs)):
            raise ValueError("the tables need a mask per supercharge and a record per pair")
        self._views = {}

    @property
    def clifford_dim(self) -> int:
        return 1 << self.m

    @property
    def total_dim(self) -> int:
        return 2 << self.m

    # -- views --------------------------------------------------------------

    def _view(self, name: str):
        if name not in self._views:
            from .operators import views

            self._views.update(views(self))
        return self._views[name]

    @property
    def odd_degrees(self) -> tuple[DegreeVector, ...]:
        return self._view("odd_degrees")

    @property
    def hamiltonian(self) -> GradedOperator:
        return self._view("hamiltonian")

    @property
    def supercharges(self) -> dict[DegreeVector, GradedOperator]:
        return self._view("supercharges")

    @property
    def centrals(self) -> dict[tuple[DegreeVector, DegreeVector], GradedOperator]:
        """Central elements for ordered degree pairs (earlier, later) in the
        model's degree ordering; :meth:`central` gives either orientation."""
        return self._view("centrals")

    def supercharge(self, a: DegreeVector) -> GradedOperator:
        return self.supercharges[a]

    def central(self, a: DegreeVector, b: DegreeVector) -> GradedOperator:
        """The central element Z_ab of a distinct degree pair, in either
        orientation: the stored one for a before b, else the stored Z_ba
        times -(-1)**(a.b), labelled Z[a,b].  Any other pair is a ValueError."""
        z = self.centrals.get((a, b))
        if z is not None:
            return z
        z = self.centrals.get((b, a))
        if z is None:
            raise ValueError(f"no central element Z[{a},{b}]: not two distinct degrees of the model")
        return type(z)(z.clifford, z.block if dot(a, b) else -z.block, z.degree, CENTRAL, (a, b))

    def operators(self) -> list[GradedOperator]:
        return [self.hamiltonian, *self.supercharges.values(), *self.centrals.values()]


# ---------------------------------------------------------------------------
# generator letters: Pauli strings i**k X**x Z**z as integer triples (x, z, k)
# ---------------------------------------------------------------------------

Pauli = tuple[int, int, int]


def _leading_ones(j: int, m: int) -> int:
    # sigma_1 on the first m-j+1 tensor factors, i.e. the top m-j+1 bits
    return ((1 << (m - j + 1)) - 1) << (j - 1)


def _check_index(j: int, m: int) -> None:
    if not 1 <= j <= m:
        raise ValueError(f"index {j} out of range 1..{m}")


def gamma_bits(j: int, m: int) -> Pauli:
    """Generator j of the 2m-generator Clifford algebra, dimension 2**m.

    gamma_1 is a pure sigma_1 tensor chain; for j >= 2 a sigma_3 factor sits
    after m-j+1 leading sigma_1 factors.  Bit order follows ``np.kron``: the
    first tensor factor is the most significant bit.
    """
    _check_index(j, m)
    return _leading_ones(j, m), 0 if j == 1 else 1 << (j - 2), 0


def gamma_tilde_bits(j: int, m: int) -> Pauli:
    """Generator j+m of the same algebra: sigma_2 after m-j sigma_1 factors.

    Has the same x bits, so its nonzero entries sit at the same positions,
    as gamma j.
    """
    _check_index(j, m)
    return _leading_ones(j, m), 1 << (j - 1), 1


def big_gamma_bits(j: int, m: int) -> Pauli:
    """i * gamma_j * gamma_tilde_j: diagonal, hermitian, squares to identity.

    The sigma_1 factors cancel and the sigma_3 and sigma_2 factors leave
    -Z on the one or two tensor factors they occupy.
    """
    _check_index(j, m)
    return 0, (3 << (j - 2)) if j > 1 else 1, 2


def _mul(*factors: Pauli) -> Pauli:
    """The product of Pauli strings, left to right."""
    x = z = k = 0
    for fx, fz, fk in factors:
        k += fk + 2 * (z & fx).bit_count()
        x ^= fx
        z ^= fz
    return x, z, k & 3


def _scale(p: Pauli, exponent: int) -> Pauli:
    """p times i**exponent."""
    return p[0], p[1], (p[2] + exponent) & 3


def _pairs(mask: int) -> int:
    w = mask.bit_count()
    return w * (w - 1) // 2


def hermitizing_phase(degree: DegreeVector, ncomp: int) -> int:
    """Number of unordered set-bit pairs among the first ncomp components.

    Used as an exponent of i: it is exactly the sign picked up when
    reversing a product of that many anticommuting generators, so the
    prefactor makes the generator product hermitian.
    """
    return _pairs(degree.mask & ((1 << ncomp) - 1))


def minimal_phase_exponent(a: DegreeVector) -> int:
    """Phase exponent for the minimal family's generator products.

    Only the first n-1 components enter.  Raises for parity-0 degrees,
    which label no supercharge.
    """
    if a.parity != 1:
        raise ValueError(f"degree {a} has parity 0; supercharge degrees have parity 1")
    return hermitizing_phase(a, a.n - 1)


def _gamma_word(mask: int, m: int) -> Pauli:
    """The product of gamma_j over the components j <= m set in mask, in increasing j."""
    return _mul(*(gamma_bits(j, m) for j in range(1, m + 1) if mask >> (j - 1) & 1))


def _check_generator(g: Pauli, what: str) -> None:
    # i**k X**x Z**z is hermitian, and then squares to the identity, exactly
    # when k = |x & z| mod 2
    x, z, k = g
    if (k + (x & z).bit_count()) & 1:
        raise ValueError(f"{what} is not hermitian")


# ---------------------------------------------------------------------------
# the families
# ---------------------------------------------------------------------------


def _minimal_generators(masks: list[int], m: int) -> tuple[list[Pauli], list[int]]:
    """Smallest family: total dimension 2**n.

    The generator product for a degree uses only its first n-1 components;
    the last component a_n sets the block bit s_a = 1 - a_n, which selects
    between the plain supercharge block and its involution-twisted
    companion, and likewise splits the central elements between the two
    diagonal block forms.
    """
    low = (1 << m) - 1
    gens = [_scale(_gamma_word(mask, m), _pairs(mask & low)) for mask in masks]
    return gens, [1 - (mask >> m & 1) for mask in masks]


def _next_generators(masks: list[int], m: int) -> tuple[list[Pauli], None]:
    """Next-to-minimal family: total dimension 2**(n+1), m = n.

    Generator products now use all n components.  The all-ones degree has
    parity 1 only for odd n; its supercharge is the identity factor, which
    is why the family partially splits central elements apart for odd n.
    """
    ones = (1 << m) - 1
    gens = [(0, 0, 0) if mask == ones else _scale(_gamma_word(mask, m), _pairs(mask)) for mask in masks]
    return gens, None


def _maximal_generators(masks: list[int], mp: int) -> tuple[list[Pauli], None]:
    """Maximal family: total dimension 2**(2**(n-1)).

    One Clifford generator pair per supercharge except the last; diagonal
    involution factors are interleaved so that two generators anticommute
    exactly when their degrees have mod-2 inner product zero, and the final
    generator is a pure product of diagonal involutions.
    """
    M = mp + 1
    involutions = [big_gamma_bits(j, mp) for j in range(1, mp + 1)]

    def odd(i: int, j: int) -> int:  # the inner product of degrees i and j (from 1)
        return (masks[i - 1] & masks[j - 1]).bit_count() & 1

    gens = [gamma_bits(1, mp)]
    for k in range(2, M):
        own = [involutions[j - 1] for j in range(1, k) if odd(j, k)]
        gens.append(_mul(*own, gamma_bits(k, mp)))
    gens.append(_mul(*(involutions[j - 1] for j in range(1, M) if not odd(j, M))))
    return gens, None


def _table(rows: Callable[[list, list, list], list[Pauli]]) -> Callable:
    """The generator rule of a fixed table ``rows(g, gt, G)``, which indexes
    the gamma, gamma-tilde and big-gamma alphabets on m qubits from 1.
    n4cl10 -> n4cl12 and n5cl26 -> n5cl28 are steps of the paper's sequences
    of models, whose larger algebra changes only rows 6-8 of the n = 4 table
    and rows 14-15 of the n = 5 one: each pair states its shared rows once."""
    letters = (gamma_bits, gamma_tilde_bits, big_gamma_bits)
    return lambda masks, m: (rows(*([None] + [f(j, m) for j in range(1, m + 1)] for f in letters)), None)


def _n4_generators(g: list, G: list, *own: Pauli) -> list[Pauli]:
    """Rows 1-5 of both n = 4 tables, then the model's own rows 6-8."""
    return [g[1], g[2], g[3], g[4], _mul(G[1], G[2], G[3], g[5]), *own]


def _n4cl12_generators(g: list, gt: list, G: list) -> list[Pauli]:
    return _n4_generators(
        g, G, _mul(G[1], G[2], G[4], g[6]), _mul(G[2], G[5], G[6]), _mul(g[1], gt[2], gt[3], gt[4])
    )


def _n4cl10_generators(g: list, gt: list, G: list) -> list[Pauli]:
    return _n4_generators(
        g, G, _mul(G[3], G[5]), _mul(gt[1], g[2], gt[3], gt[4]), _scale(_mul(g[2], g[3], g[4]), 1)
    )


def _n5_generators(g: list, gt: list, G: list, row14: Pauli, row15: Pauli) -> list[Pauli]:
    """Rows 1-13 and 16 of both n = 5 tables around the model's own rows 14 and 15."""
    return [
        g[1], g[2], g[3], g[4], g[5],
        _mul(G[1], G[2], G[3], g[6]),
        _mul(G[1], G[2], G[4], g[7]),
        _mul(G[1], G[2], G[5], g[8]),
        _mul(G[1], G[3], G[4], G[8], g[9]),
        _mul(G[1], G[3], G[5], G[7], g[10]),
        _mul(G[1], G[4], G[5], G[6], g[11]),
        _mul(G[2], G[3], G[4], G[8], G[10], G[11], g[12]),
        _mul(G[2], G[3], G[5], G[7], G[9], G[11], g[13]),
        row14,
        row15,
        _mul(gt[1], gt[2], gt[3], gt[4], gt[5], g[6], g[7], g[8]),
    ]


def _n5cl28_generators(g: list, gt: list, G: list) -> list[Pauli]:
    return _n5_generators(
        g, gt, G,
        _mul(G[2], G[4], G[5], G[6], G[9], G[10], g[14]),
        _mul(G[1], G[2], G[9], G[10], G[11], G[12], G[13], G[14]),
    )


def _n5cl26_generators(g: list, gt: list, G: list) -> list[Pauli]:
    return _n5_generators(
        g, gt, G,
        _mul(G[1], G[3], G[7], G[8], G[11], G[12], G[13]),
        _mul(g[3], g[4], g[5], gt[12], gt[13]),
    )


class _Family(NamedTuple):
    rank: int | None  # the fixed rank of its generator table; None: every rank 2..MAX_RANK
    qubits: Callable[[int], int]  # the qubit count m at rank n
    generators: Callable[[list[int], int], tuple[list[Pauli], list[int] | None]]  # of masks on m qubits


# every family, one row each: ModelSpec checks and names a spec by its row,
# and build assembles a model from it
_FAMILIES = {
    "minimal": _Family(None, lambda n: n - 1, _minimal_generators),
    "next": _Family(None, lambda n: n, _next_generators),
    "maximal": _Family(None, lambda n: (1 << (n - 1)) - 1, _maximal_generators),
    "n4cl12": _Family(4, lambda n: 6, _table(_n4cl12_generators)),
    "n4cl10": _Family(4, lambda n: 5, _table(_n4cl10_generators)),
    "n5cl28": _Family(5, lambda n: 14, _table(_n5cl28_generators)),
    "n5cl26": _Family(5, lambda n: 13, _table(_n5cl26_generators)),
}
FAMILIES = tuple(_FAMILIES)


def build(spec: ModelSpec) -> Model:
    """Q_a = G_a x B_a and Z_ab = (-i)**(1 - a.b) Q_a Q_b, as packed records.

    The family's row gives G_a and the block bit s_a of each degree, in the
    spec's ordering; B_a is ``Q_BLOCKS[s_a]``: Q for s_a = 0 (every degree
    when the row gives no bits) and i Q S for s_a = 1.  So Q_a's record is
    the fold of G_a and B_a, and each central record is :func:`central` of
    its pair: B_a B_b is H when s_a == s_b and +-i H S when they differ.
    """
    masks = odd_masks(spec.n)
    if spec.ordering == "reversed":
        masks.reverse()
    gens, bits = _FAMILIES[spec.family].generators(masks, spec.qubits)
    q = []
    for mask, g, s in zip(masks, gens, bits or [0] * len(masks)):
        _check_generator(g, f"generator for degree {degree_text(spec.n, mask)}")
        q.append(fold(*g, Q_BLOCKS[s]))
    pairs = combinations(range(len(q)), 2)
    z = [central(q[i], q[j], (masks[i] & masks[j]).bit_count() & 1) for i, j in pairs]
    return Model.from_tables(spec, spec.qubits, masks, HAMILTONIAN_RECORD, q, z)


def build_from_selector(selector: str) -> Model:
    return build(ModelSpec.parse(selector))
