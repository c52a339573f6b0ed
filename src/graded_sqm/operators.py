"""Operator views of a model, and the tests' tensor-sum oracle.

A :class:`~graded_sqm.models.Model` is packed tables, one record
(x, z, k, e) per operator.  This module makes the objects that a library
user and the tests work with: a :class:`GradedOperator` per element, an
exact Pauli-string Clifford factor (:mod:`graded_sqm.clifford`) times a
free-word ladder block (:mod:`graded_sqm.sqm_block`).  The views of a
built model are made on demand (:func:`views`), and a model made from
operators reads each operator's record here, once (:func:`read_tables`).
:class:`TensorSum` decides "is this sum of tensor operators zero?" on the
objects themselves; it shares no code with the exact checks it is the
oracle of.  A ``verify`` call never loads this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Iterable, NamedTuple

from .clifford import PHASES, PauliOperator
from .grading import DegreeVector, bracket_sign, dot, enumerate_odd_degrees
from .models import (
    CENTRAL, HAMILTONIAN, HAMILTONIAN_RECORD, Q_BLOCKS, SUPERCHARGE, Block, Model, Record, central,
    fold, split,
)
from .sqm_block import SqmBlock, canonical_blocks


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


# ---------------------------------------------------------------------------
# operators to records
# ---------------------------------------------------------------------------


@cache
def _canonical_q_s() -> tuple[SqmBlock, SqmBlock]:
    """The canonical Q and S, once the identities that the packed records
    rest on hold as free-word identities: Q Q = H, Q S = -S Q, S S = 1."""
    q, h, s = canonical_blocks()
    if not (q @ q == h and q @ s == -(s @ q) and s @ s == SqmBlock.identity()):
        raise RuntimeError("the canonical blocks break Q Q = H, Q S = -S Q or S S = 1")
    return q, s


@cache
def _monomial(k: int, s: int, e: int) -> SqmBlock:
    """The block i**k S**s Q**e."""
    q, sb = _canonical_q_s()
    power = SqmBlock.identity()
    for _ in range(e):
        power = power @ q
    return (sb @ power if s else power) * PHASES[k]


def _read_block(block: SqmBlock) -> tuple[int, int, int]:
    """The (k, s, e) with ``block == i**k S**s Q**e``.

    Such a block has one word, of length e and with coefficient i**k, in its
    first row's nonzero entry.  Any other block raises ValueError.
    """
    (left, right), _ = block.entries
    terms = list((right if left.is_zero() else left).items())
    if len(terms) == 1 and terms[0][1] in PHASES:
        word, c = terms[0]
        k = PHASES.index(c)
        for s in (0, 1):
            if block == _monomial(k, s, len(word)):
                return k, s, len(word)
    raise ValueError(
        f"block {block!r} is not a monomial i**k S**s Q**e; the exact checks accept no other"
    )


def read_records(ops: Iterable[GradedOperator], m: int) -> list[Record]:
    """Each operator as its packed record on m + 1 qubits: the
    :func:`~graded_sqm.models.fold` of its Clifford string and its block
    i**k S**s Q**e.  Each distinct block is read once."""
    read: dict[int, tuple] = {}  # id(block) -> (block, (k, s, e)); the block stays alive
    out = []
    for op in ops:
        p, block = op.clifford, op.block
        if p.m != m:
            raise ValueError(f"dimension mismatch: {p.dim} vs {1 << m}")
        got = read.get(id(block))
        if got is None:
            got = read[id(block)] = (block, _read_block(block))
        out.append(fold(p.x, p.z, p.k, got[1]))
    return out


def _check_keys(what: str, got, want) -> None:
    missing, extra = set(want).difference(got), set(got).difference(want)
    if missing or extra or len(got) != len(want):
        raise ValueError(
            f"{what} must hold each key of the built layout once: {len(missing)} missing,"
            f" {len(extra)} extra, {len(got) - len(set(got))} repeated"
        )


def read_tables(n: int, odd_degrees, hamiltonian, supercharges, centrals) -> tuple:
    """The tables (m, masks, h, q, z) of a model of rank n made from
    operators, and its views in table order.

    Only the built layout is read: each parity-1 degree of rank n once, in
    any order, a supercharge for each and a central element for each pair
    (a, b), a before b.  Any other layout, and an operator whose block is
    not a monomial, is refused (ValueError).
    """
    degrees = tuple(odd_degrees)
    _check_keys("odd_degrees", degrees, enumerate_odd_degrees(n))
    pairs = list(combinations(degrees, 2))
    _check_keys("supercharges", supercharges, degrees)
    _check_keys("centrals", centrals, pairs)
    charges = {a: supercharges[a] for a in degrees}
    cents = {pair: centrals[pair] for pair in pairs}
    m = hamiltonian.clifford.m
    h, *records = read_records([hamiltonian, *charges.values(), *cents.values()], m)
    q, z = records[: len(degrees)], records[len(degrees) :]
    views = dict(odd_degrees=degrees, hamiltonian=hamiltonian, supercharges=charges, centrals=cents)
    return (m, [a.mask for a in degrees], h, q, z), views


# ---------------------------------------------------------------------------
# records to operators
# ---------------------------------------------------------------------------


def views(model: Model) -> dict:
    """The views of a model's tables, as ``Model`` hands them out: its odd
    degrees, Hamiltonian, supercharges and central elements.

    Each view splits its record (:func:`~graded_sqm.models.split`) and
    carries the block of the build, read off that block's one-qubit record:
    ``Q_BLOCKS[s]`` for a supercharge of block bit s, :func:`central` of
    its pair's two for Z_ab, and that of ``HAMILTONIAN_RECORD`` for H.  Its
    Clifford factor is the record with that block divided out.  A record
    whose block qubit that block does not fit, which no build makes, gets
    the block S**s Q**e.
    """
    m = model.m
    charge = [fold(0, 0, 0, block) for block in Q_BLOCKS]  # the blocks' one-qubit records

    def view(record: Record, block: Block, degree, role, pair=None) -> GradedOperator:
        x, z, k, s, e = split(record)
        if fold(x, z, k, (0, s, e)) != record:
            raise ValueError(f"record {record}: the block's x bit is not its ladder power's parity")
        kb = block[0] if block[1:] == (s, e) else 0
        return GradedOperator(PauliOperator(m, x, z, k - kb), _monomial(kb, s, e), degree, role, pair)

    degrees = tuple(DegreeVector(model.spec.n, mask) for mask in model.masks)
    bits = [split(r)[3] for r in model.q]
    supercharges = {
        a: view(r, Q_BLOCKS[s], a, SUPERCHARGE) for a, r, s in zip(degrees, model.q, bits)
    }
    centrals = {}
    for (i, j), r in zip(model.pairs, model.z):
        a, b = degrees[i], degrees[j]
        block = split(central(charge[bits[i]], charge[bits[j]], dot(a, b)))[2:]
        centrals[(a, b)] = view(r, block, a + b, CENTRAL, (a, b))
    zero = DegreeVector.zero(model.spec.n)
    return {
        "odd_degrees": degrees, "supercharges": supercharges, "centrals": centrals,
        "hamiltonian": view(model.h, split(HAMILTONIAN_RECORD)[2:], zero, HAMILTONIAN),
    }


# ---------------------------------------------------------------------------
# sums of tensor operators and their exact zero test
# ---------------------------------------------------------------------------


class TensorTerm(NamedTuple):
    clifford: PauliOperator
    block: SqmBlock


class TensorSum:
    """Formal sum of (Pauli string x block) tensor operators.

    Supports one question, asked exactly: is the sum the zero operator?
    Distinct Pauli strings are linearly independent, so the sum vanishes
    exactly when, for each string, the blocks of the terms carrying it,
    weighted by their phases, add up to the zero block.  The exact checks
    never build one: they read each bracket off packed records, and a sum
    of generic terms is the oracle their residuals are tested against.
    """

    def __init__(self, terms: Iterable[TensorTerm]):
        self.terms = [t for t in terms if not t.block.is_zero()]
        dims = {t.clifford.dim for t in self.terms}
        if len(dims) > 1:
            raise ValueError(f"mixed clifford dimensions in tensor sum: {sorted(dims)}")

    def residual(self) -> str | None:
        """None if the sum is exactly zero, else a short description."""
        groups: dict[tuple[int, int], SqmBlock] = {}
        for t in self.terms:
            key = (t.clifford.x, t.clifford.z)
            groups[key] = groups.get(key, SqmBlock.zero()) + t.block * PHASES[t.clifford.k]
        for (x, z), total in groups.items():
            if not total.is_zero():
                return f"nonzero residual block {total!r} on clifford string x={x} z={z}"
        return None

    def is_zero(self) -> bool:
        return self.residual() is None


def graded_bracket_terms(u: GradedOperator, v: GradedOperator) -> list[TensorTerm]:
    """The two tensor terms of the graded bracket of u and v."""
    s = bracket_sign(u.degree, v.degree)
    return [
        TensorTerm(u.clifford @ v.clifford, u.block @ v.block),
        TensorTerm(v.clifford @ u.clifford, (v.block @ u.block) * (-s)),
    ]
