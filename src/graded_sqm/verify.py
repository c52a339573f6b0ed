"""Exact verification engine for built models.

Every Clifford factor is a Pauli string (see :mod:`graded_sqm.clifford`)
and every ladder block a free word matrix, so all algebraic checks are
exact: a passing check has zero residual by construction, not small
residual.  Every block is a monomial i**k S**s Q**e, so the checks read
each operator once into a packed record, a Pauli string with the block as
one more qubit (:func:`_records`).  Distinct Pauli strings are linearly
independent, which turns zero tests, ranks, orbits and operator closures
into closed forms over GF(2), the two-element field (Dehaene & De Moor,
quant-ph/0304125).  The centrality sweep holds one bit per operator in Python integers ("bit
planes"), so the exact checks need no numpy.  This module holds the exact
engine only: spectra of a numeric realization are
:func:`graded_sqm.realizations.spectrum`, which never loads this module.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .clifford import PHASES, PauliOperator
from .grading import ANTICOMMUTATOR, COMMUTATOR, DegreeVector, bracket_sign
from .models import GradedOperator, Model
# realize and ground_state_pair stay importable here: the benchmark's tracer wraps these names
from .sqm_block import SqmBlock, canonical_blocks, ground_state_pair, realize  # noqa: F401


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
    weighted by their phases, add up to the zero block.
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
                return f"nonzero residual block {total!r} on clifford string {_string_text(x, z)}"
        return None

    def is_zero(self) -> bool:
        return self.residual() is None


def _string_text(x: int, z: int) -> str:
    return f"x={x} z={z}"


def _residual(
    memo: dict,
    key: tuple,
    strings: Sequence[tuple[int, int]],
    u: GradedOperator,
    v: GradedOperator,
    target: GradedOperator | None = None,
    coeff: complex = 0,
) -> str | None:
    """The residual text of the tensor sum of the graded bracket of u and v,
    plus ``coeff`` times ``target`` if given, its block algebra run once per
    ``key`` in ``memo``.

    ``strings`` are the distinct Clifford strings (x, z) of the sum's terms,
    in the order the terms meet them.  The text depends on the strings only
    through the one it names, last: ``key`` must hold everything else, the
    blocks, phases and coefficients of the terms and which of their strings
    coincide.  So the text of one pair, cut before that name, serves every
    pair with its key, each naming its own string in the same position.
    """
    hit = memo.get(key)
    if hit is None:
        terms = graded_bracket_terms(u, v)
        if target is not None:
            terms.append(TensorTerm(target.clifford, target.block * coeff))
        text = TensorSum(terms).residual()
        if text is None:
            hit = memo[key] = (None, 0)
        else:
            hit = memo[key] = next(
                (text.removesuffix(tail), n)
                for n, tail in enumerate(_string_text(*xz) for xz in strings)
                if text.endswith(tail)
            )
    head, n = hit
    return None if head is None else head + _string_text(*strings[n])


def graded_bracket_terms(u: GradedOperator, v: GradedOperator) -> list[TensorTerm]:
    """The two tensor terms of the graded bracket of u and v."""
    s = bracket_sign(u.degree, v.degree)
    return [
        TensorTerm(u.clifford @ v.clifford, u.block @ v.block),
        TensorTerm(v.clifford @ u.clifford, (v.block @ u.block) * (-s)),
    ]


# ---------------------------------------------------------------------------
# packed records: the block as one more qubit
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


Record = tuple[int, int, int, int]


def _records(ops: Iterable[GradedOperator], m: int) -> list[Record]:
    """Each operator as its packed record (x, z, k, e) on m + 1 qubits.

    A monomial block i**k S**s Q**e multiplies like the one-qubit Pauli
    string i**k Z**s X**(e mod 2) with the powers of Q added: S
    anticommutes with Q as Z with X, and S S = 1, Q Q = H (checked in
    :func:`_canonical_q_s`).  So the block becomes one more qubit, the last,
    with x bit e mod 2 and z bit s, and the operator is i**k X**x Z**z on
    m + 1 qubits, its phase k with the block's folded in, times the ladder
    power e.  A product XORs the words, adds 2 |z_1 & x_2| to the phase and
    adds the powers, as :class:`~graded_sqm.clifford.PauliOperator` does.
    Each distinct block is read once.
    """
    read: dict[int, tuple] = {}  # id(block) -> (block, k, s, e); the block stays alive
    out = []
    for op in ops:
        p, block = op.clifford, op.block
        if p.m != m:
            raise ValueError(f"dimension mismatch: {p.dim} vs {1 << m}")
        got = read.get(id(block))
        if got is None:
            got = read[id(block)] = (block, *_read_block(block))
        _, k, s, e = got
        odd = e & 1
        out.append((p.x << 1 | odd, p.z << 1 | s, (p.k + k + 2 * (s & odd)) & 3, e))
    return out


# ---------------------------------------------------------------------------
# relation reports
# ---------------------------------------------------------------------------


_KINDS = (COMMUTATOR, ANTICOMMUTATOR)  # bracket_kind by the parity of a.b


class PairCheck(NamedTuple):
    left: str
    right: str
    kind: str
    ok: bool
    residual: str | None = None

    def to_dict(self) -> dict:
        return self._asdict()


class RelationReport(NamedTuple):
    model: str
    check: str
    pair_results: tuple[PairCheck, ...] = ()
    centrality_results: tuple[PairCheck, ...] = ()

    @property
    def overall(self) -> bool:
        return all(p.ok for p in self.pair_results) and all(
            p.ok for p in self.centrality_results
        )

    def failures(self) -> list[PairCheck]:
        return [p for p in (*self.pair_results, *self.centrality_results) if not p.ok]

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "check": self.check,
            "overall": self.overall,
            "pair_results": [p.to_dict() for p in self.pair_results],
            "centrality_results": [p.to_dict() for p in self.centrality_results],
        }

    def to_markdown(self) -> str:
        rows = [*self.pair_results, *self.centrality_results]
        lines = [
            f"## {self.check} — {self.model}",
            "",
            f"overall: **{'PASS' if self.overall else 'FAIL'}** "
            f"({sum(p.ok for p in rows)}/{len(rows)} checks)",
            "",
        ]
        bad = self.failures()
        if bad:
            lines += ["| left | right | bracket | residual |", "|---|---|---|---|"]
            lines += [f"| {p.left} | {p.right} | {p.kind} | {p.residual} |" for p in bad]
        return "\n".join(lines)


def check_defining_relations(model: Model) -> RelationReport:
    """Exact check of the graded bracket of every ordered supercharge pair.

    The bracket of a supercharge with itself must be exactly twice the
    Hamiltonian (the same-degree central element is zero by convention);
    distinct pairs must close on the stored central element with the
    degree-dependent phase.  Both orientations of each pair are checked,
    which exercises the antisymmetry convention of the derived accessor.

    In packed records (see :func:`_records`) Q_a Q_b and Q_b Q_a share their
    word and power and differ by the sign (-1)**w, w the commutation parity
    of the two words.  The bracket Q_a Q_b - s Q_b Q_a is therefore zero
    when s == (-1)**w and 2 Q_a Q_b otherwise, and the pair holds exactly
    when it is 2 Q_a Q_b and the target term -coeff T has the record of
    2 Q_a Q_b.  A failing pair gets the residual text of its tensor sum
    (:func:`_residual`), keyed on the blocks, the phases of the two product
    strings and of the target's string, whether the target's string is the
    pair's, and the integers that coeff is built from.
    """
    degrees = model.odd_degrees
    m = model.hamiltonian.clifford.m
    charges = [model.supercharge(a) for a in degrees]
    h, *q = _records([model.hamiltonian, *charges], m)
    position = {a.mask: i for i, a in enumerate(degrees)}
    stored = {
        (position[a.mask], position[b.mask]): (z, rec)
        for ((a, b), z), rec in zip(model.centrals.items(), _records(model.centrals.values(), m))
    }
    labels = [f"Q[{a}]" for a in degrees]
    # the model holds every block for the call, so no id is reused
    memo: dict[tuple, tuple[str | None, int]] = {}
    results = []
    for i, a in enumerate(degrees):
        xa, za, ka, ea = q[i]
        for j, b in enumerate(degrees):
            xb, zb, kb, eb = q[j]
            d = (a.mask & b.mask).bit_count() & 1
            if i == j:
                (target, t), sign, e = (model.hamiltonian, h), 1, 0
            else:
                # a reversed pair reads the stored element with the sign of
                # Model.stored_central, which rides on coeff
                if (i, j) in stored:
                    (target, t), sign = stored[i, j], 1
                else:
                    (target, t), sign = stored[j, i], -1 if d == 0 else 1
                e = 1 - d
            c = e + 1 - sign  # coeff == -2 * sign * i**e == -2 * i**c
            w = ((xa & zb).bit_count() + (za & xb).bit_count()) & 1
            ok = (
                d != w
                and t[0] == xa ^ xb
                and t[1] == za ^ zb
                and t[3] == ea + eb
                and (ka + kb + 2 * (za & xb).bit_count() - c - t[2]) % 4 == 0
            )
            res = None
            if not ok:
                u, v = charges[i], charges[j]
                pu, pv, pt = u.clifford, v.clifford, target.clifford
                pair = (pu.x ^ pv.x, pu.z ^ pv.z)
                same = pair == (pt.x, pt.z)
                key = (
                    id(u.block), id(v.block), d,
                    (pu.k + pv.k + 2 * (pu.z & pv.x).bit_count()) & 3,
                    (pu.k + pv.k + 2 * (pv.z & pu.x).bit_count()) & 3,
                    id(target.block), pt.k, same, sign, e,
                )
                strings = (pair,) if same else (pair, (pt.x, pt.z))
                res = _residual(memo, key, strings, u, v, target, -2 * sign * PHASES[e])
            results.append(PairCheck(labels[i], labels[j], _KINDS[d], ok, res))
    return RelationReport(model.spec.selector, "defining-relations", pair_results=tuple(results))


def _nonzero_brackets(ops: Sequence[GradedOperator], rows: Iterable[int]) -> Iterator[int]:
    """For each row i, the bit mask of the columns j whose graded bracket of
    ``ops[i]`` with ``ops[j]`` is not zero.

    In packed records (see :func:`_records`) u v and v u share their word
    and power and differ by the sign (-1)**w, w the commutation parity of
    the words, block qubit included.  So the bracket u v - sigma v u, with
    sigma = (-1)**(a.b) and a.b the degree inner product, is nonzero
    exactly when the parity a.b + w is 1.

    That parity of row i against every column at once is an XOR of bit
    planes: bit j of plane b is bit b of column j's word (x, z, degree),
    and row i picks the planes set in its word (z, x, degree).  Rows that
    pick the same planes share their mask.
    """
    w = ops[0].clifford.m + 1
    records = _records(ops, w - 1)
    words = [x | z << w | op.degree.mask << 2 * w for (x, z, _, _), op in zip(records, ops)]
    width = max(words).bit_length()
    # zip yields the most significant bit first; reversed() puts column 0 last
    columns = zip(*(format(v, f"0{width}b") for v in reversed(words)))
    planes = [int("".join(c), 2) for c in columns][::-1]

    masks: dict[int, int] = {}
    for i in rows:
        x, z, _, _ = records[i]
        pick = z | x << w | ops[i].degree.mask << 2 * w
        parity = masks.get(pick)
        if parity is None:
            parity, bits = 0, pick
            while bits:
                low = bits & -bits
                parity ^= planes[low.bit_length() - 1]
                bits ^= low
            masks[pick] = parity
        yield parity


def check_centrality(model: Model) -> RelationReport:
    """Exact vanishing of every bracket involving the Hamiltonian or a
    central element.

    The left operators are H, then every Z, in ``model.operators()`` order;
    the partners of a left operator are every supercharge and every operator
    after it.  The pair set is therefore H x (Q and Z), Z x Q and Z_i x Z_j
    for i < j, each decided by :func:`_nonzero_brackets` in one sweep over
    the left operators.  A left operator whose partners all vanish gets one
    aggregate row; otherwise it gets one row per failing pair, with the
    residual of that pair's tensor sum (:func:`_residual`), keyed on the
    blocks, the bracket sign and the phases of the two product strings.
    """
    ops = model.operators()  # H, then the supercharges, then the centrals
    nq = len(model.supercharges)
    supercharges = ((1 << nq) - 1) << 1
    left = [0, *range(1 + nq, len(ops))]
    labels = [op.label() for op in ops]
    # the model holds every block for the call, so no id is reused
    memo: dict[tuple, tuple[str | None, int]] = {}
    results: list[PairCheck] = []
    for i, nonzero in zip(left, _nonzero_brackets(ops, left)):
        # bit_length finds a later column in O(1), where a shift copies the mask
        if not (nonzero & supercharges or nonzero.bit_length() > i + 1):
            right = f"{nq} supercharges and {len(ops) - 1 - max(i, nq)} later central elements"
            results.append(PairCheck(labels[i], right, "graded", True))
            continue
        u = ops[i]
        pu = u.clifford
        bad = nonzero & (supercharges | (1 << len(ops)) - (2 << i))
        while bad:
            low = bad & -bad
            bad ^= low
            j = low.bit_length() - 1
            v = ops[j]
            pv = v.clifford
            d = (u.degree.mask & v.degree.mask).bit_count() & 1
            key = (
                id(u.block), id(v.block), d,
                (pu.k + pv.k + 2 * (pu.z & pv.x).bit_count()) & 3,
                (pu.k + pv.k + 2 * (pv.z & pu.x).bit_count()) & 3,
            )
            res = _residual(memo, key, ((pu.x ^ pv.x, pu.z ^ pv.z),), u, v)
            results.append(PairCheck(labels[i], labels[j], _KINDS[d], False, res))
    return RelationReport(
        model.spec.selector, "centrality", centrality_results=tuple(results)
    )


# ---------------------------------------------------------------------------
# exact rank of central subspaces
# ---------------------------------------------------------------------------


class DegreeRankEntry(NamedTuple):
    degree: str
    elements: tuple[str, ...]
    rank: int
    classes: tuple[tuple[str, ...], ...]

    def to_dict(self) -> dict:
        return self._asdict()


class RankReport(NamedTuple):
    model: str
    entries: tuple[DegreeRankEntry, ...]
    total_count: int
    total_rank: int | None
    all_independent: bool | None

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "entries": [e.to_dict() for e in self.entries],
            "total_count": self.total_count,
            "total_rank": self.total_rank,
            "all_independent": self.all_independent,
        }

    def to_markdown(self) -> str:
        lines = [
            f"## central-rank — {self.model}",
            "",
            "| degree | elements | rank | proportionality classes |",
            "|---|---|---|---|",
        ]
        for e in self.entries:
            classes = "; ".join("{" + ", ".join(c) + "}" for c in e.classes)
            lines.append(
                f"| {e.degree} | {len(e.elements)} | {e.rank} | {classes} |"
            )
        if self.total_rank is not None:
            lines += [
                "",
                f"total: rank {self.total_rank} of {self.total_count} central elements"
                f" ({'all independent' if self.all_independent else 'dependencies present'})",
            ]
        return "\n".join(lines)


def central_rank(model: Model) -> RankReport:
    """Group central elements by degree and rank each span exactly.

    Each element is a phase times its packed word (see :func:`_records`):
    distinct words, or equal words with distinct ladder powers, are linearly
    independent, and the rest are proportional.  So the rank of a group is
    the number of distinct (word, power) keys, and the proportionality
    classes are the elements sharing a key, in order of first appearance.
    The model-wide rank is reported when every central element has the same
    block bits, as in every family but minimal.  minimal's report keeps the
    null it has always had there: filling it changes the report schema.
    """
    zs = list(model.centrals.values())
    groups: dict[DegreeVector, tuple[list[str], dict[tuple[int, int, int], list[str]]]] = {}
    keys = []
    for z, (x, zbits, _, e) in zip(zs, _records(zs, model.hamiltonian.clifford.m)):
        key = (x, zbits, e)
        keys.append(key)
        label = z.label()
        elements, classes = groups.setdefault(z.degree, ([], {}))
        elements.append(label)
        classes.setdefault(key, []).append(label)
    entries = tuple(
        DegreeRankEntry(str(degree), tuple(elements), len(classes), tuple(map(tuple, classes.values())))
        for degree, (elements, classes) in groups.items()
    )

    total_rank = None
    all_independent = None
    if len({(zbits & 1, e) for _, zbits, e in keys}) == 1:
        total_rank = len(set(keys))
        all_independent = total_rank == len(zs)
    return RankReport(model.spec.selector, entries, len(zs), total_rank, all_independent)


# ---------------------------------------------------------------------------
# orbits and operator closure
# ---------------------------------------------------------------------------


class OrbitReport(NamedTuple):
    model: str
    num_nodes: int
    component_sizes: tuple[int, ...]

    @property
    def num_components(self) -> int:
        return len(self.component_sizes)

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "num_nodes": self.num_nodes,
            "num_components": self.num_components,
            "component_sizes": list(self.component_sizes),
        }

    def to_markdown(self) -> str:
        sizes = ", ".join(str(s) for s in self.component_sizes)
        return (
            f"## orbits — {self.model}\n\n"
            f"{self.num_components} component(s) over {self.num_nodes} tensor-basis lines: sizes [{sizes}]"
        )


def _gf2_rank(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of bit vectors packed into integers."""
    basis: list[int] = []
    for v in vectors:
        # each basis vector clears its own highest bit from v
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def orbit_decomposition(model: Model) -> OrbitReport:
    """Connected components of the tensor-basis lines under the supercharges.

    A supercharge whose packed record has the x word x (see
    :func:`_records`; its last bit is the block's e mod 2, 1 for an
    antidiagonal block) maps basis line (c, i) to a multiple of line
    (c, i) ^ x.  The component of a line is therefore its coset under the
    GF(2) span of the x words: with r the rank of that span there are
    2**(m+1-r) components, each of size 2**r.
    """
    m = model.hamiltonian.clifford.m
    r = _gf2_rank(x for x, _, _, _ in _records(model.supercharges.values(), m))
    sizes = (1 << r,) * (1 << (m + 1 - r))
    return OrbitReport(model.spec.selector, 2 * model.clifford_dim, sizes)


def count_generated_operators(model: Model) -> int:
    """Size of the supercharge-generated operator set, counted up to scalars.

    Elements are classes (Clifford factor up to phase, block pattern in the
    four-element quotient of the block group: antidiagonal or not, and the
    relative sign of the two nonzero entries).  The pattern of
    i**k S**s Q**e is (e mod 2, s), the block qubit of the packed record
    (see :func:`_records`).  A product XORs the record's (x, z) words, and
    every class is its own inverse, so the set is the GF(2) span of the
    supercharges' words and has 2**rank elements.
    """
    m = model.hamiltonian.clifford.m
    records = _records(model.supercharges.values(), m)
    return 1 << _gf2_rank(x << m + 1 | z for x, z, _, _ in records)
