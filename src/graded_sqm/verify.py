"""Exact verification engine for built models.

A model is packed tables (see :class:`~graded_sqm.models.Model`): one record
(x, z, k, e) per operator, the Pauli string of its Clifford factor with the
ladder block as one more qubit, times the ladder power e.  The checks read
these tables and nothing else, so all of them are exact: a passing check
has zero residual by construction, not small residual.  Distinct Pauli
strings are linearly independent, which turns zero tests, ranks, orbits and
operator closures into closed forms over GF(2), the two-element field
(Dehaene & De Moor, quant-ph/0304125).  A graded bracket of two such
operators is exactly 0 or 2 u v, so a failing pair's residual is read off
the same records, as Gaussian-integer multiples of S**s Q**e on a Pauli
string (:func:`_residual`).  The bracket sweep holds one bit per operator
in Python integers ("bit planes"), so the exact checks need no numpy, and
they load no operator object, block algebra or ``dataclasses``.  This
module holds the exact engine only: spectra of a numeric realization are
:func:`graded_sqm.realizations.spectrum`, which never loads this module.
"""

from __future__ import annotations

from collections import Counter
from importlib import import_module
from typing import Iterable, NamedTuple, Sequence

from .grading import ANTICOMMUTATOR, COMMUTATOR, degree_text
from .models import Model, Record, central, product, split

# names that resolve here lazily (PEP 562), from the module that defines
# them: the block realization that the benchmark's tracer wraps
_LAZY = {"realize": "sqm_block", "ground_state_pair": "sqm_block"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __package__), name)


# ---------------------------------------------------------------------------
# residuals of failing pairs
# ---------------------------------------------------------------------------


_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i**k as (real part, imaginary part)


def _gaussian(re: int, im: int) -> str:
    """A Gaussian integer as exact ASCII text: 2, -4, 2i, (-2+2i)."""
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"({re}{im:+d}i)"


def _residual(terms: Iterable[tuple[Record, int]]) -> str | None:
    """The text of the sum of 2 i**c R over the (R, c) terms, None if it is zero.

    A record splits back (:func:`~graded_sqm.models.split`) into the tensor
    term i**k P(x, z) x S**s Q**e.  Distinct Pauli strings are linearly
    independent, and so are the monomials S**s Q**e of distinct
    (s, e), so the sum is zero exactly when the coefficients of each
    monomial on each string add up to zero.  The text names the first
    string, in the order of the terms, whose monomials do not all cancel.
    """
    strings: dict[tuple[int, int], dict[tuple[int, int], tuple[int, int]]] = {}
    for record, c in terms:
        x, z, k, s, e = split(record)
        re, im = _UNITS[(k + c) & 3]
        monomials = strings.setdefault((x, z), {})
        r0, i0 = monomials.get((s, e), (0, 0))
        monomials[s, e] = (r0 + 2 * re, i0 + 2 * im)
    for (x, z), monomials in strings.items():
        text = " + ".join(
            f"{_gaussian(*c)}*S^{s}*Q^{e}" for (s, e), c in monomials.items() if c != (0, 0)
        )
        if text:
            return f"nonzero residual {text} on clifford string x={x} z={z}"
    return None


# ---------------------------------------------------------------------------
# relation reports
# ---------------------------------------------------------------------------


_KINDS = (COMMUTATOR, ANTICOMMUTATOR)  # bracket_kind by the parity of a.b
# makes a report row from a full tuple of its fields, without the Python-level
# __new__ of the named tuple: a check makes one row per pair, 262,144 at next:n=10
_new = tuple.__new__


class PairCheck(NamedTuple):
    left: str
    right: str
    kind: str
    ok: bool
    residual: str | None = None


def _groups(bad: Sequence[PairCheck]) -> list[dict]:
    """The failing rows of a section as groups, each named for an operator
    that its rows share, in the order the groups are first met.

    A row joins the group of whichever of its two operators takes part in
    more of the rows.  On a tie it joins the earlier of the groups the two
    head, or the left operator's when neither heads one yet, so (a, b) and
    (b, a) join one group.  A group writes its operator, its count and its
    first three rows in full.  A group of more than three rows also writes
    its partners in check order, split into those it is left of and those it
    is right of; in a smaller one the rows in full name every partner.
    """
    part: Counter[str] = Counter()
    for p in bad:
        part.update({p.left, p.right})
    groups: dict[str, list[PairCheck]] = {}
    heads: dict[str, int] = {}  # the operator that heads a group -> its place
    for p in bad:
        head = min((p.left, p.right), key=lambda op: (-part[op], heads.get(op, len(bad))))
        heads.setdefault(head, len(heads))
        groups.setdefault(head, []).append(p)
    out = []
    for op, rows in groups.items():
        group = {"operator": op, "count": len(rows), "first": [p._asdict() for p in rows[:3]]}
        if len(rows) > 3:
            group["left_of"] = [p.right for p in rows if p.left == op]
            group["right_of"] = [p.left for p in rows if p.left != op]
        out.append(group)
    return out


class RelationReport(NamedTuple):
    """The rows of one exact check of a model with ``supercharges`` = N.

    ``pair_results`` holds every ordered supercharge pair of the defining
    relations, ``centrality_results`` only the failing brackets of the
    centrality check: a passing model has none.  The counts a report writes
    come from N and the failing rows, and the JSON leaves N out.
    """

    model: str
    check: str
    supercharges: int
    pair_results: tuple[PairCheck, ...] = ()
    centrality_results: tuple[PairCheck, ...] = ()

    @property
    def overall(self) -> bool:
        return all(p.ok for p in self.pair_results) and all(
            p.ok for p in self.centrality_results
        )

    def failures(self) -> list[PairCheck]:
        return [p for p in (*self.pair_results, *self.centrality_results) if not p.ok]

    def written_rows(self) -> tuple[list[PairCheck], list[PairCheck]]:
        """The rows a CSV report writes for ``pair_results`` and for
        ``centrality_results``: in the section of its check, one passing row
        that counts the left operators whose brackets all hold, then every
        failing row in check order; none in the other section.  The JSON
        groups the failing rows (:meth:`to_dict`)."""
        bad = self.failures()
        failed, n = {p.left for p in bad}, self.supercharges
        if self.check != "centrality":
            row = (f"{n - len(failed)} of {n} supercharges", f"{n} supercharges")
            return [_new(PairCheck, (*row, "graded", True, None)), *bad], []
        nz, h = n * (n - 1) // 2, "H" not in failed
        left = f"{'H and ' if h else ''}{nz - len(failed - {'H'})} of {nz} central elements"
        row = (left, f"{n} supercharges and every later central element")
        return [], [_new(PairCheck, (*row, "graded", True, None)), *bad]

    def brackets(self) -> int:
        """The number of brackets the report decided: N**2 defining relations,
        and N + N_Z + N_Z N + N_Z (N_Z - 1) / 2 centrality brackets, H and
        every Z against every supercharge and every later Z, for the
        N_Z = N (N - 1) / 2 central elements a model stores, one per pair."""
        n = self.supercharges
        nz = n * (n - 1) // 2
        return (1 + nz) * n + nz + nz * (nz - 1) // 2 if self.check == "centrality" else n * n

    def to_dict(self) -> dict:
        """The report with, in the section of its check, the passing count
        row of :meth:`written_rows`, then the failing rows grouped by the
        operator they share (:func:`_groups`)."""
        pairs, centrality = (
            [rows[0]._asdict(), *_groups(rows[1:])] if rows else [] for rows in self.written_rows()
        )
        return {
            "model": self.model, "check": self.check, "overall": self.overall,
            "pair_results": pairs, "centrality_results": centrality,
        }

    def to_markdown(self) -> str:
        bad = self.failures()
        total = self.brackets()
        lines = [
            f"## {self.check} — {self.model}",
            "",
            f"overall: **{'PASS' if self.overall else 'FAIL'}** "
            f"({total - len(bad)}/{total} checks)",
            "",
        ]
        if bad:
            lines += ["| left | right | bracket | residual |", "|---|---|---|---|"]
            # a code span, so that the * of a residual's monomials is not emphasis
            lines += [f"| {p.left} | {p.right} | {p.kind} | `{p.residual}` |" for p in bad]
        return "\n".join(lines)


def _nonzero_brackets(
    records: Sequence[Record], masks: Sequence[int], rows: Iterable[int]
) -> list[int]:
    """For each row i, the bit mask of the columns j whose graded bracket of
    operator i with operator j is not zero, from their packed records and
    degree masks.

    In packed records (see :class:`~graded_sqm.models.Model`) u v and v u
    share their word and power and differ by the sign (-1)**w, w the
    commutation parity of the words, block qubit included.  So the bracket
    u v - sigma v u, with sigma = (-1)**(a.b) and a.b the degree inner
    product, is 2 u v when the parity a.b + w is 1 and zero otherwise.

    That parity of row i against every column at once is an XOR of bit
    planes: bit j of plane b is bit b of column j's word (x, z, degree),
    and row i picks the planes set in its word (z, x, degree).  Rows that
    pick the same planes share their mask, which is computed once.
    """
    xs, zs = [r[0] for r in records], [r[1] for r in records]
    w = (max(xs) | max(zs)).bit_length()
    words = [x | z << w | mask << 2 * w for x, z, mask in zip(xs, zs, masks)]
    size = max(1, (max(words).bit_length() + 7) // 8)
    width = 8 * size
    # every word as width binary digits in one string, column 0 last, so that
    # plane b is every width-th digit
    text = format(
        int.from_bytes(b"".join([v.to_bytes(size, "big") for v in reversed(words)]), "big"),
        f"0{width * len(words)}b",
    )
    planes = [int(text[width - 1 - b :: width], 2) for b in range(width)]

    picks = [zs[i] | xs[i] << w | masks[i] << 2 * w for i in rows]
    found: dict[int, int] = {}
    for pick in set(picks):
        parity, bits = 0, pick
        while bits:
            low = bits & -bits
            parity ^= planes[low.bit_length() - 1]
            bits ^= low
        found[pick] = parity
    return [found[pick] for pick in picks]


def _labels(model: Model, centrals: bool) -> list[str]:
    """The report labels of the supercharges, then those of the stored
    central elements if asked for."""
    texts = [degree_text(model.spec.n, mask) for mask in model.masks]
    labels = [f"Q[{t}]" for t in texts]
    if centrals:
        labels += [f"Z[{texts[i]},{texts[j]}]" for i, j in model.pairs]
    return labels


def check_defining_relations(model: Model) -> RelationReport:
    """Exact check of the graded bracket of every ordered supercharge pair.

    The bracket of a supercharge with itself must be exactly twice the
    Hamiltonian (the same-degree central element is zero by convention);
    distinct pairs must close on their central element with the
    degree-dependent phase.  Both orientations of each pair are checked:
    the model stores Z_ab for a before b, and Z_ba is that record with the
    sign of :meth:`Model.central`.

    The bracket of Q_a and Q_b is 2 Q_a Q_b or zero, as
    :func:`_nonzero_brackets` decides, and the target term is 2 i**c T.  The
    pair holds exactly when the bracket is 2 Q_a Q_b and the record of
    Q_a Q_b is that of -i**c T.  For a distinct pair that second condition
    says that the stored Z_ab is the record of (-i)**(1 - a.b) Q_a Q_b
    (:func:`~graded_sqm.models.central`) in either orientation, because a
    nonzero bracket fixes the sign between Q_a Q_b and Q_b Q_a; so it is
    decided once per stored element, not once per ordered pair.  A failing
    pair's residual is the sum of the bracket and the target term
    (:func:`_residual`).
    """
    q, masks, h = model.q, model.masks, model.h
    # bit j of wrong[i]: the target of pair (i, j) is not its product record
    wrong = [int(product(u, u) != h) << i for i, u in enumerate(q)]
    stored = dict(zip(model.pairs, model.z))  # (i, j), i < j -> the record of Z_ij
    for (i, j), t in stored.items():
        if t != central(q[i], q[j], (masks[i] & masks[j]).bit_count() & 1):
            wrong[i] |= 1 << j
            wrong[j] |= 1 << i
    labels = _labels(model, centrals=False)
    everything = (1 << len(q)) - 1
    results = []
    for i, nonzero in enumerate(_nonzero_brackets(q, masks, range(len(q)))):
        own, left = masks[i], labels[i]
        kinds = [_KINDS[(own & mask).bit_count() & 1] for mask in masks]
        row = [_new(PairCheck, (left, right, kind, True, None)) for right, kind in zip(labels, kinds)]
        bad = everything & ~(nonzero & ~wrong[i])
        while bad:
            low = bad & -bad
            bad ^= low
            j = low.bit_length() - 1
            # the target term is -2 H, -2 i**(1 - d) Z_ij for i < j and
            # -2 sign i**(1 - d) Z_ji, sign = -(-1)**d, for i > j
            d = kinds[j] == ANTICOMMUTATOR
            if i == j:
                t, c = h, 2
            elif i < j:
                t, c = stored[i, j], 3 - d
            else:
                t, c = stored[j, i], 1 + d
            terms = [(product(q[i], q[j]), 0), (t, c)] if nonzero >> j & 1 else [(t, c)]
            row[j] = PairCheck(left, labels[j], kinds[j], False, _residual(terms))
        results += row
    return RelationReport(model.spec.selector, "defining-relations", len(q), pair_results=tuple(results))


def check_centrality(model: Model) -> RelationReport:
    """Exact vanishing of every bracket involving the Hamiltonian or a
    central element.

    The left operators are H, then every Z, in ``model.operators()`` order;
    the partners of a left operator are every supercharge and every operator
    after it.  The pair set is therefore H x (Q and Z), Z x Q and Z_i x Z_j
    for i < j, each decided by :func:`_nonzero_brackets` in one sweep over
    the left operators.  The report holds one row per failing pair, whose
    residual is the bracket 2 u v (:func:`_residual`), and so none when the
    model passes.
    """
    records = [model.h, *model.q, *model.z]  # H, then the supercharges, then the centrals
    masks = [0, *model.masks, *[model.masks[i] ^ model.masks[j] for i, j in model.pairs]]
    nq = len(model.q)
    supercharges = ((1 << nq) - 1) << 1
    left = [0, *range(1 + nq, len(records))]
    labels = ["H", *_labels(model, centrals=True)]
    results: list[PairCheck] = []
    for i, nonzero in zip(left, _nonzero_brackets(records, masks, left)):
        # bit_length finds a later column in O(1), where a shift copies the mask
        if not (nonzero & supercharges or nonzero.bit_length() > i + 1):
            continue
        bad = nonzero & (supercharges | (1 << len(records)) - (2 << i))
        while bad:
            low = bad & -bad
            bad ^= low
            j = low.bit_length() - 1
            d = (masks[i] & masks[j]).bit_count() & 1
            res = _residual([(product(records[i], records[j]), 0)])
            results.append(PairCheck(labels[i], labels[j], _KINDS[d], False, res))
    return RelationReport(model.spec.selector, "centrality", nq, centrality_results=tuple(results))


# ---------------------------------------------------------------------------
# exact rank of central subspaces
# ---------------------------------------------------------------------------


class DegreeRankEntry(NamedTuple):
    degree: str
    count: int
    rank: int
    classes: tuple[tuple[str, ...], ...]


class RankReport(NamedTuple):
    model: str
    entries: tuple[DegreeRankEntry, ...]
    total_count: int
    total_rank: int | None
    all_independent: bool | None

    def to_dict(self) -> dict:
        """The report with every class of an entry but its largest (the first
        of equal largest), the rest of the degree's labels: len(classes) ==
        rank - 1.  An entry of one-label classes (rank == count) writes []."""
        entries = []
        for e in self.entries:
            rest = list(e.classes) if e.rank < e.count else []
            if rest:
                rest.remove(max(rest, key=len))
            entries.append({**e._asdict(), "classes": rest})
        return {**self._asdict(), "entries": entries}

    def to_markdown(self) -> str:
        lines = [
            f"## central-rank — {self.model}",
            "",
            "| degree | elements | rank | proportionality classes |",
            "|---|---|---|---|",
        ]
        for e in self.entries:
            classes = "; ".join("{" + ", ".join(c) + "}" for c in e.classes)
            lines.append(f"| {e.degree} | {e.count} | {e.rank} | {classes} |")
        if self.total_rank is not None:
            lines += [
                "",
                f"total: rank {self.total_rank} of {self.total_count} central elements"
                f" ({'all independent' if self.all_independent else 'dependencies present'})",
            ]
        return "\n".join(lines)


def central_rank(model: Model) -> RankReport:
    """Group central elements by degree and rank each span exactly.

    Each element is a phase times its packed word (see
    :class:`~graded_sqm.models.Model`): distinct words, or equal words with
    distinct ladder powers, are linearly independent, and the rest are
    proportional.  So the rank of a group is the number of distinct
    (word, power) keys, and the proportionality classes are the elements
    sharing a key, in order of first appearance.  The model-wide rank is
    reported when every central element has the same block bits, as in
    every family but minimal.  minimal's report keeps the null it has always
    had there: filling it changes the report schema.
    """
    masks = model.masks
    keys = [(x, zbits, e) for x, zbits, _, e in model.z]
    degrees = [masks[i] ^ masks[j] for i, j in model.pairs]
    # by degree, in order of first appearance: the labels by key
    classes: dict[int, dict[tuple[int, int, int], list[str]]] = {}
    for degree, label, key in zip(degrees, _labels(model, centrals=True)[len(model.q):], keys):
        group = classes.setdefault(degree, {})
        same = group.get(key)
        if same is None:
            group[key] = [label]
        else:
            same.append(label)
    entries = tuple(
        DegreeRankEntry(
            degree_text(model.spec.n, degree), sum(map(len, group.values())), len(group),
            tuple(map(tuple, group.values())),
        )
        for degree, group in classes.items()
    )

    total_rank = None
    all_independent = None
    if len({split(r)[3:] for r in model.z}) == 1:
        total_rank = len(set(keys))
        all_independent = total_rank == len(keys)
    return RankReport(model.spec.selector, entries, len(keys), total_rank, all_independent)


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
        return {**self._asdict(), "num_components": self.num_components}

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
    :class:`~graded_sqm.models.Model`; its last bit is the block's e mod 2,
    1 for an antidiagonal block) maps basis line (c, i) to a multiple of line
    (c, i) ^ x.  The component of a line is therefore its coset under the
    GF(2) span of the x words: with r the rank of that span there are
    2**(m+1-r) components, each of size 2**r.
    """
    r = _gf2_rank(x for x, _, _, _ in model.q)
    sizes = (1 << r,) * (1 << (model.m + 1 - r))
    return OrbitReport(model.spec.selector, 2 * model.clifford_dim, sizes)


def count_generated_operators(model: Model) -> int:
    """Size of the supercharge-generated operator set, counted up to scalars.

    Elements are classes (Clifford factor up to phase, block pattern in the
    four-element quotient of the block group: antidiagonal or not, and the
    relative sign of the two nonzero entries).  The pattern of
    i**k S**s Q**e is (e mod 2, s), the block qubit of the packed record
    (see :class:`~graded_sqm.models.Model`).  A product XORs the record's (x, z) words, and
    every class is its own inverse, so the set is the GF(2) span of the
    supercharges' words and has 2**rank elements.
    """
    return 1 << _gf2_rank(x << model.m + 1 | z for x, z, _, _ in model.q)
