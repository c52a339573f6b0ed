"""Exact verification engine for built models.

Every Clifford factor is a Pauli string (see :mod:`graded_sqm.clifford`)
and every ladder block a free word matrix, so all algebraic checks are
exact: a passing check has zero residual by construction, not small
residual.  Distinct Pauli strings are linearly independent, which turns
zero tests, ranks, orbits and operator closures into closed forms over
GF(2), the two-element field (Dehaene & De Moor, quant-ph/0304125).
The centrality sweep holds one bit per operator in Python integers ("bit
planes"), so the exact checks need no numpy.  Fock spectra are exact too:
the partner Hamiltonians' levels are integers in closed form.  numpy is
imported only for grid spectra, where floating point is genuinely numeric.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from .clifford import PHASES, PauliOperator
from .grading import DegreeVector, bracket_kind, bracket_sign, dot
from .models import GradedOperator, Model
# realize stays importable here: the benchmark's tracer wraps this name
from .sqm_block import SqmBlock, canonical_blocks, ground_state_pair, realize  # noqa: F401

if TYPE_CHECKING:
    import numpy as np

    from .realizations import NumericRealization

# Fock levels 0..cutoff that a spectrum reports: cutoff 65535, about 1 s with its report
MAX_FOCK_LEVELS = 1 << 16

FOCK_CLUSTER_TOL = 1e-9
GRID_CLUSTER_TOL = 1e-6


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


# ---------------------------------------------------------------------------
# relation reports
# ---------------------------------------------------------------------------


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

    The residual Q_a Q_b - s Q_b Q_a - coeff T has Pauli strings P_a P_b and
    P_b P_a, which differ only in phase, and the target's string P_T.  Its
    zero test therefore depends only on the blocks, s, coeff, the three
    phase exponents and whether P_T has the (x, z) of P_a P_b; each such
    class is decided by one tensor sum, and a failing pair still gets the
    residual text of its own.
    """
    degrees = model.odd_degrees
    verdicts: dict[tuple, bool] = {}
    results = []
    for a in degrees:
        qa = model.supercharge(a)
        for b in degrees:
            qb = model.supercharge(b)
            if a == b:
                target, coeff = model.hamiltonian, -2
            else:
                # the orientation sign of a reversed pair rides on coeff
                target, sign = model.stored_central(a, b)
                coeff = -2 * sign * PHASES[(1 - dot(a, b)) % 4]
            ab, ba, t = qa.clifford @ qb.clifford, qb.clifford @ qa.clifford, target.clifford
            key = (
                qa.block, qb.block, bracket_sign(a, b), target.block, coeff,
                ab.k, ba.k, t.k, (t.x, t.z) == (ab.x, ab.z),
            )
            res = None
            if not verdicts.get(key, False):
                terms = graded_bracket_terms(qa, qb)
                terms.append(TensorTerm(t, target.block * coeff))
                res = TensorSum(terms).residual()
                verdicts[key] = res is None
            results.append(PairCheck(f"Q[{a}]", f"Q[{b}]", bracket_kind(a, b), res is None, res))
    return RelationReport(model.spec.selector, "defining-relations", pair_results=tuple(results))


def _vanishing(ops: Sequence[GradedOperator], rows: Iterable[int]) -> Iterator[int]:
    """For each row i, the bit mask of the columns j whose graded bracket of
    ``ops[i]`` with ``ops[j]`` vanishes.

    Write u = P_u x c_u F_f and v = P_v x c_v F_g, with P a Pauli string, c
    a nonzero scalar and F the representative of the block's form, a
    proportionality class of blocks.  Then P_v P_u = (-1)**w P_u P_v, w the
    commutation parity of the strings, and the bracket is
    P_u P_v x c_u c_v (F_f F_g - sigma F_g F_f) with
    sigma = (-1)**(a.b + w), a.b the degree inner product.  It vanishes
    exactly when F_f F_g == sigma F_g F_f, a lookup in the form table.

    The parity a.b + w of row i against every column at once is an XOR of
    bit planes: bit j of plane b is bit b of column j's word (x, z,
    degree), and row i picks the planes set in its word (z, x, degree).
    The columns of form g vanish where that parity matches an entry of the
    table row of form f.
    """
    m = ops[0].clifford.m
    words = [op.clifford.x | op.clifford.z << m | op.degree.mask << 2 * m for op in ops]
    width = max(words).bit_length()
    # zip yields the most significant bit first; reversed() puts column 0 last
    columns = zip(*(format(w, f"0{width}b") for w in reversed(words)))
    planes = [int("".join(c), 2) for c in columns][::-1]

    forms: list[SqmBlock] = []  # one representative block per form
    form_mask: list[int] = []  # the columns of each form
    form_index: list[int] = []
    for j, op in enumerate(ops):
        for f, block in enumerate(forms):
            if op.block.proportional(block) is not None:
                break
        else:
            f = len(forms)
            forms.append(op.block)
            form_mask.append(0)
        form_mask[f] |= 1 << j
        form_index.append(f)
    # columns of each form g with F_f F_g == F_g F_f (even) or == -F_g F_f (odd)
    even, odd = [0] * len(forms), [0] * len(forms)
    for f, bf in enumerate(forms):
        for g, bg in enumerate(forms):
            fg, gf = bf @ bg, bg @ bf
            if fg == gf:
                even[f] |= form_mask[g]
            if fg == -gf:
                odd[f] |= form_mask[g]

    for i in rows:
        p = ops[i].clifford
        pick = p.z | p.x << m | ops[i].degree.mask << 2 * m
        parity = 0
        while pick:
            low = pick & -pick
            parity ^= planes[low.bit_length() - 1]
            pick ^= low
        f = form_index[i]
        yield odd[f] & parity | even[f] & ~parity


def check_centrality(model: Model) -> RelationReport:
    """Exact vanishing of every bracket involving the Hamiltonian or a
    central element.

    The left operators are H, then every Z, in ``model.operators()`` order;
    the partners of a left operator are every supercharge and every operator
    after it.  The pair set is therefore H x (Q and Z), Z x Q and Z_i x Z_j
    for i < j, each decided by :func:`_vanishing` in one sweep over the
    left operators.  A left operator whose partners all vanish gets one
    aggregate row; otherwise it gets one row per failing pair, with the
    residual of that pair's tensor sum.
    """
    ops = model.operators()  # H, then the supercharges, then the centrals
    nq = len(model.supercharges)
    supercharges = ((1 << nq) - 1) << 1
    left = [0, *range(1 + nq, len(ops))]
    results: list[PairCheck] = []
    for i, vanishing in zip(left, _vanishing(ops, left)):
        u = ops[i]
        later = (1 << len(ops)) - (2 << i)
        bad = (supercharges | later) & ~vanishing
        if not bad:
            right = f"{nq} supercharges and {len(ops) - 1 - max(i, nq)} later central elements"
            results.append(PairCheck(u.label(), right, "graded", True))
        while bad:
            low = bad & -bad
            bad ^= low
            v = ops[low.bit_length() - 1]
            res = TensorSum(graded_bracket_terms(u, v)).residual()
            kind = bracket_kind(u.degree, v.degree)
            results.append(PairCheck(u.label(), v.label(), kind, False, res))
    return RelationReport(
        model.spec.selector, "centrality", centrality_results=tuple(results)
    )


# ---------------------------------------------------------------------------
# exact rank of central subspaces
# ---------------------------------------------------------------------------


def pauli_rank(paulis: Iterable[PauliOperator]) -> int:
    """Exact rank of the span of a set of Pauli strings.

    Distinct strings are linearly independent and equal strings are
    proportional, so the rank is the number of distinct (x, z).
    """
    return len({(p.x, p.z) for p in paulis})


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


def _share_form(ops: Sequence[GradedOperator]) -> bool:
    """True if every block is a nonzero multiple of the first one."""
    return all(op.block.proportional(ops[0].block) is not None for op in ops)


def central_rank(model: Model) -> RankReport:
    """Group central elements by degree and rank each span exactly.

    Within a degree group all ladder blocks share one form, so each element
    is a nonzero multiple of its Pauli string times that form: the rank is
    the number of distinct strings, and the proportionality classes are the
    elements sharing a string, in order of first appearance.  A model-wide
    rank is also computed when every block shares the same form (all
    product families).
    """
    groups: dict[DegreeVector, list[GradedOperator]] = {}
    for z in model.centrals.values():
        groups.setdefault(z.degree, []).append(z)

    entries = []
    for degree, zs in groups.items():
        if not _share_form(zs):
            raise NotImplementedError(
                f"central elements of degree {degree} have non-proportional blocks"
            )
        classes: dict[tuple[int, int], list[str]] = {}
        for z in zs:
            classes.setdefault((z.clifford.x, z.clifford.z), []).append(z.label())
        entries.append(
            DegreeRankEntry(
                str(degree),
                tuple(z.label() for z in zs),
                pauli_rank(z.clifford for z in zs),
                tuple(tuple(c) for c in classes.values()),
            )
        )

    all_z = list(model.centrals.values())
    total_rank = None
    all_independent = None
    if all_z and _share_form(all_z):
        total_rank = pauli_rank(z.clifford for z in all_z)
        all_independent = total_rank == len(all_z)
    return RankReport(
        model.spec.selector, tuple(entries), len(all_z), total_rank, all_independent
    )


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

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        d = self._asdict()
        for key in ("clusters", "excluded"):
            d[key] = tuple(c._asdict() for c in d[key])
        d["ok"] = self.ok
        return d

    def to_markdown(self) -> str:
        lines = [
            f"## spectrum — {self.model} on {self.realization}",
            "",
            f"zero modes: {self.zero_modes}"
            + (f" (+{self.artifact_modes} discretization artifacts excluded)" if self.artifact_modes else ""),
            f"expected: zero multiplicity {self.expected_zero}, excited multiplicity {self.expected_excited}",
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
    on the formal operator, and any other Hamiltonian is refused before a
    matrix is built.  The realization then gives both partners' levels and
    both ladder kernels from the ladder pair alone: on Fock in closed form
    (``FockRealization.partner_levels`` and ``kernel_levels``), so the
    clusters are exact counts with no numpy; on the grid from one SVD of
    the lowering matrix L, since Ad A = L^T L and A Ad = L L^T share the
    levels s^2.  A Fock realization of more than ``MAX_FOCK_LEVELS``
    levels is refused before any level is read; a grid is checked where it
    is built (``realizations.check_grid``).

    The expected pattern for every family is the one its ground-state and
    degeneracy statements specialize to on these realizations: the zero
    cluster is absent or clifford-dim fold, every reported excited cluster
    is (2 x clifford dim) fold.  Fock clusters must sit on integers; levels
    at or above the cutoff are truncation-affected and excluded.
    """
    cliffdim = model.clifford_dim
    side = 2 * realization.dim
    if model.hamiltonian.clifford.scalar_of_identity() != 1:
        raise ValueError(
            f"{model.spec.selector}: the Hamiltonian's Clifford factor is not the identity"
        )
    if model.hamiltonian.block != canonical_blocks()[1]:
        raise ValueError(f"{model.spec.selector}: the Hamiltonian block is not diag(Ad A, A Ad)")
    from .realizations import FockRealization

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
        kernel_a, kernel_ad = ground_state_pair(realization)
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
    )


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

    A supercharge with Pauli factor i**k X**x Z**z and an antidiagonal block
    maps basis line (c, i) to a multiple of line (c ^ x, 1 - i).  The
    component of a line is therefore its coset under the GF(2) span of the
    vectors (x_q, 1): with r the rank of that span there are 2**(m+1-r)
    components, each of size 2**r.
    """
    for q in model.supercharges.values():
        if not q.block.is_antidiagonal():
            raise ValueError(f"{q.label()} has a non-antidiagonal block")
    m = model.hamiltonian.clifford.m
    r = _gf2_rank(q.clifford.x << 1 | 1 for q in model.supercharges.values())
    sizes = (1 << r,) * (1 << (m + 1 - r))
    return OrbitReport(model.spec.selector, 2 * model.clifford_dim, sizes)


def _block_pattern(block: SqmBlock) -> tuple[int, int]:
    """Quotient-group class of a single-word 2x2 block, modulo phase.

    First bit: antidiagonal.  Second bit: relative sign of the two nonzero
    entries.  Multiplication of such blocks XORs the bits, which is all the
    closure count needs once overall phases are dropped.
    """
    e = block.entries
    if block.is_antidiagonal():
        anti, pair = 1, (e[0][1], e[1][0])
    elif block.is_diagonal():
        anti, pair = 0, (e[0][0], e[1][1])
    else:
        raise ValueError(f"block is neither diagonal nor antidiagonal: {block!r}")
    coeffs = []
    for ws in pair:
        terms = list(ws.items())
        if len(terms) != 1:
            raise ValueError(f"block entry {ws!r} is not a single word")
        coeffs.append(terms[0][1])
    ratio = coeffs[0] / coeffs[1]
    if ratio == 1:
        return (anti, 0)
    if ratio == -1:
        return (anti, 1)
    raise ValueError(f"block entries have non-real ratio {ratio!r}")


def count_generated_operators(model: Model) -> int:
    """Size of the supercharge-generated operator set, counted up to scalars.

    Elements are classes (Clifford factor up to phase, block pattern in the
    four-element quotient of the block group).  A product XORs both the
    string bits (x, z) and the pattern bits, and every class is its own
    inverse, so the set is the GF(2) span of the supercharges' vectors
    (x, z, anti, sign) and has 2**rank elements.
    """
    m = model.hamiltonian.clifford.m
    vectors = []
    for q in model.supercharges.values():
        anti, sign = _block_pattern(q.block)
        vectors.append((q.clifford.x << m | q.clifford.z) << 2 | anti << 1 | sign)
    return 1 << _gf2_rank(vectors)
