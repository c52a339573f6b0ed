import csv
import importlib.util
import itertools
import json
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from graded_sqm import operators
from graded_sqm.cli import main
from graded_sqm.clifford import PHASES, PauliOperator, gamma, proportional
from graded_sqm.grading import (
    ANTICOMMUTATOR,
    COMMUTATOR,
    DegreeVector,
    bracket_kind,
    dot,
)
from graded_sqm.models import Model, fold, product, split
from graded_sqm.operators import TensorSum, TensorTerm, graded_bracket_terms, read_records
from graded_sqm.realizations import (
    GRID_CLUSTER_TOL,
    MAX_FOCK_LEVELS,
    FockRealization,
    GridRealization,
    _cluster,
    spectrum,
)
from graded_sqm.sqm_block import (
    LOWER,
    RAISE,
    SqmBlock,
    WordSum,
    canonical_blocks,
    realize,
)
from graded_sqm.verify import (
    _labels,
    _nonzero_brackets,
    central_rank,
    check_centrality,
    check_defining_relations,
    count_generated_operators,
    orbit_decomposition,
)


def dv(*bits):
    return DegreeVector.from_bits(bits)


def mutate_model(model: Model, rng) -> Model:
    """Flip one bit of x or z, or add 1-3 to k, on one random Q or Z."""
    charges = dict(model.supercharges)
    cents = dict(model.centrals)
    pool = [("q", k) for k in charges] + [("z", k) for k in cents]
    kind, key = pool[int(rng.integers(0, len(pool)))]
    target = charges[key] if kind == "q" else cents[key]
    p = target.clifford
    site = int(rng.integers(0, 3))
    if site == 0:
        p = PauliOperator(p.m, p.x ^ (1 << int(rng.integers(0, p.m))), p.z, p.k)
    elif site == 1:
        p = PauliOperator(p.m, p.x, p.z ^ (1 << int(rng.integers(0, p.m))), p.k)
    else:
        p = p.scale(int(rng.integers(1, 4)))
    broken = replace(target, clifford=p)
    if kind == "q":
        charges[key] = broken
    else:
        cents[key] = broken
    return Model(model.spec, model.odd_degrees, model.hamiltonian, charges, cents)


class TestTensorSum:
    def test_empty_is_zero(self):
        assert TensorSum([]).is_zero()

    def test_cancellation(self):
        _, h, _ = canonical_blocks()
        g = gamma(1, 2)
        assert TensorSum([TensorTerm(g, h), TensorTerm(g, -h)]).is_zero()

    def test_detects_single_term(self):
        g = gamma(1, 2)
        assert TensorSum([TensorTerm(g, SqmBlock.identity())]).residual() is not None

    def test_detects_support_mismatch(self):
        one = SqmBlock.identity()
        assert not TensorSum(
            [TensorTerm(gamma(1, 2), one), TensorTerm(gamma(2, 2), -one)]
        ).is_zero()

    def test_three_term_cancellation(self):
        g = gamma(1, 2)
        one = SqmBlock.identity()
        terms = [TensorTerm(g, one), TensorTerm(g, one), TensorTerm(g, one * (-2))]
        assert TensorSum(terms).is_zero()

    def test_mixed_dims_rejected(self):
        one = SqmBlock.identity()
        with pytest.raises(ValueError):
            TensorSum([TensorTerm(gamma(1, 1), one), TensorTerm(gamma(1, 2), one)])


SMALL_SET = [
    "minimal:n=2",
    "minimal:n=3",
    "minimal:n=4",
    "next:n=2",
    "next:n=3",
    "next:n=4",
    "maximal:n=2",
    "maximal:n=3",
    "n4cl12",
    "n4cl10",
]


def first_group(terms) -> tuple[SqmBlock, int, int] | None:
    """The first Clifford string, in the order of the terms, whose blocks
    weighted by their phases do not cancel: (total block, x, z), or None
    when the sum is zero."""
    groups: dict[tuple[int, int], SqmBlock] = {}
    for t in terms:
        key = (t.clifford.x, t.clifford.z)
        groups[key] = groups.get(key, SqmBlock.zero()) + t.block * PHASES[t.clifford.k]
    for (x, z), total in groups.items():
        if not total.is_zero():
            return total, x, z
    return None


RESIDUAL = re.compile(r"nonzero residual (.+) on clifford string x=(\d+) z=(\d+)")
MONOMIAL = re.compile(r"(-?\d+|-?\d+i|\(-?\d+[+-]\d+i\))\*S\^([01])\*Q\^(\d+)")


def read_residual(text: str | None) -> tuple[SqmBlock, int, int] | None:
    """A check's residual text read back as (sum of c S**s Q**e, x, z)."""
    if text is None:
        return None
    assert text.isascii() and "," not in text and "j" not in text and "." not in text, text
    head = RESIDUAL.fullmatch(text)
    assert head, text
    q, _, s = canonical_blocks()
    total = SqmBlock.zero()
    for monomial in head.group(1).split(" + "):
        coeff, sbit, e = MONOMIAL.fullmatch(monomial).groups()
        block = s if sbit == "1" else SqmBlock.identity()
        for _ in range(int(e)):
            block = block @ q
        total = total + block * complex(coeff.replace("i", "j"))
    assert not total.is_zero(), text
    return total, int(head.group(2)), int(head.group(3))


def assert_residuals_match(rows, groups) -> None:
    """Each row's residual is its oracle group exactly, on the same string,
    and a row passes exactly when its group is None."""
    assert len(rows) == len(groups)
    for p, want in zip(rows, groups):
        assert read_residual(p.residual) == want, (p, want)
        assert p.ok == (want is None) == (p.residual is None), p


def relation_groups(model: Model) -> list[tuple[SqmBlock, int, int] | None]:
    """The first non-cancelling group of every ordered supercharge pair's tensor sum."""
    want = []
    for a in model.odd_degrees:
        for b in model.odd_degrees:
            terms = graded_bracket_terms(model.supercharge(a), model.supercharge(b))
            if a == b:
                target, coeff = model.hamiltonian, -2
            else:
                target, coeff = model.central(a, b), -2 * PHASES[(1 - dot(a, b)) % 4]
            terms.append(TensorTerm(target.clifford, target.block * coeff))
            want.append(first_group(terms))
    return want


def centrality_groups(model: Model, rows) -> list[tuple[SqmBlock, int, int] | None]:
    """The first non-cancelling group of each failing centrality row's
    bracket, and None for each aggregate row."""
    ops = {op.label(): op for op in model.operators()}
    return [
        None if p.ok else first_group(graded_bracket_terms(ops[p.left], ops[p.right]))
        for p in rows
    ]


def assert_checks_match_oracle(model: Model):
    """Both checks' rows against the oracle groups; returns both reports."""
    rel, cen = check_defining_relations(model), check_centrality(model)
    assert_residuals_match(rel.pair_results, relation_groups(model))
    rows = cen.centrality_results
    assert_residuals_match(rows, centrality_groups(model, rows))
    return rel, cen


class TestDefiningRelations:
    @pytest.mark.parametrize("sel", SMALL_SET)
    def test_small_models_pass(self, models, sel):
        rep = check_defining_relations(models(sel))
        assert rep.overall, rep.failures()[:3]

    def test_pair_count_and_kinds(self, models):
        m = models("minimal:n=3")
        rep = check_defining_relations(m)
        assert len(rep.pair_results) == 16
        for p in rep.pair_results:
            if p.left == p.right:
                assert p.kind == ANTICOMMUTATOR

    def test_mutation_detected(self, models):
        rng = np.random.default_rng(5)
        broken = mutate_model(models("minimal:n=3"), rng)
        rel = check_defining_relations(broken)
        cen = check_centrality(broken)
        assert not (rel.overall and cen.overall)

    @pytest.mark.parametrize("sel", ["minimal:n=4", "next:n=3", "maximal:n=3", "n4cl10"])
    def test_verdict_classes_agree_with_tensor_sum(self, models, sel):
        # sparse changes, so that most pairs pass and a failing pair often
        # differs from a passing one in one bit of its packed records: a
        # supercharge gets a random string or its block times i; a central
        # element gets one x bit flipped, its string times i or its block
        # times i.  Odd trials change the intact model, even trials a model
        # with random supercharge strings and each central string the
        # product of its pair's strings times a random phase.  Every pair's
        # residual must be its own tensor sum's, read back as a block.
        rng = np.random.default_rng(23)
        model = models(sel)
        m = model.hamiltonian.clifford.m

        def draw(size):
            return int(rng.integers(0, size))

        def random_string():
            return PauliOperator(m, draw(1 << m), draw(1 << m), draw(4))

        for trial in range(8):
            charges, cents = dict(model.supercharges), dict(model.centrals)
            if trial % 2 == 0:
                charges = {a: replace(q, clifford=random_string()) for a, q in charges.items()}
                for (a, b), z in cents.items():
                    p = (charges[a].clifford @ charges[b].clifford).scale(draw(4))
                    cents[(a, b)] = replace(z, clifford=p)
            for a, q in charges.items():
                change = draw(8)
                if change == 0:
                    charges[a] = replace(q, clifford=random_string())
                elif change == 1:
                    charges[a] = replace(q, block=q.block * 1j)
            for key, z in cents.items():
                p, change = z.clifford, draw(8)
                if change == 0:
                    cents[key] = replace(z, clifford=PauliOperator(m, p.x ^ 1, p.z, p.k))
                elif change == 1:
                    cents[key] = replace(z, clifford=p.scale(1))
                elif change == 2:
                    cents[key] = replace(z, block=z.block * 1j)
            broken = Model(model.spec, model.odd_degrees, model.hamiltonian, charges, cents)
            want = relation_groups(broken)
            assert_residuals_match(check_defining_relations(broken).pair_results, want)
            assert None in want and any(want)

    def test_report_serialization(self, models):
        rep = check_defining_relations(models("minimal:n=2"))
        d = rep.to_dict()
        assert d["overall"] is True
        assert "PASS" in rep.to_markdown()


def flip_block_bit(model: Model, rng) -> Model:
    """Flip the block bit s (S times the block) of one random Q or Z, or
    raise its ladder power e by one (times Q) or by two (times H, which
    keeps e mod 2)."""
    q, h, s = canonical_blocks()
    charges, cents = dict(model.supercharges), dict(model.centrals)
    pool = [(charges, key) for key in charges] + [(cents, key) for key in cents]
    table, key = pool[int(rng.integers(0, len(pool)))]
    block = table[key].block
    block = (s @ block, block @ q, block @ h)[int(rng.integers(0, 3))]
    table[key] = replace(table[key], block=block)
    return Model(model.spec, model.odd_degrees, model.hamiltonian, charges, cents)


def mutate_like_bench(model: Model, kind: str, rng: random.Random) -> Model:
    """The benchmark's four mutation kinds: a supercharge block times i, a
    central block times -1, a supercharge given another's Clifford factor,
    and a central factor times a supercharge factor that is not a multiple
    of the identity."""
    charges, cents = dict(model.supercharges), dict(model.centrals)
    degrees = list(model.odd_degrees)
    if kind == "q-times-i":
        a = rng.choice(degrees)
        charges[a] = replace(charges[a], block=charges[a].block * 1j)
    elif kind == "z-times-minus-1":
        key = rng.choice(list(cents))
        cents[key] = replace(cents[key], block=cents[key].block * -1)
    elif kind == "q-factor":
        a = rng.choice(degrees)
        donors = [b for b in degrees if proportional(charges[b].clifford, charges[a].clifford) is None]
        charges[a] = replace(charges[a], clifford=charges[rng.choice(donors)].clifford)
    else:
        key = rng.choice(list(cents))
        donors = [c for c in degrees if charges[c].clifford.scalar_of_identity() is None]
        z = cents[key]
        cents[key] = replace(z, clifford=z.clifford @ charges[rng.choice(donors)].clifford)
    return Model(model.spec, model.odd_degrees, model.hamiltonian, charges, cents)


def with_hamiltonian_block(model: Model, block: SqmBlock) -> Model:
    """The model made from its operators, with this block in H's place."""
    h = replace(model.hamiltonian, block=block)
    return Model(model.spec, model.odd_degrees, h, model.supercharges, model.centrals)


def monomial_non_canonical_hamiltonians(model: Model) -> list[Model]:
    """The model with each Hamiltonian block i Q Q, S Q Q and -Q Q in place
    of Q Q: monomials, so the model is made, but not the canonical block."""
    _, h, s = canonical_blocks()
    return [with_hamiltonian_block(model, block) for block in (h * 1j, s @ h, -h)]


def refuse_tensor_sums(monkeypatch) -> None:
    """Make every way to a tensor sum fail the test."""

    def refuse(*args):
        raise AssertionError("the exact checks build no tensor sum")

    monkeypatch.setattr(TensorSum, "__init__", refuse)
    monkeypatch.setattr(TensorSum, "residual", refuse)
    monkeypatch.setattr(operators, "graded_bracket_terms", refuse)


class TestPackedRecords:
    @pytest.mark.parametrize("sel", [*SMALL_SET, "minimal:n=5", "next:n=5", "maximal:n=4"])
    def test_block_bit_flip_detected(self, models, sel):
        # a flipped block bit can leave a pair's bracket and its target on
        # one string with different monomials: a residual of two terms
        rng = np.random.default_rng(31)
        for _ in range(8):
            broken = flip_block_bit(models(sel), rng)
            rel, cen = assert_checks_match_oracle(broken)
            assert not (rel.overall and cen.overall)

    @pytest.mark.parametrize("kind", ["q-times-i", "z-times-minus-1", "q-factor", "z-times-q"])
    def test_benchmark_mutation_kinds_detected(self, models, kind):
        # every failing row's residual, read back as a block, must be its
        # own tensor sum's first non-cancelling group, on the same string
        selectors = [
            "minimal:n=3", "minimal:n=4", "minimal:n=5", "next:n=3", "next:n=4", "next:n=5",
            "maximal:n=3", "maximal:n=4", "n4cl10", "n4cl12",
        ]
        for sel in selectors:
            for seed in range(4):
                broken = mutate_like_bench(models(sel), kind, random.Random(f"{seed}:{sel}:{kind}"))
                rel, cen = assert_checks_match_oracle(broken)
                assert not (rel.overall and cen.overall), (sel, kind, seed)

    def test_checks_multiply_nothing(self, models, monkeypatch):
        # the benchmark's z-times-q mutation of next:n=8 at seed 1 fails
        # 4,161 rows.  Once the first pass has filled the caches of the block
        # reader, both checks run on the packed records alone: no block sum or
        # product and no Pauli product, and the same reports.
        sel, kind = "next:n=8", "z-times-q"
        broken = mutate_like_bench(models(sel), kind, random.Random(f"1:{sel}:{kind}"))
        rel, cen = check_defining_relations(broken), check_centrality(broken)
        assert len(rel.failures()) + len(cen.failures()) == 4161

        def refuse(*args):
            raise AssertionError("the exact checks multiply no block or Pauli string")

        refuse_tensor_sums(monkeypatch)
        for name in ("__matmul__", "__mul__", "__rmul__", "__add__"):
            monkeypatch.setattr(SqmBlock, name, refuse)
        monkeypatch.setattr(PauliOperator, "__matmul__", refuse)
        assert check_defining_relations(broken) == rel
        assert check_centrality(broken) == cen

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_benchmark_mutants_match_their_tensor_sums(self, models, seed):
        # the seven invocations of the benchmark's mutants workload, which
        # reach minimal:n=6 and next:n=6: every row's residual, read back as
        # a block, is its own tensor sum's
        invocations = [
            ("minimal:n=5", "q-factor"), ("minimal:n=6", "z-times-q"),
            ("next:n=5", "z-times-q"), ("next:n=6", "q-times-i"),
            ("maximal:n=4", "z-times-minus-1"), ("n4cl10", "z-times-q"),
            ("n5cl26", "q-factor"),
        ]
        for sel, kind in invocations:
            broken = mutate_like_bench(models(sel), kind, random.Random(f"{seed}:{sel}:{kind}"))
            rel, cen = assert_checks_match_oracle(broken)
            assert not (rel.overall and cen.overall), (sel, kind)

    def test_checks_build_no_tensor_sum(self, models, monkeypatch):
        # with every way to a tensor sum refused, both checks still return
        # the residuals of the oracle, computed before the refusal
        cases = []
        for sel in SMALL_SET:
            for kind in ["q-times-i", "z-times-minus-1", "q-factor", "z-times-q"]:
                broken = mutate_like_bench(models(sel), kind, random.Random(f"1:{sel}:{kind}"))
                rows = check_centrality(broken).centrality_results
                cases.append((broken, relation_groups(broken), centrality_groups(broken, rows)))
        refuse_tensor_sums(monkeypatch)
        for broken, relations, centrality in cases:
            assert_residuals_match(check_defining_relations(broken).pair_results, relations)
            assert_residuals_match(check_centrality(broken).centrality_results, centrality)

    def test_non_monomial_block_refused(self, models):
        q, h, _ = canonical_blocks()
        m = models("minimal:n=3")
        a = m.odd_degrees[0]
        charges = dict(m.supercharges)
        charges[a] = replace(charges[a], block=q + h)
        # the model is refused where it is made, so no check ever sees it
        with pytest.raises(ValueError, match="not a monomial"):
            Model(m.spec, m.odd_degrees, m.hamiltonian, charges, m.centrals)
        with pytest.raises(ValueError, match="not a monomial"):
            with_hamiltonian_block(m, h + q)

    def test_non_monomial_hamiltonian_refused_where_read(self, models):
        # H's record is read with every other record, where the model is
        # made, so no check and no spectrum sees a model without one
        q, h, _ = canonical_blocks()
        m = models("minimal:n=3")
        with pytest.raises(ValueError, match="not a monomial"):
            operators.read_tables(
                m.spec.n, m.odd_degrees, replace(m.hamiltonian, block=h + q), m.supercharges, m.centrals
            )
        # a monomial H other than Q Q is read: no Q Q equals it, S Q Q alone
        # fails to commute with the supercharges, and the spectrum names it
        for broken, central in zip(monomial_non_canonical_hamiltonians(m), (True, False, True)):
            assert not check_defining_relations(broken).overall
            assert check_centrality(broken).overall is central
            with pytest.raises(ValueError, match=r"not diag\(Ad A, A Ad\)"):
                spectrum(broken, FockRealization(4))
            assert orbit_decomposition(broken) == orbit_decomposition(m)

    def test_markdown_residuals_are_code_spans(self, models):
        # CommonMark reads *S^0* in a bare table cell as emphasis; the JSON
        # keeps the residual text as it is
        broken = mutate_like_bench(models("next:n=3"), "q-times-i", random.Random("1:next:n=3:q-times-i"))
        rel = check_defining_relations(broken)
        first = rel.failures()[0]
        assert (first.left, first.right) == ("Q[001]", "Q[010]")
        assert first.residual == "nonzero residual (2-2i)*S^0*Q^2 on clifford string x=2 z=3"
        rows = rel.to_dict()["pair_results"]
        row = next(r for r in rows if (r["left"], r["right"]) == ("Q[001]", "Q[010]"))
        assert row["residual"] == first.residual
        text = rel.to_markdown()
        assert f"| Q[001] | Q[010] | commutator | `{first.residual}` |" in text.splitlines()
        for p in rel.failures():
            assert f"`{p.residual}`" in text and "`" not in p.residual


# every benchmark ladder selector and both wide ones, in each ordering its family allows
TABLE_MODELS = [
    *(f"{family}:n={n}" for family in ("minimal", "next") for n in range(2, 7)),
    *(f"maximal:n={n}" for n in range(2, 5)),
    "n4cl12", "n4cl10", "n5cl26", "n5cl28",
]
TABLE_SPECS = [
    (sel, ordering)
    for sel in TABLE_MODELS
    for ordering in (("default",) if sel.startswith("n") and sel[1].isdigit() else ("default", "reversed"))
]


class TestRecordsAreTheModel:
    """A model is packed tables; its operator objects are views of them."""

    @staticmethod
    def build(sel: str, ordering: str) -> Model:
        from graded_sqm.models import ModelSpec, build

        return build(ModelSpec.parse(sel, ordering))

    @pytest.mark.parametrize("sel,ordering", TABLE_SPECS)
    def test_tables_are_the_records_of_their_views(self, sel, ordering):
        model = self.build(sel, ordering)
        ops = model.operators()
        assert read_records(ops, model.m) == [model.h, *model.q, *model.z]
        assert model.m == model.hamiltonian.clifford.m == model.spec.qubits
        assert model.masks == tuple(a.mask for a in model.odd_degrees)
        position = {a: i for i, a in enumerate(model.odd_degrees)}
        assert model.pairs == tuple((position[a], position[b]) for a, b in model.centrals)
        for (a, b), z in model.centrals.items():
            assert z.degree == a + b and z.pair == (a, b)

    @pytest.mark.parametrize("sel,ordering", TABLE_SPECS)
    def test_central_records_are_pair_products(self, sel, ordering):
        # Z_ab = (-i)**(1 - a.b) Q_a Q_b: the words XOR, the phase adds
        # 2 |z_a & x_b| and 3 (1 - a.b), the ladder powers add
        model = self.build(sel, ordering)
        q, masks = model.q, model.masks
        for (i, j), z in zip(model.pairs, model.z):
            (xa, za, ka, ea), (xb, zb, kb, eb) = q[i], q[j]
            d = (masks[i] & masks[j]).bit_count() & 1
            phase = (ka + kb + 2 * (za & xb).bit_count() + 3 * (1 - d)) % 4
            assert z == (xa ^ xb, za ^ zb, phase, ea + eb), (i, j)

    @pytest.mark.parametrize("sel,ordering", TABLE_SPECS)
    def test_model_from_its_views_reports_the_same(self, sel, ordering):
        model = self.build(sel, ordering)
        again = Model(
            model.spec, model.odd_degrees, model.hamiltonian, model.supercharges, model.centrals
        )
        assert (again.m, again.masks, again.h, again.q, again.pairs, again.z) == (
            model.m, model.masks, model.h, model.q, model.pairs, model.z
        )
        for check in (
            check_defining_relations, check_centrality, central_rank, orbit_decomposition,
            count_generated_operators,
        ):
            assert check(again) == check(model), check.__name__

    @pytest.mark.parametrize("sel,ordering", TABLE_SPECS)
    def test_views_are_split_not_multiplied(self, monkeypatch, sel, ordering):
        model = self.build(sel, ordering)
        operators.views(model)  # the warm pass fills the monomial cache

        def refuse(*args):
            raise AssertionError("views multiply or read back no block")

        with monkeypatch.context() as patch:
            patch.setattr(SqmBlock, "__matmul__", refuse)
            patch.setattr(operators, "_read_block", refuse)
            got = operators.views(model)
        # each view's block is the build's, made here in the block algebra
        q, h, s = canonical_blocks()
        charge = (q, (q @ s) * 1j)
        bits = {a: split(r)[3] for a, r in zip(got["odd_degrees"], model.q)}
        assert got["hamiltonian"].block == h
        for a, op in got["supercharges"].items():
            assert op.block == charge[bits[a]], a
        for (a, b), op in got["centrals"].items():
            assert op.block == (charge[bits[a]] @ charge[bits[b]]) * (-1j) ** (1 - dot(a, b))
        ops = [got["hamiltonian"], *got["supercharges"].values(), *got["centrals"].values()]
        assert read_records(ops, model.m) == [model.h, *model.q, *model.z]

    def test_views_of_records_no_build_makes(self, models):
        model = models("next:n=2")
        x, z, k, e = model.q[0]

        def first_view(record):
            q = (record, *model.q[1:])
            broken = Model.from_tables(model.spec, model.m, model.masks, model.h, q, model.z)
            return next(iter(operators.views(broken)["supercharges"].values()))

        # a block the build's does not fit is S**s Q**e; the record reads back
        op = first_view((x, z, k, e + 2))
        assert op.block == operators._monomial(0, z & 1, e + 2)
        assert read_records([op], model.m) == [(x, z, k, e + 2)]
        with pytest.raises(ValueError, match="x bit"):
            first_view((x ^ 1, z, k, e))

    def test_fold_against_the_block_algebra(self):
        blocks = list(itertools.product(range(4), range(2), range(4)))
        strings = [PauliOperator(2, x, z, k) for x, z, k in ((0, 0, 0), (1, 3, 1), (3, 2, 2))]
        for p, (kb, s, e) in itertools.product(strings, blocks):
            assert split(fold(p.x, p.z, p.k, (kb, s, e))) == (p.x, p.z, (p.k + kb) % 4, s, e)
        for b1, b2 in itertools.product(blocks, repeat=2):
            block = operators._read_block(operators._monomial(*b1) @ operators._monomial(*b2))
            for p1, p2 in itertools.product(strings, repeat=2):
                p = p1 @ p2
                want = fold(p.x, p.z, p.k, block)
                assert product(fold(p1.x, p1.z, p1.k, b1), fold(p2.x, p2.z, p2.k, b2)) == want

    @pytest.mark.parametrize("sel", ["minimal:n=3", "next:n=3", "maximal:n=3"])
    def test_every_record_flip_is_detected(self, models, sel):
        # every single-bit flip of x or z, the block qubit included, and
        # every change of k, in the Hamiltonian's record and in every
        # supercharge and central record
        model = models(sel)
        width = model.m + 1

        def flips(record):
            x, z, k, e = record
            for bit in range(width):
                yield x ^ 1 << bit, z, k, e
                yield x, z ^ 1 << bit, k, e
            for dk in (1, 2, 3):
                yield x, z, (k + dk) % 4, e

        trials = 0
        for name in ("h", "q", "z"):
            records = (model.h,) if name == "h" else getattr(model, name)
            for index, record in enumerate(records):
                for flipped in flips(record):
                    tables = {"h": (model.h,), "q": model.q, "z": model.z}
                    tables[name] = (*records[:index], flipped, *records[index + 1:])
                    (h,) = tables["h"]
                    broken = Model.from_tables(
                        model.spec, model.m, model.masks, h, tables["q"], tables["z"]
                    )
                    rel, cen = check_defining_relations(broken), check_centrality(broken)
                    assert not (rel.overall and cen.overall), (name, index, flipped)
                    trials += 1
        assert trials == (1 + len(model.q) + len(model.z)) * (2 * width + 3)


class TestOneLayout:
    """``Model(...)`` reads only the built layout: every parity-1 degree once,
    a supercharge for each and a central element for each pair (a, b), a
    before b.  Most other layouts pass both exact checks, which read only
    the pairs a model holds, so each is refused where the model is made."""

    REFUSED = r"^(odd_degrees|supercharges|centrals) must "

    @staticmethod
    def parts(sel: str, ordering: str):
        model = TestRecordsAreTheModel.build(sel, ordering)
        return model, list(model.odd_degrees), dict(model.supercharges), dict(model.centrals)

    @pytest.mark.parametrize("sel,ordering", TABLE_SPECS)
    def test_other_layouts_are_refused(self, sel, ordering):
        model, degrees, charges, cents = self.parts(sel, ordering)
        (a, b), z = next(iter(cents.items()))
        first = degrees[0]
        layouts = {
            "no central elements": (degrees, charges, {}),
            "a Z under its reversed key": (
                degrees, charges, {(b, a) if k == (a, b) else k: op for k, op in cents.items()}
            ),
            "an extra (a, a) key": (degrees, charges, {**cents, (a, a): z}),
            "a duplicated degree": ([*degrees, a], charges, cents),
            "a parity-0 degree": ([a + b, *degrees[1:]], charges, cents),
            "a dropped Q with its Zs": (
                degrees[1:],
                {c: op for c, op in charges.items() if c != first},
                {key: op for key, op in cents.items() if first not in key},
            ),
            "an extra supercharge key": (degrees, {**charges, a + b: charges[a]}, cents),
        }
        for what, (odd, supercharges, centrals) in layouts.items():
            with pytest.raises(ValueError, match=self.REFUSED):
                Model(model.spec, odd, model.hamiltonian, supercharges, centrals)
                pytest.fail(f"{what} was not refused")

    @pytest.mark.parametrize("sel", ["next:n=3", "minimal:n=4"])
    def test_each_dropped_central_is_refused(self, sel):
        model, degrees, charges, cents = self.parts(sel, "default")
        for key in cents:
            kept = {other: op for other, op in cents.items() if other != key}
            with pytest.raises(ValueError, match=r"^centrals .* 1 missing, 0 extra, 0 repeated$"):
                Model(model.spec, degrees, model.hamiltonian, charges, kept)

    def test_tables_of_the_wrong_length_are_refused(self, models):
        # a z table one short would pass both checks, which zip it with the pairs
        m = models("next:n=3")
        for masks, z in [(m.masks, m.z[:-1]), (m.masks, (*m.z, m.z[0])), (m.masks[1:], m.z)]:
            with pytest.raises(ValueError, match="a mask per supercharge and a record per pair"):
                Model.from_tables(m.spec, m.m, masks, m.h, m.q, z)

    @pytest.mark.parametrize("sel,ordering", TABLE_SPECS)
    def test_tables_follow_the_degree_order_not_the_dicts(self, sel, ordering):
        model, degrees, charges, cents = self.parts(sel, ordering)
        again = Model(
            model.spec, degrees, model.hamiltonian,
            dict(reversed(charges.items())), dict(reversed(cents.items())),
        )
        assert (again.q, again.pairs, again.z) == (model.q, model.pairs, model.z)
        assert list(again.supercharges) == degrees and list(again.centrals) == list(cents)
        assert check_defining_relations(again) == check_defining_relations(model)


def load_fold_script():
    """scripts/fold_report.py, which rewrites a report of the unfolded schema."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "fold_report.py"
    spec = importlib.util.spec_from_file_location("fold_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unfolded_document(rel, cen, rank) -> dict:
    """A verify report in the unfolded schema: every ordered pair's row, and
    every rank entry's element labels."""
    def section(rep):
        return {
            "model": rep.model, "check": rep.check, "overall": rep.overall,
            "pair_results": [p._asdict() for p in rep.pair_results],
            "centrality_results": [p._asdict() for p in rep.centrality_results],
        }

    return {
        "defining_relations": section(rel),
        "centrality": section(cen),
        "rank": {
            **rank.to_dict(),
            "entries": [
                {
                    "classes": e.classes, "degree": e.degree, "rank": e.rank,
                    "elements": [label for c in e.classes for label in c],
                }
                for e in rank.entries
            ],
        },
    }


MUTATION_KINDS = ["q-times-i", "z-times-minus-1", "q-factor", "z-times-q"]
SMALL_TABLE_MODELS = [sel for sel in TABLE_MODELS if int(sel[-1] if ":" in sel else sel[1]) <= 4]


class TestFoldedReports:
    """A report writes one relation row per supercharge, as it writes one
    centrality row per left operator, and a count per rank entry; the
    library reports keep every ordered pair and every element label."""

    @pytest.mark.parametrize("sel", TABLE_MODELS)
    def test_a_passing_model_has_a_row_per_operator(self, models, capsys, sel):
        model = models(sel)
        n, nz = len(model.q), len(model.z)
        rel = check_defining_relations(model)
        # the benchmark's tracer replays every ordered pair against these
        assert len(rel.pair_results) == n * n
        labels = list(dict.fromkeys(p.left for p in rel.pair_results))
        assert main(["verify", "--model", sel, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["defining_relations"]["pair_results"] == [
            {"kind": "graded", "left": left, "ok": True, "residual": None, "right": f"{n} supercharges"}
            for left in labels
        ]
        assert len(doc["centrality"]["centrality_results"]) == 1 + nz
        assert main(["verify", "--model", sel, "--format", "csv"]) == 0
        table = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert len(table) == 1 + n + 1 + nz
        assert [row[:4] for row in table[1 : n + 1]] == [
            ["defining-relations", left, f"{n} supercharges", "graded"] for left in labels
        ]

    @pytest.mark.parametrize("kind", MUTATION_KINDS)
    def test_a_mutated_model_writes_its_failures(self, models, kind):
        for sel in SMALL_TABLE_MODELS:
            for seed in range(10):
                broken = mutate_like_bench(models(sel), kind, random.Random(f"{seed}:{sel}:{kind}"))
                rel, cen = check_defining_relations(broken), check_centrality(broken)
                assert not (rel.overall and cen.overall), (sel, seed)
                assert len(rel.pair_results) == len(broken.q) ** 2
                centrals = _labels(broken, centrals=True)[len(broken.q):]
                lefts = [dict.fromkeys(p.left for p in rel.pair_results), ["H", *centrals]]
                for rep, expected in zip((rel, cen), lefts):
                    doc = rep.to_dict()
                    rows = doc["pair_results"] + doc["centrality_results"]
                    failing = [(r["left"], r["right"], r["kind"], r["residual"]) for r in rows if not r["ok"]]
                    assert Counter(failing) == Counter(
                        (p.left, p.right, p.kind, p.residual) for p in rep.failures()
                    ), (sel, seed)
                    failed = {p.left for p in rep.failures()}
                    passing = [r for r in rows if r["ok"]]
                    assert sorted(r["left"] for r in passing) == sorted(
                        left for left in expected if left not in failed
                    ), (sel, seed)
                    assert all(r["kind"] == "graded" and r["residual"] is None for r in passing)
                rank = central_rank(broken)
                for entry, written in zip(rank.entries, rank.to_dict()["entries"]):
                    assert sorted(written) == ["classes", "count", "degree", "rank"]
                    assert written["count"] == entry.count
                    assert written["count"] == sum(len(c) for c in written["classes"])
                    assert sorted(label for c in written["classes"] for label in c) == sorted(
                        z.label() for z in broken.centrals.values() if str(z.degree) == entry.degree
                    )

    @pytest.mark.parametrize("kind", [None, *MUTATION_KINDS])
    def test_the_fold_script_turns_the_unfolded_schema_into_the_report(self, models, kind):
        fold = load_fold_script().fold
        for sel in SMALL_TABLE_MODELS:
            for seed in range(3 if kind else 1):
                model = models(sel)
                if kind:
                    model = mutate_like_bench(model, kind, random.Random(f"{seed}:{sel}:{kind}"))
                rel, cen, rank = check_defining_relations(model), check_centrality(model), central_rank(model)
                report = {"defining_relations": rel.to_dict(), "centrality": cen.to_dict(), "rank": rank.to_dict()}
                folded = fold(unfolded_document(rel, cen, rank))
                assert json.dumps(folded, indent=2, sort_keys=True) == json.dumps(
                    report, indent=2, sort_keys=True
                ), (sel, seed)


class TestCentrality:
    @pytest.mark.parametrize("sel", SMALL_SET)
    def test_small_models_pass(self, models, sel):
        rep = check_centrality(models(sel))
        assert rep.overall, rep.failures()[:3]

    def test_rank3_vanishing_table(self, models):
        # the full vanishing table of the rank-3 algebra on the 16-dim model:
        # each supercharge against each parity-0 subspace with the bracket
        # kind dictated by the degrees, then subspace-vs-subspace
        m = models("next:n=3")
        subspaces = {
            "110": [(dv(1, 0, 0), dv(0, 1, 0)), (dv(0, 0, 1), dv(1, 1, 1))],
            "101": [(dv(1, 0, 0), dv(0, 0, 1)), (dv(0, 1, 0), dv(1, 1, 1))],
            "011": [(dv(0, 1, 0), dv(0, 0, 1)), (dv(1, 0, 0), dv(1, 1, 1))],
        }
        q_rows = [
            ("100", "110", ANTICOMMUTATOR),
            ("100", "101", ANTICOMMUTATOR),
            ("100", "011", COMMUTATOR),
            ("010", "110", ANTICOMMUTATOR),
            ("010", "011", ANTICOMMUTATOR),
            ("010", "101", COMMUTATOR),
            ("001", "101", ANTICOMMUTATOR),
            ("001", "011", ANTICOMMUTATOR),
            ("001", "110", COMMUTATOR),
            ("111", "110", COMMUTATOR),
            ("111", "101", COMMUTATOR),
            ("111", "011", COMMUTATOR),
        ]
        for q_str, sub, kind in q_rows:
            qdeg = DegreeVector.from_string(q_str)
            q = m.supercharge(qdeg)
            for a, b in subspaces[sub]:
                z = m.central(a, b)
                assert bracket_kind(z.degree, qdeg) == kind
                assert TensorSum(graded_bracket_terms(z, q)).is_zero()
        zz_rows = [
            ("110", "110", COMMUTATOR),
            ("110", "101", ANTICOMMUTATOR),
            ("110", "011", ANTICOMMUTATOR),
            ("101", "101", COMMUTATOR),
            ("101", "011", ANTICOMMUTATOR),
            ("011", "011", COMMUTATOR),
        ]
        for s1, s2, kind in zz_rows:
            for pa, pb in itertools.product(subspaces[s1], subspaces[s2]):
                z1, z2 = m.central(*pa), m.central(*pb)
                assert bracket_kind(z1.degree, z2.degree) == kind
                assert TensorSum(graded_bracket_terms(z1, z2)).is_zero()

    def test_mutated_generator_table_detected(self, models):
        rng = np.random.default_rng(11)
        broken = mutate_model(models("n4cl10"), rng)
        rel = check_defining_relations(broken)
        cen = check_centrality(broken)
        assert not (rel.overall and cen.overall)

    @pytest.mark.parametrize("sel", [*SMALL_SET, "minimal:n=5"])
    def test_sweep_agrees_with_tensor_sum(self, models, sel):
        # every ordered pair of H, Q and Z, on the intact model, on three
        # Pauli-space mutations and on one block-scalar mutation; the
        # failing rows of check_centrality are exactly the failing pairs of
        # H x (Q, Z), Z x Q and Z_i x Z_j for i < j, each listed once.
        # minimal:n=5 has 137 operators, so its bit planes span more than
        # two 64-bit words; it runs on the intact model and one mutation.
        rng = np.random.default_rng(17)
        model = models(sel)
        variants = [model, mutate_model(model, rng)]
        if sel != "minimal:n=5":
            variants += [mutate_model(model, rng) for _ in range(2)]
            a = model.odd_degrees[0]
            charges = dict(model.supercharges)
            charges[a] = replace(charges[a], block=charges[a].block * 1j)
            variants.append(
                Model(model.spec, model.odd_degrees, model.hamiltonian, charges, model.centrals)
            )
        for m in variants:
            ops = m.operators()
            want = [[TensorSum(graded_bracket_terms(u, v)).is_zero() for v in ops] for u in ops]
            records = read_records(ops, m.hamiltonian.clifford.m)
            degrees = [op.degree.mask for op in ops]
            masks = list(_nonzero_brackets(records, degrees, range(len(ops))))
            assert all(0 <= mask < 1 << len(ops) for mask in masks)
            assert [[not mask >> j & 1 for j in range(len(ops))] for mask in masks] == want

            nq = len(m.supercharges)
            rows = []
            for i in [0, *range(1 + nq, len(ops))]:
                bad = [j for j in range(len(ops)) if (1 <= j <= nq or j > i) and not want[i][j]]
                if bad:
                    rows += [(ops[i].label(), ops[j].label(), False) for j in bad]
                else:
                    rows.append((ops[i].label(), True))
            rep = check_centrality(m)
            got = [
                (p.left, True) if p.ok else (p.left, p.right, False)
                for p in rep.centrality_results
            ]
            assert got == rows
            rows = rep.centrality_results
            assert_residuals_match(rows, centrality_groups(m, rows))
            if m is model:
                assert len(rep.centrality_results) == 1 + len(m.centrals)
                assert rep.overall

    def test_failing_pairs_carry_residuals(self, models):
        m = models("next:n=3")
        key, z = next(iter(m.centrals.items()))
        p = z.clifford
        cents = dict(m.centrals)
        cents[key] = replace(z, clifford=PauliOperator(p.m, p.x ^ 1, p.z, p.k))
        rep = check_centrality(Model(m.spec, m.odd_degrees, m.hamiltonian, m.supercharges, cents))
        assert rep.failures()
        assert all(p.residual and "x=" in p.residual for p in rep.failures())


def dense_free_module_rank(ops) -> int:
    """Independent oracle: vectorize each tensor operator over the free
    module spanned by (row, col, word) keys and row-reduce with exact
    Gaussian-rational arithmetic."""
    def nonzero_entries(op):
        dense = op.clifford.to_dense()
        return [(int(r), int(c), dense[r, c]) for r, c in zip(*np.nonzero(dense))]

    keys = sorted(
        {
            (r, c, i, j, w)
            for op in ops
            for (r, c, _) in nonzero_entries(op)
            for i in range(2)
            for j in range(2)
            for w in dict(op.block.entries[i][j].items())
        }
    )
    index = {key: pos for pos, key in enumerate(keys)}
    rows = []
    for op in ops:
        row = [0j] * len(keys)
        for r, c, value in nonzero_entries(op):
            for i in range(2):
                for j in range(2):
                    for w, coeff in op.block.entries[i][j].items():
                        row[index[(r, c, i, j, w)]] += value * coeff
        rows.append([(Fraction(z.real), Fraction(z.imag)) for z in row])
    # plain Gauss elimination over Q(i)
    rank = 0
    ncols = len(keys)
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != (0, 0)), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pre, pim = rows[rank][col]
        nrm = pre * pre + pim * pim
        for r in range(len(rows)):
            if r == rank or rows[r][col] == (0, 0):
                continue
            are, aim = rows[r][col]
            fre, fim = (are * pre + aim * pim) / nrm, (aim * pre - are * pim) / nrm
            rows[r] = [
                (bre - fre * cre + fim * cim, bim - fre * cim - fim * cre)
                for (bre, bim), (cre, cim) in zip(rows[r], rows[rank])
            ]
        rank += 1
        if rank == len(rows):
            break
    return rank


class TestCentralRank:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_minimal_every_subspace_rank_one(self, models, n):
        rep = central_rank(models(f"minimal:n={n}"))
        assert all(e.rank == 1 for e in rep.entries)

    @pytest.mark.parametrize("n,want", [(2, 1), (3, 2), (4, 1), (5, 2), (6, 1)])
    def test_next_rank_parity_split(self, models, n, want):
        rep = central_rank(models(f"next:n={n}"))
        assert all(e.rank == want for e in rep.entries)

    def test_maximal_all_independent(self, models):
        rep = central_rank(models("maximal:n=4"))
        assert rep.all_independent
        assert all(e.rank == 4 for e in rep.entries)
        assert rep.total_rank == 28

    def test_cl10_dependent_pair_flagged(self, models):
        rep = central_rank(models("n4cl10"))
        by_degree = {e.degree: e for e in rep.entries}
        entry = by_degree["1100"]
        assert entry.rank == 3
        assert entry.rank < 4
        joined = [c for c in entry.classes if len(c) == 2]
        assert joined and set(joined[0]) == {"Z[0100,1000]", "Z[0010,1110]"}
        assert rep.all_independent is False

    def test_cl12_all_independent(self, models):
        rep = central_rank(models("n4cl12"))
        assert rep.all_independent
        assert all(e.rank == 4 for e in rep.entries)

    @pytest.mark.parametrize("sel", ["minimal:n=4", "next:n=4", "next:n=3", "maximal:n=4", "n4cl12", "n4cl10"])
    def test_rank_against_dense_oracle(self, models, sel):
        m = models(sel)
        rep = central_rank(m)
        groups = {}
        for z in m.centrals.values():
            groups.setdefault(str(z.degree), []).append(z)
        for entry in rep.entries:
            assert entry.rank == dense_free_module_rank(groups[entry.degree])

    @pytest.mark.parametrize("sel", ["n4cl10", "n4cl12"])
    def test_total_rank_against_dense_oracle(self, models, sel):
        m = models(sel)
        rep = central_rank(m)
        assert rep.total_rank == dense_free_module_rank(list(m.centrals.values()))

    def test_invariant_rank_bounds(self, models):
        for sel in ("minimal:n=4", "next:n=5", "maximal:n=4", "n4cl10"):
            m = models(sel)
            rep = central_rank(m)
            cap = 1 << (m.spec.n - 2)
            for e in rep.entries:
                assert 1 <= e.rank <= min(e.count, cap)

    def test_report_markdown(self, models):
        md = central_rank(models("n4cl10")).to_markdown()
        assert "dependencies present" in md


def assert_spectrum_matches_dense(model, realization):
    """Oracle: the full Clifford factor x block matrix, diagonalized as one
    complex Hermitian matrix, has the eigenvalues of every reported cluster."""
    h = model.hamiltonian
    dense = np.kron(h.clifford.to_dense(), realize(h.block, realization))
    evals = np.linalg.eigvalsh(dense)
    rep = spectrum(model, realization)
    clusters = [*rep.clusters, *rep.excluded]
    assert sum(c.multiplicity for c in clusters) == len(evals)
    start = 0
    for c in sorted(clusters, key=lambda c: c.value):
        chunk = evals[start : start + c.multiplicity]
        assert np.allclose(chunk, c.value, atol=1e-9)
        start += c.multiplicity


class TestSpectrum:
    def test_minimal_rank3_fock(self, models):
        rep = spectrum(models("minimal:n=3"), FockRealization(8))
        assert rep.ok
        zero = [c for c in rep.clusters if abs(c.value) < 1e-9]
        assert zero[0].multiplicity == 4
        excited = [c for c in rep.clusters if c.value > 1e-9]
        assert [c.multiplicity for c in excited] == [8] * 7
        assert all(abs(c.value - round(c.value)) < 1e-9 for c in rep.clusters)

    def test_next_rank3_fock(self, models):
        rep = spectrum(models("next:n=3"), FockRealization(8))
        assert rep.ok
        assert rep.zero_modes == 8
        excited = [c for c in rep.clusters if c.value > 1e-9]
        assert [c.multiplicity for c in excited] == [16] * 7

    def test_maximal_rank3_fock(self, models):
        rep = spectrum(models("maximal:n=3"), FockRealization(8))
        assert rep.ok
        assert rep.zero_modes == 8
        assert all(c.multiplicity == 16 for c in rep.clusters if c.value > 1e-9)

    def test_multiplicities_partition_dimension(self, models):
        rep = spectrum(models("minimal:n=3"), FockRealization(8))
        counted = sum(c.multiplicity for c in rep.clusters) + sum(
            c.multiplicity for c in rep.excluded
        )
        assert counted == rep.total_dim

    def test_grid_zero_modes(self, models):
        r = GridRealization.from_function(121, 0.1, lambda x: x**3, label="x^3")
        rep = spectrum(models("minimal:n=2"), r)
        assert rep.zero_modes == 2
        assert rep.ok, rep.problems

    def test_dimension_guard(self, models):
        # levels 0..cutoff: a cutoff equal to the budget is one level over it
        with pytest.raises(ValueError, match="reduce the cutoff"):
            spectrum(models("minimal:n=8"), FockRealization(MAX_FOCK_LEVELS))

    @pytest.mark.parametrize("spacing", [0.0, -0.1, float("inf"), float("nan")])
    def test_grid_spacing_must_be_finite_and_positive(self, spacing):
        with pytest.raises(ValueError, match="finite and positive"):
            GridRealization(11, spacing, np.zeros(11))
        with pytest.raises(ValueError, match="finite and positive"):
            GridRealization.from_function(11, spacing, lambda x: x)

    @pytest.mark.parametrize(
        "sel,w,cutoff",
        [pytest.param(sel, None, 6, id=sel) for sel in ("minimal:n=3", "next:n=3", "n4cl10")]
        + [
            pytest.param(sel, None, cutoff, id=f"{sel}-fock{cutoff}")
            for sel in SMALL_SET
            for cutoff in (1, 6)
            if (sel, cutoff) not in {("minimal:n=3", 6), ("next:n=3", 6), ("n4cl10", 6)}
        ]
        + [
            pytest.param(sel, w, None, id=f"{sel}-grid41-{name}")
            for sel in ("minimal:n=2", "next:n=2")
            for name, w in (("x", lambda x: x), ("x^3", lambda x: x**3))
        ],
    )
    def test_block_spectrum_matches_dense_kron(self, models, sel, w, cutoff):
        real = FockRealization(cutoff) if w is None else GridRealization.from_function(41, 0.25, w)
        assert_spectrum_matches_dense(models(sel), real)

    @pytest.mark.parametrize(
        "sel,points,spacing,w",
        [("minimal:n=2", 401, 0.025, lambda x: x**3), ("next:n=3", 101, 0.1, lambda x: x)],
        ids=["minimal:n=2-grid401-x^3", "next:n=3-grid101-x"],
    )
    def test_grid_partner_levels_match_dense_eigvalsh(self, models, sel, points, spacing, w):
        # the squared singular values of L are the eigenvalues of both
        # realized partner entries, and they cluster alike
        grid = GridRealization.from_function(points, spacing, w)
        _, h, _ = canonical_blocks()
        dense = [np.linalg.eigvalsh(realize(h.entries[i][i], grid).real) for i in range(2)]
        top = dense[0][-1]
        for levels, want in zip(grid.partner_levels(), dense):
            assert np.sort(levels) == pytest.approx(want, rel=1e-9, abs=1e-9 * top)
        rep = spectrum(models(sel), grid)
        got = [*rep.clusters, *rep.excluded]
        want = _cluster(np.sort(np.concatenate(dense)), GRID_CLUSTER_TOL, models(sel).clifford_dim)
        assert len(got) == len(want) > 10
        assert [c.multiplicity for c in got] == [c.multiplicity for c in want]
        for g, c in zip(got, want):
            assert g.value == pytest.approx(c.value, rel=1e-9, abs=1e-9 * top)

    @pytest.mark.parametrize("kind", ["complex", "doubled"])
    @pytest.mark.parametrize("grid", [False, True], ids=["fock", "grid"])
    def test_refuses_a_non_canonical_hamiltonian_block(self, models, monkeypatch, kind, grid):
        # Ad A + i(A - Ad) is Hermitian but complex; 2 Ad A is balanced with
        # integer levels.  Neither block is a monomial, so the model refuses
        # both where it is made.  A monomial that is not the canonical block
        # reaches the spectrum, which refuses it before any ladder matrix,
        # realized entry or SVD.
        def refuse(*args, **kwargs):
            pytest.fail("the spectrum built a matrix for a non-canonical Hamiltonian")

        m = models("minimal:n=2")
        a, ad = WordSum.letter(LOWER), WordSum.letter(RAISE)
        e = m.hamiltonian.block.entries
        entry = e[0][0] + (a - ad) * 1j if kind == "complex" else e[0][0] * 2
        block = SqmBlock([[entry, e[0][1]], [e[1][0], e[1][1]]])
        with pytest.raises(ValueError, match="not a monomial"):
            with_hamiltonian_block(m, block)
        real = GridRealization.from_function(41, 0.25, lambda x: x) if grid else FockRealization(6)
        monkeypatch.setattr("graded_sqm.sqm_block.realize", refuse)
        monkeypatch.setattr(FockRealization, "realize_entry", refuse)
        monkeypatch.setattr(GridRealization, "realize_entry", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(GridRealization, "_lowering", property(refuse))
        monkeypatch.setattr(GridRealization, "_raising", property(refuse))
        monkeypatch.setattr(FockRealization, "partner_levels", refuse)
        for broken in monomial_non_canonical_hamiltonians(m):
            with pytest.raises(ValueError, match=r"not diag\(Ad A, A Ad\)"):
                spectrum(broken, real)

    def test_requires_identity_hamiltonian_factor(self, models):
        m = models("minimal:n=3")
        h = replace(m.hamiltonian, clifford=gamma(1, m.hamiltonian.clifford.m))
        broken = Model(m.spec, m.odd_degrees, h, m.supercharges, m.centrals)
        with pytest.raises(ValueError, match="not the identity"):
            spectrum(broken, FockRealization(4))

    def test_requires_diagonal_hamiltonian_block(self, models):
        # the off-diagonal monomials Q and Q S, like the diagonal i Q Q, S Q Q
        # and -Q Q, make a model, and the spectrum refuses each of them
        m = models("minimal:n=3")
        q, _, s = canonical_blocks()
        off_diagonal = [with_hamiltonian_block(m, block) for block in (q, q @ s)]
        for broken in off_diagonal + monomial_non_canonical_hamiltonians(m):
            with pytest.raises(ValueError, match=r"not diag\(Ad A, A Ad\)"):
                spectrum(broken, FockRealization(4))

    def test_grid_spectrum_decomposes_each_ladder_matrix_once(self, models, monkeypatch):
        # one SVD of the lowering matrix per instance gives both partner
        # spectra and both kernels: no eigensolve and no realized entry
        shapes = []
        svd = np.linalg.svd

        def counted(mat, *args, **kwargs):
            shapes.append(mat.shape)
            return svd(mat, *args, **kwargs)

        def refuse(*args, **kwargs):
            pytest.fail("the grid spectrum ran an eigensolve or realized an entry")

        monkeypatch.setattr(np.linalg, "svd", counted)
        for name in ("eigvalsh", "eigh", "eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(GridRealization, "realize_entry", refuse)
        grid = GridRealization.from_function(41, 0.25, lambda x: x**3)
        rep = spectrum(models("minimal:n=2"), grid)
        assert rep.ok and rep.zero_modes == 2 and rep.artifact_modes == 2
        assert shapes == [(41, 41)]
        # the filtered and the raw kernels and a second spectrum all read the cache
        assert [len(k) for k in grid.raw_kernel_pair()] == [1, 1]
        assert [len(k) for k in grid.kernel_pair()] == [1, 0]
        assert spectrum(models("next:n=2"), grid).ok
        assert shapes == [(41, 41)]


def orbit_sizes_bfs(model) -> tuple[int, ...]:
    """Independent oracle: breadth-first walk over the dense nonzero pattern
    of every supercharge."""
    cliffdim = model.clifford_dim
    adj = {i: set() for i in range(2 * cliffdim)}
    for q in model.supercharges.values():
        dense = q.clifford.to_dense()
        rows, cols = np.nonzero(dense)
        for r, c in zip(rows, cols):
            for i, j in ((0, 1), (1, 0)):
                adj[2 * int(r) + i].add(2 * int(c) + j)
                adj[2 * int(c) + j].add(2 * int(r) + i)
    seen, sizes = set(), []
    for start in range(2 * cliffdim):
        if start in seen:
            continue
        frontier, comp = [start], set()
        while frontier:
            node = frontier.pop()
            if node in comp:
                continue
            comp.add(node)
            frontier.extend(adj[node] - comp)
        seen |= comp
        sizes.append(len(comp))
    return tuple(sorted(sizes, reverse=True))


class TestOrbits:
    @pytest.mark.parametrize(
        "n,want",
        [(2, (4, 4)), (3, (16,)), (4, (16, 16)), (5, (64,))],
    )
    def test_next_family(self, models, n, want):
        rep = orbit_decomposition(models(f"next:n={n}"))
        assert rep.component_sizes == want

    def test_maximal_rank3_single_orbit(self, models):
        rep = orbit_decomposition(models("maximal:n=3"))
        assert rep.component_sizes == (16,)

    @pytest.mark.parametrize(
        "sel", ["next:n=2", "next:n=3", "maximal:n=3", "minimal:n=3", "n4cl10", "n4cl12"]
    )
    def test_against_bfs_oracle(self, models, sel):
        m = models(sel)
        assert orbit_decomposition(m).component_sizes == orbit_sizes_bfs(m)

    @pytest.mark.parametrize("sel", ["next:n=2", "next:n=3", "next:n=4", "maximal:n=3"])
    def test_invariant_under_reversed_ordering(self, models, sel):
        from graded_sqm.models import ModelSpec, build

        fwd = orbit_decomposition(models(sel))
        spec = ModelSpec.parse(sel, ordering="reversed")
        rev = orbit_decomposition(build(spec))
        assert sorted(fwd.component_sizes) == sorted(rev.component_sizes)


def block_pattern(block: SqmBlock) -> tuple[int, int]:
    """Quotient-group class of a single-word 2x2 block, modulo phase: whether
    it is antidiagonal, and the relative sign of its two nonzero entries."""
    e = block.entries
    anti = int(e[0][0].is_zero())
    pair = (e[0][1], e[1][0]) if anti else (e[0][0], e[1][1])
    (_, top), (_, bottom) = (next(iter(ws.items())) for ws in pair)
    assert all(len(list(ws.items())) == 1 for ws in pair) and top / bottom in (1, -1)
    return anti, int(top / bottom == -1)


def generated_count_bfs(model) -> int:
    """Independent oracle: breadth-first closure over the dense Clifford
    factors, each taken up to phase by dividing out its first nonzero
    entry, paired with the XOR-composed block patterns."""

    def key(mat, pattern):
        flat = mat.ravel()
        unit = flat[np.flatnonzero(flat)[0]]
        norm = mat * np.conj(unit)  # unit entries stay exact
        return norm.real.astype(np.int8).tobytes(), norm.imag.astype(np.int8).tobytes(), pattern

    gens = [(q.clifford.to_dense(), block_pattern(q.block)) for q in model.supercharges.values()]
    start = (np.eye(model.clifford_dim, dtype=complex), (0, 0))
    seen = {key(*start)}
    frontier = [start]
    while frontier:
        new = []
        for mat, pat in frontier:
            for gmat, gpat in gens:
                cand = (mat @ gmat, (pat[0] ^ gpat[0], pat[1] ^ gpat[1]))
                k = key(*cand)
                if k not in seen:
                    seen.add(k)
                    new.append(cand)
        frontier = new
    return len(seen)


class TestGeneratedOperators:
    @pytest.mark.parametrize(
        "sel,want",
        [
            ("minimal:n=2", 4),
            ("minimal:n=3", 8),
            ("minimal:n=4", 16),
            ("next:n=2", 4),
            ("next:n=3", 16),
            ("next:n=4", 16),
            ("maximal:n=2", 4),
            ("maximal:n=3", 16),
            ("maximal:n=4", 256),
            ("n5cl28", 65536),
            ("n5cl26", 65536),
        ],
    )
    def test_counts(self, models, sel, want):
        assert count_generated_operators(models(sel)) == want

    @pytest.mark.parametrize(
        "sel", ["minimal:n=3", "minimal:n=4", "next:n=3", "next:n=4", "maximal:n=4", "n4cl10", "n4cl12"]
    )
    def test_against_bfs_oracle(self, models, sel):
        m = models(sel)
        assert count_generated_operators(m) == generated_count_bfs(m)


class TestMaximalPastTheDenseRange:
    """maximal:n=6 and n=7 act on 31 and 63 qubits, out of any dense
    oracle's reach, so the exact checks are pinned to the closed-form counts."""

    @pytest.mark.parametrize("n,centrals,count", [(6, 496, 1 << 32), (7, 2016, 1 << 64)])
    def test_checks_ranks_orbits_and_counts(self, models, n, centrals, count):
        m = models(f"maximal:n={n}")
        assert check_defining_relations(m).overall
        cen = check_centrality(m)
        assert cen.overall and len(cen.centrality_results) == 1 + centrals
        rep = central_rank(m)
        assert (rep.total_rank, rep.total_count, rep.all_independent) == (centrals, centrals, True)
        nq = len(m.supercharges)
        assert len(rep.entries) == nq - 1 and {e.rank for e in rep.entries} == {nq // 2}
        assert count_generated_operators(m) == count
        orbits = orbit_decomposition(m)
        assert orbits.num_nodes == 2 * m.clifford_dim == 1 << nq
        assert orbits.component_sizes == (1 << nq,)

    def test_single_site_mutations_detected(self, models):
        rng = np.random.default_rng(20261018)
        model = models("maximal:n=6")
        for _ in range(6):
            broken = mutate_model(model, rng)
            assert not (check_defining_relations(broken).overall and check_centrality(broken).overall)
