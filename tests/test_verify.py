import csv
import importlib.util
import itertools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from graded_sqm import operators
from graded_sqm.cli import main, make_grid_realization
from graded_sqm.clifford import PHASES, PauliOperator, gamma, proportional
from graded_sqm.grading import (
    ANTICOMMUTATOR,
    COMMUTATOR,
    DegreeVector,
    bracket_kind,
    dot,
)
from graded_sqm.models import CENTRAL, HAMILTONIAN, SUPERCHARGE, Model, fold, product, split
from graded_sqm.operators import TensorSum, TensorTerm, graded_bracket_terms, read_records
from graded_sqm.realizations import (
    GRID_CLUSTER_TOL,
    KERNEL_REL_TOL,
    MAX_FOCK_LEVELS,
    MAX_SPECTRUM_BYTES,
    FockRealization,
    GridRealization,
    _cluster,
    _is_smooth,
    check_grid,
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
    DegreeRankEntry,
    PairCheck,
    RankReport,
    RelationReport,
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
    """The first non-cancelling group of each centrality row's bracket."""
    ops = {op.label(): op for op in model.operators()}
    return [first_group(graded_bracket_terms(ops[p.left], ops[p.right])) for p in rows]


def per_left_rows(model: Model, cen) -> list[PairCheck]:
    """The centrality rows of the schemas that wrote one row per left
    operator, rebuilt from the failing rows: each left operator's failing
    rows in check order, or one passing row that names its partners."""
    nq, nz = len(model.q), len(model.z)
    failing: dict[str, list[PairCheck]] = {}
    for p in cen.centrality_results:
        failing.setdefault(p.left, []).append(p)
    rows = []
    for k, left in enumerate(["H", *_labels(model, centrals=True)[nq:]]):
        right = f"{nq} supercharges and {nz - k} later central elements"
        rows += failing.get(left) or [PairCheck(left, right, "graded", True)]
    return rows


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
        # the first failing row leads the first group's rows in full
        row = rel.to_dict()["pair_results"][1]["first"][0]
        assert (row["left"], row["right"]) == ("Q[001]", "Q[010]")
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

    @pytest.mark.parametrize(
        "sel",
        [
            *(f"{family}:n={n}" for n in (3, 4) for family in ("minimal", "next", "maximal")),
            "n4cl10", "n4cl12", "n5cl26", "n5cl28", "minimal:n=5", "next:n=5",
        ],
    )
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

    def test_operators_on_two_qubit_counts_are_refused(self, models):
        # minimal:n=3 and next:n=3 share their degrees but not their qubit count
        small, large = models("minimal:n=3"), models("next:n=3")
        with pytest.raises(ValueError, match=r"^dimension mismatch: 4 vs 8$"):
            Model(small.spec, small.odd_degrees, large.hamiltonian, small.supercharges, small.centrals)

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

    @pytest.mark.parametrize("sel,ordering", TABLE_SPECS)
    def test_views_follow_their_keys_not_the_objects_passed(self, sel, ordering):
        # a model keeps only the records of the operators it is made from, so
        # each view's degree, role and pair are its key's, whatever the object
        # under that key says
        model, degrees, charges, cents = self.parts(sel, ordering)
        other = dict(zip(degrees, degrees[1:] + degrees[:1]))
        hamiltonian = replace(model.hamiltonian, degree=degrees[0], role=SUPERCHARGE)
        charges = {a: replace(op, degree=other[a], role=CENTRAL) for a, op in charges.items()}
        cents = {
            (a, b): replace(op, degree=a, role=SUPERCHARGE, pair=(b, a)) for (a, b), op in cents.items()
        }
        again = Model(model.spec, degrees, hamiltonian, charges, cents)
        h = again.hamiltonian
        assert (h.degree, h.role, h.pair) == (model.hamiltonian.degree, HAMILTONIAN, None)
        for a, op in again.supercharges.items():
            assert (op.degree, op.role, op.pair) == (a, SUPERCHARGE, None), a
        for (a, b), op in again.centrals.items():
            assert (op.degree, op.role, op.pair) == (a + b, CENTRAL, (a, b)), (a, b)
        assert [op.label() for op in again.operators()] == [op.label() for op in model.operators()]

    @pytest.mark.parametrize("sel,ordering", TABLE_SPECS)
    def test_a_reused_central_is_labelled_by_its_key(self, sel, ordering):
        # each stored Z_ab under the key (b, a) of the reversed degree order:
        # both orientations are labelled as asked
        model, degrees, charges, cents = self.parts(sel, ordering)
        again = Model(
            model.spec, degrees[::-1], model.hamiltonian, charges,
            {(b, a): z for (a, b), z in cents.items()},
        )
        for a, b in cents:
            for pair in ((a, b), (b, a)):
                z = again.central(*pair)
                assert (z.label(), z.pair) == (f"Z[{pair[0]},{pair[1]}]", pair)


def load_fold_script():
    """scripts/fold_report.py, which rewrites a report of an earlier schema."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "fold_report.py"
    spec = importlib.util.spec_from_file_location("fold_report", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def per_pair_document(model, rel, cen, rank) -> dict:
    """A verify report in the per-pair schema: every ordered pair's row, one
    centrality row per left operator (:func:`per_left_rows`), and every rank
    entry's element labels with all its classes."""
    def section(rep, pairs, centrality):
        return {
            "model": rep.model, "check": rep.check, "overall": rep.overall,
            "pair_results": [p._asdict() for p in pairs],
            "centrality_results": [p._asdict() for p in centrality],
        }

    return {
        "defining_relations": section(rel, rel.pair_results, ()),
        "centrality": section(cen, (), per_left_rows(model, cen)),
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


def per_operator_document(model, rel, cen, rank) -> dict:
    """The same report in the per-operator schema: one passing relation row
    per supercharge whose pairs all hold, or its failing pairs, and every rank
    entry's count with all its classes."""
    doc = per_pair_document(model, rel, cen, rank)
    rows = []
    for left, run in itertools.groupby(rel.pair_results, lambda p: p.left):
        run = list(run)
        bad = [p._asdict() for p in run if not p.ok]
        passing = {"kind": "graded", "left": left, "ok": True, "residual": None, "right": f"{len(run)} supercharges"}
        rows += bad or [passing]
    doc["defining_relations"]["pair_results"] = rows
    doc["rank"]["entries"] = [
        {"classes": e.classes, "count": e.count, "degree": e.degree, "rank": e.rank} for e in rank.entries
    ]
    return doc


def current_document(model, rel, cen, rank) -> dict:
    """The report in the current schema, as the library's reports write it."""
    return {"defining_relations": rel.to_dict(), "centrality": cen.to_dict(), "rank": rank.to_dict()}


def per_row_document(model, rel, cen, rank) -> dict:
    """The same report in the per-row schema: the rank as now, and in each
    check section the count row, then one row per failing bracket."""
    doc = current_document(model, rel, cen, rank)
    for name, rep in (("defining_relations", rel), ("centrality", cen)):
        pairs, centrality = rep.written_rows()
        doc[name]["pair_results"] = [p._asdict() for p in pairs]
        doc[name]["centrality_results"] = [p._asdict() for p in centrality]
    return doc


def classes_of_two_document(model, rel, cen, rank) -> dict:
    """The same report in the classes-of-two schema: the check sections as
    in the per-row one, and every rank entry's classes of two or more labels
    only."""
    doc = per_row_document(model, rel, cen, rank)
    doc["rank"]["entries"] = [
        {"classes": [c for c in e.classes if len(c) > 1], "count": e.count, "degree": e.degree, "rank": e.rank}
        for e in rank.entries
    ]
    return doc


def degree_labels(model: Model) -> dict[str, list[str]]:
    """Each degree's central labels, in model order, read from the operator views."""
    labels: dict[str, list[str]] = {}
    for z in model.centrals.values():
        labels.setdefault(str(z.degree), []).append(z.label())
    return labels


def written_partition(written: dict, labels: list[str]) -> set[frozenset[str]]:
    """The proportionality classes of a degree rebuilt from its JSON rank
    entry: the listed classes, then the degree's other labels as one class,
    or each as a class of its own when rank == count."""
    classes = [frozenset(c) for c in written["classes"]]
    rest = set(labels).difference(*classes)
    if written["rank"] == written["count"]:
        return {*classes, *(frozenset([label]) for label in rest)}
    return {*classes, frozenset(rest)}


def assert_groups_partition(rep, groups: list[dict]) -> int:
    """The groups of a JSON check section are a lossless, ordered partition
    of the report's failing rows; returns the number of pairs (a, b) whose
    (b, a) also fails, each of which the partition keeps in one group.  A
    group of at most three rows names its partners by its rows in full only."""
    bad = rep.failures()
    place = {(p.left, p.right): k for k, p in enumerate(bad)}
    part = Counter(op for p in bad for op in {p.left, p.right})
    group_of: dict[int, int] = {}
    for g, group in enumerate(groups):
        op = group["operator"]
        if group["count"] <= 3:
            assert sorted(group) == ["count", "first", "operator"]
            rows = [place[row["left"], row["right"]] for row in group["first"]]
            assert op in {bad[k].left for k in rows} | {bad[k].right for k in rows}
        else:
            assert sorted(group) == ["count", "first", "left_of", "operator", "right_of"]
            # the partners of each orientation in check order
            left_of = [place[op, right] for right in group["left_of"]]
            right_of = [place[left, op] for left in group["right_of"]]
            assert left_of == sorted(left_of) and right_of == sorted(right_of)
            rows = sorted(left_of + right_of)
        assert group["count"] == len(rows) > 0
        # its first three rows in full, residuals included
        assert group["first"] == [bad[k]._asdict() for k in rows[:3]]
        for k in rows:
            assert k not in group_of, (op, bad[k])
            group_of[k] = g
            # the operator of the two that takes part in more failing rows
            assert part[op] >= part[bad[k].right if bad[k].left == op else bad[k].left]
    # every failing pair exactly once, in groups ordered by their first rows
    assert sorted(group_of) == list(range(len(bad)))
    assert list(dict.fromkeys(group_of[k] for k in range(len(bad)))) == list(range(len(groups)))
    pairs = [(k, place[p.right, p.left]) for k, p in enumerate(bad) if (p.right, p.left) in place]
    assert all(group_of[k] == group_of[j] for k, j in pairs)
    return len(pairs)


MUTATION_KINDS = ["q-times-i", "z-times-minus-1", "q-factor", "z-times-q"]
SMALL_TABLE_MODELS = [sel for sel in TABLE_MODELS if int(sel[-1] if ":" in sel else sel[1]) <= 4]


class TestFoldedReports:
    """A report writes, in each check section, one passing row that counts
    the left operators whose brackets all hold, then the failing rows grouped
    by the operator they share, and every rank class of an entry but its
    largest; the library reports keep every ordered pair, the failing
    centrality brackets and every class."""

    @pytest.mark.parametrize("sel,ordering", TABLE_SPECS)
    def test_a_passing_model_keeps_every_pair_and_no_centrality_row(self, sel, ordering):
        model = TestRecordsAreTheModel.build(sel, ordering)
        n, nz = len(model.q), len(model.z)
        rel, cen = check_defining_relations(model), check_centrality(model)
        # the benchmark's tracer replays every ordered pair against these
        assert len(rel.pair_results) == n * n
        assert cen.centrality_results == () and cen.overall
        # every model stores one central element per pair of supercharges,
        # and the report's counts come from N, which the JSON leaves out
        assert rel.supercharges == cen.supercharges == n and nz == n * (n - 1) // 2
        assert (rel.brackets(), cen.brackets()) == (n * n, (1 + nz) * n + nz + nz * (nz - 1) // 2)
        assert "supercharges" not in rel.to_dict() and "supercharges" not in cen.to_dict()
        # the per-left rows of the earlier schemas: one passing row per left operator
        rows = per_left_rows(model, cen)
        assert [p.left for p in rows] == ["H", *_labels(model, centrals=True)[n:]]
        assert rows[0].right == f"{n} supercharges and {nz} later central elements"
        rank = central_rank(model)
        assert sum(len(c) for e in rank.entries for c in e.classes) == nz

    @pytest.mark.parametrize("sel", TABLE_MODELS)
    def test_a_passing_model_writes_one_row_per_section(self, models, capsys, sel):
        model = models(sel)
        n, nz = len(model.q), len(model.z)
        relations = ["defining-relations", f"{n} of {n} supercharges", f"{n} supercharges", "graded", "pass", ""]
        centrality = [
            "centrality", f"H and {nz} of {nz} central elements",
            f"{n} supercharges and every later central element", "graded", "pass", "",
        ]
        assert main(["verify", "--model", sel, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for name, key, row in (("defining_relations", "pair_results", relations), ("centrality", "centrality_results", centrality)):
            section = doc[name]
            assert section[key] == [{"kind": "graded", "left": row[1], "ok": True, "residual": None, "right": row[2]}]
            assert section["pair_results" if key == "centrality_results" else "centrality_results"] == []
        assert main(["verify", "--model", sel, "--format", "csv"]) == 0
        table = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert table[1:] == [relations, centrality]

    @pytest.mark.parametrize("kind", [*MUTATION_KINDS, "random"])
    def test_a_mutated_model_writes_its_failures(self, models, kind):
        # "random" is the seeded mutate_model trials
        both_orientations = 0
        for sel in SMALL_TABLE_MODELS:
            for seed in range(10):
                if kind == "random":
                    broken = mutate_model(models(sel), np.random.default_rng(seed))
                else:
                    broken = mutate_like_bench(models(sel), kind, random.Random(f"{seed}:{sel}:{kind}"))
                rel, cen = check_defining_relations(broken), check_centrality(broken)
                assert not (rel.overall and cen.overall), (sel, seed)
                assert len(rel.pair_results) == len(broken.q) ** 2
                n, nz = len(broken.q), len(broken.z)
                for rep, key in ((rel, "pair_results"), (cen, "centrality_results")):
                    rows = rep.to_dict()[key]
                    # the failing rows as the checks found them, grouped
                    both_orientations += assert_groups_partition(rep, rows[1:])
                    failed = {p.left for p in rep.failures()}
                    first = rows[0]
                    assert (first["kind"], first["ok"], first["residual"]) == ("graded", True, None)
                    if rep is rel:
                        passed = n - len(failed)
                        assert (first["left"], first["right"]) == (f"{passed} of {n} supercharges", f"{n} supercharges")
                    else:
                        passed = nz - len(failed - {"H"})
                        h = "" if "H" in failed else "H and "
                        assert first["left"] == f"{h}{passed} of {nz} central elements", (sel, seed)
                        assert first["right"] == f"{n} supercharges and every later central element"
                rank = central_rank(broken)
                assert len(rank.entries) == len(rank.to_dict()["entries"])
                labels = degree_labels(broken)
                for entry, written in zip(rank.entries, rank.to_dict()["entries"]):
                    assert sorted(written) == ["classes", "count", "degree", "rank"]
                    assert (written["degree"], written["count"], written["rank"]) == entry[:3]
                    # every class but the first largest, which holds the labels
                    # the report leaves out; none when every class is one label
                    if entry.rank == entry.count:
                        assert written["classes"] == []
                    else:
                        assert len(written["classes"]) == written["rank"] - 1
                        largest = max(entry.classes, key=len)
                        assert written["classes"] == [c for c in entry.classes if c is not largest]
                    assert written_partition(written, labels[entry.degree]) == set(map(frozenset, entry.classes))
                    assert sorted(label for c in entry.classes for label in c) == sorted(labels[entry.degree])
        # some pair failed in both orientations, and its two rows made one group
        assert both_orientations > 0

    def test_a_tied_row_joins_the_earlier_group(self):
        # a and b each take part in three failing rows, and each heads a group
        # when (a, b) comes: it joins a's, the earlier, and so does (b, a)
        a, b, c, d = "Q[00]", "Q[01]", "Q[10]", "Q[11]"
        rows = [PairCheck(x, y, "anticommutator", False, x + y) for x, y in ((a, c), (b, d), (a, b), (b, a))]
        groups = RelationReport("m", "defining-relations", 4, pair_results=tuple(rows)).to_dict()["pair_results"][1:]
        assert groups == [
            {"operator": a, "count": 3, "first": [rows[k]._asdict() for k in (0, 2, 3)]},
            {"operator": b, "count": 1, "first": [rows[1]._asdict()]},
        ]

    def test_only_a_group_of_more_than_three_rows_lists_its_partners(self):
        # a group of at most three rows writes them all in full, which name
        # every partner; from four rows on, the partner lists name the rest
        a, b, c, d, e = "Q[000]", "Q[001]", "Q[010]", "Q[011]", "Q[100]"
        pairs = ((a, b), (c, a), (a, d), (e, a))
        rows = [PairCheck(x, y, "anticommutator", False, x + y) for x, y in pairs]
        for k in (1, 2, 3, 4):
            rep = RelationReport("m", "defining-relations", 5, pair_results=tuple(rows[:k]))
            (group,) = rep.to_dict()["pair_results"][1:]
            assert (group["operator"], group["count"]) == (a, k)
            assert group["first"] == [p._asdict() for p in rows[: min(k, 3)]]
            if k <= 3:
                assert sorted(group) == ["count", "first", "operator"]
            else:
                assert (group["left_of"], group["right_of"]) == ([b, d], [c, e])
            assert_groups_partition(rep, [group])

    @pytest.mark.parametrize("kind", [*MUTATION_KINDS, "random"])
    def test_a_failing_row_names_the_bracket_of_its_degrees(self, models, kind):
        # the kind column of every failing row of both checks is the bracket
        # that grading.bracket_kind gives the two operators' degrees, read
        # from the model's views by label (H has degree 0); "random" is the
        # seeded mutate_model trials
        failing = {"defining-relations": 0, "centrality": 0}
        for sel in SMALL_TABLE_MODELS:
            for seed in range(4):
                if kind == "random":
                    broken = mutate_model(models(sel), np.random.default_rng(seed))
                else:
                    broken = mutate_like_bench(models(sel), kind, random.Random(f"{seed}:{sel}:{kind}"))
                degree = {op.label(): op.degree for op in broken.operators()}
                assert degree["H"].mask == 0
                for rep in (check_defining_relations(broken), check_centrality(broken)):
                    for p in rep.failures():
                        assert p.kind == bracket_kind(degree[p.left], degree[p.right]), (sel, seed, p)
                    failing[rep.check] += len(rep.failures())
        assert failing["defining-relations"] > 0
        # a phase or a sign breaks the defining relations alone
        assert failing["centrality"] > 0 or kind in ("q-times-i", "z-times-minus-1")

    @pytest.mark.parametrize("kind", [None, *MUTATION_KINDS])
    def test_the_fold_script_turns_the_unfolded_schema_into_the_report(self, models, kind):
        fold = load_fold_script().fold
        for sel in SMALL_TABLE_MODELS:
            for seed in range(3 if kind else 1):
                model = models(sel)
                if kind:
                    model = mutate_like_bench(model, kind, random.Random(f"{seed}:{sel}:{kind}"))
                rel, cen, rank = check_defining_relations(model), check_centrality(model), central_rank(model)
                report = current_document(model, rel, cen, rank)
                # a current report folds into itself
                for earlier in (
                    per_pair_document, per_operator_document, classes_of_two_document, per_row_document, current_document,
                ):
                    folded = fold(json.loads(json.dumps(earlier(model, rel, cen, rank))))
                    assert json.dumps(folded, indent=2, sort_keys=True) == json.dumps(
                        report, indent=2, sort_keys=True
                    ), (sel, seed, earlier.__name__)

    @pytest.mark.parametrize("sel", TABLE_MODELS)
    def test_the_fold_script_turns_a_classes_of_two_report_into_the_cli_report(self, models, capsys, sel):
        # the benchmark's verify calls: --rank --orbits --counts on the ladder,
        # --rank --orbits on the two wide models
        flags = ["--rank", "--orbits", *(() if sel.startswith("n5") else ("--counts",))]
        assert main(["verify", "--model", sel, *flags, "--format", "json"]) == 0
        out = capsys.readouterr().out
        model = models(sel)
        rel, cen, rank = check_defining_relations(model), check_centrality(model), central_rank(model)
        for earlier in (classes_of_two_document, current_document):
            doc = json.loads(out)
            doc["rank"] = earlier(model, rel, cen, rank)["rank"]
            folded = load_fold_script().fold(doc)
            assert json.dumps(folded, indent=2, sort_keys=True) + "\n" == out, earlier.__name__

    @pytest.mark.parametrize(
        "shape,written",
        # classes as indices into the 8 labels of a next:n=5 degree, and the
        # classes a JSON entry writes: every one but the first largest, with
        # ties and singletons ahead of a listed class
        [
            ([(0, 3, 6), (1, 4, 7), (2,), (5,)], [(1, 4, 7), (2,), (5,)]),
            ([(0,), (1, 2), (3, 4), (5,), (6, 7)], [(0,), (3, 4), (5,), (6, 7)]),
            ([(0, 7), (1,), (2, 6), (3, 4, 5)], [(0, 7), (1,), (2, 6)]),
            ([(0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)], []),
        ],
    )
    def test_the_fold_script_puts_classes_in_order_of_first_appearance(self, models, shape, written):
        degree, labels = next(iter(degree_labels(models("next:n=5")).items()))
        classes = tuple(tuple(labels[k] for k in c) for c in shape)
        report = RankReport("next:n=5", (DegreeRankEntry(degree, 8, len(classes), classes),), 8, None, None)
        current = json.loads(json.dumps(report.to_dict()))
        assert current["entries"][0]["classes"] == [[labels[k] for k in c] for c in written]
        two = {**current, "entries": [{**current["entries"][0], "classes": [c for c in classes if len(c) > 1]}]}
        for earlier in (two, current):
            assert json.loads(json.dumps(load_fold_script().fold_rank(earlier))) == current

    def test_the_fold_script_turns_the_classes_of_two_golden_into_the_golden(self, capsys):
        golden = Path(__file__).parent / "golden"
        assert load_fold_script().main([str(golden / "verify_minimal_n3_rank_orbits_counts_classes_of_two.json")]) == 0
        assert capsys.readouterr().out == (golden / "verify_minimal_n3_rank_orbits_counts.json").read_text()

    def test_the_fold_script_groups_a_per_row_mutant_report(self, capsys, tmp_path):
        # bench/mutants.py next:n=5 z-times-q at seed 1, written in the
        # per-row schema: one row per failing bracket
        golden = Path(__file__).parent / "golden" / "mutant_next_n5_z_times_q_seed1_per_row.json"
        root = Path(__file__).resolve().parents[1]
        out = tmp_path / "mutant.json"
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        argv = [sys.executable, str(root / "bench" / "mutants.py"), "next:n=5", "z-times-q", "1", str(out)]
        subprocess.run(argv, env=env, check=True)
        assert load_fold_script().main([str(golden)]) == 0
        folded = capsys.readouterr().out
        assert folded == out.read_text()
        doc = json.loads(folded)
        assert len(folded) < len(golden.read_text()) // 3 and doc["detected"]
        # a current report folds into itself
        assert load_fold_script().main([str(out)]) == 0
        assert capsys.readouterr().out == folded
        # the same call in the all-partners schema, where its group of two
        # failing relations lists the partners that its two rows name
        grouped = golden.with_name("mutant_next_n5_z_times_q_seed1_grouped.json")
        assert load_fold_script().main([str(grouped)]) == 0
        assert capsys.readouterr().out == folded
        assert [g["count"] for g in doc["defining_relations"]["pair_results"][1:]] == [2]
        assert len(folded) < len(grouped.read_text())

    def test_the_fold_script_refuses_classes_that_do_not_add_up(self):
        # degree 011 of minimal:n=3 holds two labels, which make one class or two
        entry = {"classes": [], "count": 2, "degree": "011", "rank": 3}
        with pytest.raises(ValueError, match="2 labels left out cannot make 3 classes"):
            load_fold_script().fold_classes("minimal:n=3", entry, 2)

    @pytest.mark.parametrize(
        "sel,ordering", [*TABLE_SPECS, ("next:n=7", "default"), ("next:n=8", "default"), ("minimal:n=7", "default")]
    )
    def test_a_json_rank_entry_is_its_partition(self, sel, ordering):
        # the listed classes and the degree's other labels, as one class or as
        # singletons when rank == count, are the classes central_rank found
        model = TestRecordsAreTheModel.build(sel, ordering)
        rank = central_rank(model)
        labels = degree_labels(model)
        written = rank.to_dict()["entries"]
        assert [e["degree"] for e in written] == [e.degree for e in rank.entries]
        for entry, w in zip(rank.entries, written):
            assert written_partition(w, labels[entry.degree]) == set(map(frozenset, entry.classes)), entry.degree
            assert len(w["classes"]) == (entry.rank - 1 if entry.rank < entry.count else 0)


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
        # H x (Q, Z), Z x Q and Z_i x Z_j for i < j, each listed once, in order.
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

            # the failing pairs, left operator by left operator, in order
            nq = len(m.supercharges)
            rows = [
                (ops[i].label(), ops[j].label(), False)
                for i in [0, *range(1 + nq, len(ops))]
                for j in range(len(ops))
                if (1 <= j <= nq or j > i) and not want[i][j]
            ]
            rep = check_centrality(m)
            assert [(p.left, p.right, p.ok) for p in rep.centrality_results] == rows
            rows = rep.centrality_results
            assert_residuals_match(rows, centrality_groups(m, rows))
            if m is model:
                assert rep.centrality_results == () and rep.overall

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


def capture_eigh(monkeypatch) -> list[np.ndarray]:
    """The matrices that np.linalg.eigh is called on from now on, each
    solved as before."""
    solved, eigh = [], np.linalg.eigh

    def counted(mat, *args, **kwargs):
        solved.append(np.array(mat))
        return eigh(mat, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return solved


def svd_decompose(grid: GridRealization) -> tuple:
    """Oracle: the levels s^2, the ladder kernels and the raw ones of a grid
    from one dense SVD L = U s V^T of its lowering matrix: the rows of V^T
    and the columns of U whose s is at or below the kernel threshold span
    the kernels of L and L^T."""
    u, s, vt = np.linalg.svd(grid.lowering_matrix())
    null = s <= KERNEL_REL_TOL * s[0]
    raw = list(vt[null]), list(u.T[null])
    smooth = tuple([v for v in k if _is_smooth(v)] for k in raw)
    return s * s, smooth, raw


# the superpotentials of the grid verdicts (ROADMAP item 7), and x^3 as a
# table that vanishes on every even or every odd site
ORACLE_W = ["x", "-x", "x+1", "x^3", "x^3+x^2", "x^4", "x^2-4", "2x^3-x", "x^5", "x^3 odd sites", "x^3 even sites"]


def oracle_grid(w: str, points: int = 201, spacing: float = 0.05) -> GridRealization:
    """The CLI's grid of a polynomial W, or of a table: W on the named
    sublattice and 0 on the other."""
    poly, _, sites = w.partition(" ")
    grid = make_grid_realization(points, spacing, poly)
    if not sites:
        return grid
    values = np.array(grid.w_values)
    values[0 if sites == "odd sites" else 1 :: 2] = 0.0
    return GridRealization(points, spacing, values, label="table")


class TestGridEigensolve:
    """The grid decomposes S = L C, with C the checkerboard diag((-1)^j),
    and agrees with the dense SVD of L that it replaces."""

    @pytest.mark.parametrize("w", ["x^3", "x^2-4", "x^3 odd sites", "x^3 even sites"])
    def test_the_checkerboard_makes_the_lowering_matrix_symmetric(self, monkeypatch, w):
        grid = oracle_grid(w)
        low, sign = grid.lowering_matrix(), np.resize([1.0, -1.0], grid.points)
        assert np.array_equal(sign[:, None] * low * sign, low.T)
        solved = capture_eigh(monkeypatch)
        grid.decompose()
        (s,) = solved
        assert np.array_equal(s, low * sign) and np.array_equal(s, s.T)

    @pytest.mark.parametrize("w", ORACLE_W)
    def test_decompose_and_spectrum_agree_with_the_svd(self, models, monkeypatch, w):
        grid = oracle_grid(w)
        (levels, kernels, raw), (want, want_kernels, want_raw) = grid.decompose(), svd_decompose(grid)
        assert [len(k) for k in (*kernels, *raw)] == [len(k) for k in (*want_kernels, *want_raw)]
        # each raw kernel spans the oracle's, and holds unit vectors
        for got, oracle in zip(raw, want_raw):
            if got:
                assert np.allclose(np.transpose(got) @ got, np.transpose(oracle) @ oracle, atol=1e-9)
                assert np.allclose(np.linalg.norm(got, axis=1), 1.0)
        # levels above the kernel threshold agree to 1e-12 of sqrt(level x top):
        # a backward-stable solver moves each singular value s by a few
        # eps x s_max, so the level s^2 by a few eps x s x s_max
        assert np.array_equal(levels, np.sort(levels)[::-1])
        top = want[0]
        above = want > KERNEL_REL_TOL**2 * top
        assert np.all(np.abs(levels[above] - want[above]) <= 1e-12 * np.sqrt(want[above] * top))
        for sel in ("minimal:n=2", "next:n=3"):
            rep = spectrum(models(sel), grid)
            with monkeypatch.context() as m:
                m.setattr(GridRealization, "decompose", svd_decompose)
                oracle = spectrum(models(sel), grid)
            verdict = [
                ([c.multiplicity for c in (*r.clusters, *r.excluded)], r.zero_modes, r.artifact_modes, len(r.problems))
                for r in (rep, oracle)
            ]
            assert verdict[0] == verdict[1], sel


def tanh_well(x: np.ndarray) -> np.ndarray:
    return 3.0 * np.tanh(x)


def morse_well(x: np.ndarray) -> np.ndarray:
    # W = 3 - e^-y at y = x + 3: the grid's [-6, 6] is the well's [-3, 9]
    return 3.0 - np.exp(-(x + 3.0))


class TestGridAgainstExactLevels:
    """Central differences are second order: each level's error falls
    fourfold per halving of the spacing, and Richardson extrapolation
    removes that leading term."""

    GRIDS = ((201, 0.05), (401, 0.025), (801, 0.0125))  # [-5, 5]
    MORSE_GRIDS = ((241, 0.05), (481, 0.025), (961, 0.0125))  # [-6, 6]
    # W, exact excited levels of Ad A and the grids: the oscillator's 1 and
    # 2, and k(2 lambda - k)/2 of two shape-invariant wells with lambda = 3,
    # Poschl-Teller W = 3 tanh x and Morse W = 3 - e^-x, whose continuum
    # starts at 9/2 and needs a box reaching further right
    CASES = [
        ("x", lambda x: x, (1.0, 2.0), GRIDS),
        ("3 tanh x", tanh_well, (2.5, 4.0), GRIDS),
        ("3 - e^-x", morse_well, (2.5, 4.0), MORSE_GRIDS),
    ]

    @staticmethod
    def level_near(grid: GridRealization, exact: float) -> float:
        levels = grid.decompose()[0]
        return float(levels[np.argmin(np.abs(levels - exact))])

    @pytest.mark.parametrize("w,exact,sizes", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_errors_fall_fourfold_per_halving(self, w, exact, sizes):
        grids = [GridRealization.from_function(points, spacing, w) for points, spacing in sizes]
        for level in exact:
            got = [self.level_near(g, level) for g in grids]
            for coarse, fine in zip(got, got[1:]):
                assert (coarse - level) / (fine - level) == pytest.approx(4.0, abs=0.2)
                richardson = (4.0 * fine - coarse) / 3.0
                assert abs(richardson - level) * 10.0 <= abs(fine - level)

    def test_table_levels_through_the_cli(self, capsys, tmp_path):
        # the well as a table file gives the grid of the function, and the
        # CLI reports its levels
        points, spacing = self.GRIDS[0]
        grid = GridRealization.from_function(points, spacing, tanh_well)
        path = tmp_path / "tanh.txt"
        np.savetxt(path, grid.w_values)
        assert make_grid_realization(points, spacing, f"@{path}").w_values == grid.w_values
        argv = ["spectrum", "--model", "minimal:n=2", "--grid", "--points", str(points),
                "--spacing", str(spacing), "--W", f"@{path}", "--format", "json"]
        assert main(argv) == 0
        clusters = json.loads(capsys.readouterr().out)["clusters"]
        for level in (2.5, 4.0):
            want = self.level_near(grid, level)
            (c,) = [c for c in clusters if abs(c["value"] - level) < 0.1]
            assert c["value"] == pytest.approx(want, rel=1e-12) and c["multiplicity"] == 8


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

    @pytest.mark.parametrize("cutoff", [1, 2, 8])
    @pytest.mark.parametrize("sel,ordering", TABLE_SPECS)
    def test_fock_report_closed_form(self, sel, ordering, cutoff):
        # Ad A has levels 0..c and A Ad 1..c+1, each times the Clifford
        # dimension d; levels c and c+1 lie past the truncation edge
        model = TestRecordsAreTheModel.build(sel, ordering)
        d = model.clifford_dim
        rep = spectrum(model, FockRealization(cutoff))
        assert rep.clusters == ((0.0, d), *((float(v), 2 * d) for v in range(1, cutoff)))
        assert rep.excluded == ((float(cutoff), 2 * d), (float(cutoff + 1), d))
        assert (rep.zero_modes, rep.problems) == (d, ())

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

    def test_dimension_guard(self):
        # levels 0..cutoff: a cutoff equal to the budget is one level over it,
        # and the realization is refused where it is made
        refusal = f"^Fock levels {MAX_FOCK_LEVELS + 1} are over {MAX_FOCK_LEVELS}; reduce the cutoff$"
        with pytest.raises(ValueError, match=refusal):
            FockRealization(MAX_FOCK_LEVELS)
        assert FockRealization(MAX_FOCK_LEVELS - 1).dim == MAX_FOCK_LEVELS

    def test_grid_guard_counts_the_matrices_a_grid_builds(self):
        # S = L C, eigh's working copy, a workspace of two and the
        # eigenvectors, points x points float64 each: 1447 is the largest odd
        # point count within the guard, 1448 is even, and 1449 is refused by name
        assert 40 * 1448**2 <= MAX_SPECTRUM_BYTES == 80 << 20 < 40 * 1449**2
        check_grid(1447, 0.05)
        with pytest.raises(ValueError, match="^grid point count 1448 is even"):
            check_grid(1448, 0.05)
        refusal = (
            r"^the float64 S = L C, its working copy, the eigensolver's workspace of two "
            r"and the eigenvectors of S, for 1449 points, "
            r"need 83984040 bytes, over the guard of 83886080; reduce the grid size$"
        )
        with pytest.raises(ValueError, match=refusal):
            check_grid(1449, 0.05)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_grid_guard_is_the_measured_peak(self, monkeypatch):
        # the peak RSS that the largest admitted grid's spectrum adds to a
        # child that has only imported numpy and the realizations lies within
        # a quarter of what the guard counts for it.  A small launcher starts
        # both children: a child's peak counts the one of the image it
        # starts from, and the test runner's is larger than either.
        launcher = """
import os, subprocess, sys

def peak_bytes(*argv):
    proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{argv} exited {proc.returncode}")
    return usage.ru_maxrss * 1024

grid = ("--grid", "--points", "1447", "--spacing", "0.01", "--W", "x^3")
spent = peak_bytes("-m", "graded_sqm", "spectrum", "--model", "minimal:n=2", *grid, "--format", "json")
print(spent - peak_bytes("-c", "import numpy, graded_sqm.realizations"))
"""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", launcher], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        spent = int(proc.stdout)
        # what the guard counts, read off its refusal under a zero budget
        with monkeypatch.context() as m:
            m.setattr("graded_sqm.realizations.MAX_SPECTRUM_BYTES", 0)
            with pytest.raises(ValueError, match="reduce the grid size") as refused:
                check_grid(1447, 0.01)
        counted = int(re.search(r"need (\d+) bytes", str(refused.value))[1])
        assert 0.8 <= spent / counted <= 1.25, (spent, counted)

    @pytest.mark.parametrize("points,spacing", [(5, 1e308), (1447, 1e306)])
    def test_grid_extent_must_be_finite(self, points, spacing):
        # every coordinate (j - (points - 1)/2) x spacing must be finite
        with pytest.raises(ValueError, match="^grid extent .* overflows float64 at spacing .*; reduce the spacing$"):
            check_grid(points, spacing)
        check_grid(points, spacing / points)

    # the verdicts a well-formed realization never reaches, pinned on a grid
    # whose kernels or levels are replaced

    def test_both_ladder_kernels_nonempty(self, models, monkeypatch):
        decompose = GridRealization.decompose

        def unfiltered(self):
            levels, _, raw = decompose(self)
            return levels, raw, raw

        monkeypatch.setattr(GridRealization, "decompose", unfiltered)
        grid = GridRealization.from_function(41, 0.25, lambda x: x**3)
        assert spectrum(models("minimal:n=2"), grid).problems == (
            "both ladder kernels nonempty (1, 1); zero modes should come from one chirality only",
            "zero cluster multiplicity 4, expected 2",
        )

    def test_expected_zero_cluster_missing(self, models, monkeypatch):
        decompose = GridRealization.decompose

        def without_zero_levels(self):
            levels, kernels, raw = decompose(self)
            return levels[levels > 1e-6], kernels, raw

        monkeypatch.setattr(GridRealization, "decompose", without_zero_levels)
        grid = GridRealization.from_function(41, 0.25, lambda x: x)
        rep = spectrum(models("minimal:n=2"), grid)
        assert (rep.zero_modes, rep.expected_zero) == (2, 2)
        assert rep.problems == ("expected a zero cluster but found none",)

    @pytest.mark.parametrize("points", [41.0, 41.5])
    def test_grid_point_count_must_be_an_integer(self, points):
        # refused where the grid is checked, before W is evaluated on it
        def refuse(x):
            pytest.fail("W was evaluated on a grid of a non-integer point count")

        with pytest.raises(TypeError):
            check_grid(points, 0.25)
        with pytest.raises(TypeError):
            GridRealization(points, 0.25, np.zeros(41))
        with pytest.raises(TypeError):
            GridRealization.from_function(points, 0.25, refuse)
        assert type(GridRealization(np.int64(41), 0.25, np.zeros(41)).points) is int

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
        levels = np.sort(grid.decompose()[0])
        for want in dense:
            assert levels == pytest.approx(want, rel=1e-9, abs=1e-9 * top)
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
        # realized entry or eigensolve.
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
        monkeypatch.setattr(FockRealization, "word_matrix", refuse)
        monkeypatch.setattr(GridRealization, "word_matrix", refuse)
        for name in ("svd", "eigh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(GridRealization, "lowering_matrix", refuse)
        monkeypatch.setattr(GridRealization, "decompose", refuse)
        monkeypatch.setattr(FockRealization, "kernel_levels", refuse)
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
        # one symmetric eigensolve of S = L C per spectrum call gives both
        # partner spectra and both kernels: no SVD, no other eigensolver and
        # no realized entry
        solved = capture_eigh(monkeypatch)

        def refuse(*args, **kwargs):
            pytest.fail("the grid spectrum ran an SVD or another eigensolver, or realized an entry")

        for name in ("svd", "eigvalsh", "eig", "eigvals"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(GridRealization, "word_matrix", refuse)
        grid = GridRealization.from_function(41, 0.25, lambda x: x**3)
        rep = spectrum(models("minimal:n=2"), grid)
        assert rep.ok and rep.zero_modes == 2 and rep.artifact_modes == 2
        assert [s.shape for s in solved] == [(41, 41)] and np.array_equal(solved[0], solved[0].T)
        # nothing is cached: a second spectrum decomposes again
        assert spectrum(models("next:n=2"), grid).ok
        assert [s.shape for s in solved] == [(41, 41)] * 2 and np.array_equal(solved[1], solved[1].T)
        _, kernels, raw = grid.decompose()
        assert [len(k) for k in raw] == [1, 1]
        assert [len(k) for k in kernels] == [1, 0]


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
        assert cen.overall and cen.centrality_results == ()
        assert cen.to_dict()["centrality_results"][0]["left"] == f"H and {centrals} of {centrals} central elements"
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
