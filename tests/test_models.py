import copy
import hashlib
import itertools
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graded_sqm
from graded_sqm import models
from graded_sqm.clifford import PauliOperator, anticommutes, commutes, gamma, proportional
from graded_sqm.grading import DegreeVector, dot, enumerate_odd_degrees
from graded_sqm.models import (
    CENTRAL,
    SUPERCHARGE,
    Model,
    ModelSpec,
    ModelSpecError,
    build,
    hermitizing_phase,
    minimal_phase_exponent,
)
from graded_sqm.realizations import FockRealization, GridRealization
from graded_sqm.sqm_block import canonical_blocks
from graded_sqm.verify import _gf2_rank
from test_verify import TABLE_SPECS


def dv(*bits):
    return DegreeVector.from_bits(bits)


class TestModelSpec:
    def test_parse_roundtrip(self):
        for sel in ("minimal:n=4", "next:n=3", "maximal:n=4", "n4cl12", "n5cl26"):
            assert ModelSpec.parse(sel).selector == sel

    def test_bad_selectors(self):
        for sel in ("minimal", "minimal:n=x", "smallest:n=3", "n6cl40", ""):
            with pytest.raises(ModelSpecError):
                ModelSpec.parse(sel)

    def test_rank_caps(self):
        with pytest.raises(ModelSpecError):
            ModelSpec.parse("minimal:n=9")
        with pytest.raises(ModelSpecError):
            ModelSpec.parse("next:n=1")
        with pytest.raises(ModelSpecError):
            ModelSpec.parse("maximal:n=9")
        assert build(ModelSpec.parse("maximal:n=6")).clifford_dim == 1 << 31

    @pytest.mark.parametrize("n", [3.0, "3", None])
    def test_rank_is_an_int(self, n):
        with pytest.raises(ModelSpecError, match="rank must be an int"):
            ModelSpec("next", n)

    @pytest.mark.parametrize("sel", ["next:n=+3", "next:n=\u0663", "next:n=3_0", "next:n= 3"])
    def test_selector_rank_is_ascii_digits(self, sel):
        # int() reads each of these as 3 or 30
        with pytest.raises(ModelSpecError, match="bad rank"):
            ModelSpec.parse(sel)

    @pytest.mark.parametrize("ordering", ["Reversed", "random", None])
    def test_unknown_ordering(self, ordering):
        refusal = f"^ordering must be 'default' or 'reversed', got {re.escape(repr(ordering))}$"
        with pytest.raises(ModelSpecError, match=refusal):
            ModelSpec("next", 3, ordering)

    def test_custom_rank_is_fixed(self):
        with pytest.raises(ModelSpecError):
            ModelSpec("n4cl12", 5)
        with pytest.raises(ModelSpecError):
            ModelSpec("n4cl12", 4, ordering="reversed")

    @pytest.mark.parametrize(
        "sel,total",
        [
            ("minimal:n=2", 4),
            ("minimal:n=5", 32),
            ("next:n=2", 8),
            ("next:n=4", 32),
            ("maximal:n=2", 4),
            ("maximal:n=4", 256),
            ("maximal:n=5", 65536),
            ("n4cl12", 128),
            ("n4cl10", 64),
            ("n5cl28", 32768),
            ("n5cl26", 16384),
        ],
    )
    def test_dimension_formulas(self, sel, total):
        # the qubit count is the spec's one statement of the dimension
        assert 2 << ModelSpec.parse(sel).qubits == total


class TestPhaseExponent:
    def test_examples(self):
        assert minimal_phase_exponent(dv(1, 1, 0, 1)) == 1
        assert minimal_phase_exponent(dv(0, 0, 0, 0, 1)) == 0
        # direct evaluation over the first four components; this degree has
        # parity 0, so only the unvalidated helper accepts it
        assert hermitizing_phase(dv(1, 1, 1, 0, 1), 4) == 3

    def test_parity_zero_rejected(self):
        with pytest.raises(ValueError):
            minimal_phase_exponent(dv(1, 1, 0))

    def test_counts_pairs(self):
        # weight w among the counted components gives w*(w-1)/2 pairs
        a = dv(1, 1, 1, 1, 0)
        assert hermitizing_phase(a, 5) == 6
        assert hermitizing_phase(a, 3) == 3
        assert hermitizing_phase(a, 1) == 0


def charge_factors(model: Model):
    return {a: q.clifford for a, q in model.supercharges.items()}


class TestMinimalFamily:
    def test_rank2_is_four_dimensional(self, models):
        m = models("minimal:n=2")
        assert m.total_dim == 4
        assert len(m.supercharges) == 2
        assert len(m.centrals) == 1

    @pytest.mark.parametrize("n", range(2, 6))
    def test_last_unit_degree_factor_is_identity(self, models, n):
        m = models(f"minimal:n={n}")
        a = DegreeVector(n, 1 << (n - 1))  # (0,...,0,1)
        assert m.supercharges[a].clifford.scalar_of_identity() == 1

    @pytest.mark.parametrize("n", range(2, 6))
    def test_first_unit_degree_factor_is_gamma1(self, models, n):
        m = models(f"minimal:n={n}")
        a = DegreeVector(n, 1)  # (1,0,...,0)
        assert proportional(m.supercharges[a].clifford, gamma(1, n - 1)) is not None

    @pytest.mark.parametrize("n", range(2, 7))
    def test_factor_commutation_case_table(self, models, n):
        # four cases: the factors commute when exactly one of (inner product,
        # last-component agreement) holds, anticommute otherwise
        m = models(f"minimal:n={n}")
        x = charge_factors(m)
        for a, b in itertools.combinations(m.odd_degrees, 2):
            same_last = a.bits[-1] == b.bits[-1]
            if dot(a, b) == 0:
                expect_commute = not same_last
            else:
                expect_commute = same_last
            if expect_commute:
                assert commutes(x[a], x[b]), (str(a), str(b))
            else:
                assert anticommutes(x[a], x[b]), (str(a), str(b))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_block_split_on_last_component(self, models, n):
        m = models(f"minimal:n={n}")
        qb, hb, sb = canonical_blocks()
        iqs = (qb @ sb) * 1j
        for a, q in m.supercharges.items():
            assert q.block == (qb if a.bits[-1] else iqs)
        # Z_ab = (-i)**(1 - a.b) G_a G_b x B_a B_b, B the supercharge blocks:
        # H when the last components agree, a multiple of H S when they differ
        for (a, b), z in m.centrals.items():
            pair = m.supercharges[a].block @ m.supercharges[b].block
            assert z.block == pair * (-1j) ** (1 - dot(a, b))
            assert pair == (hb if a.bits[-1] == b.bits[-1] else hb @ sb * (1j if a.bits[-1] else -1j))


class TestNextFamily:
    def test_odd_rank_identity_charge(self, models):
        m = models("next:n=3")
        qb, _, _ = canonical_blocks()
        ones = DegreeVector.ones(3)
        q1 = m.supercharges[ones]
        assert q1.clifford.scalar_of_identity() == 1
        assert q1.block == qb
        # the ones-paired central elements are bare generator products
        a = dv(0, 0, 1)
        z = m.central(a, ones)
        assert proportional(z.clifford, m.supercharges[a].clifford) is not None

    def test_even_rank_has_no_ones_charge(self, models):
        m = models("next:n=2")
        assert DegreeVector.ones(2) not in m.supercharges
        assert len(m.supercharges) == 2
        assert m.total_dim == 8

    @pytest.mark.parametrize("n", range(2, 6))
    def test_unit_degree_factors_are_generators(self, models, n):
        m = models(f"next:n={n}")
        a = DegreeVector(n, 1 << (n - 1))  # (0,...,0,1)
        assert proportional(m.supercharges[a].clifford, gamma(n, n)) is not None

    @pytest.mark.parametrize("n", range(2, 7))
    def test_factor_dichotomy(self, n):
        # generator products anticommute iff the degrees are orthogonal;
        # rebuild the products directly, including the all-ones word
        from graded_sqm.models import _gamma_word

        ys = {}
        for a in enumerate_odd_degrees(n):
            ys[a] = PauliOperator(n, *_gamma_word(a.mask, n)).scale(hermitizing_phase(a, n))
        for a, b in itertools.combinations(ys, 2):
            if dot(a, b):
                assert commutes(ys[a], ys[b])
            else:
                assert anticommutes(ys[a], ys[b])


class TestMaximalFamily:
    @pytest.mark.parametrize("n", range(2, 5))
    def test_factor_dichotomy(self, models, n):
        m = models(f"maximal:n={n}")
        g = charge_factors(m)
        for a, b in itertools.combinations(m.odd_degrees, 2):
            if dot(a, b):
                assert commutes(g[a], g[b])
            else:
                assert anticommutes(g[a], g[b])

    def test_rank2_dimension_coincides_with_minimal(self, models):
        assert models("maximal:n=2").total_dim == models("minimal:n=2").total_dim

    @pytest.mark.parametrize("sel", ["maximal:n=2", "maximal:n=3", "maximal:n=4"])
    def test_generators_hermitian_idempotent(self, models, sel):
        for q in models(sel).supercharges.values():
            g = q.clifford
            assert g.is_hermitian()
            assert (g @ g).scalar_of_identity() == 1


class TestCustomFamilies:
    @pytest.mark.parametrize("sel", ["n4cl12", "n4cl10", "n5cl28", "n5cl26"])
    def test_generators_hermitian_idempotent(self, models, sel):
        for q in models(sel).supercharges.values():
            g = q.clifford
            assert g.is_hermitian()
            assert (g @ g).scalar_of_identity() == 1

    @pytest.mark.parametrize("sel", ["n4cl12", "n4cl10", "n5cl28", "n5cl26"])
    def test_factor_dichotomy(self, models, sel):
        m = models(sel)
        g = charge_factors(m)
        for a, b in itertools.combinations(m.odd_degrees, 2):
            if dot(a, b):
                assert commutes(g[a], g[b]), (str(a), str(b))
            else:
                assert anticommutes(g[a], g[b]), (str(a), str(b))

    def test_cl10_dependent_pair(self, models):
        # the generator table makes two central elements proportional
        m = models("n4cl10")
        degs = m.odd_degrees
        z34 = m.central(degs[2], degs[3]).clifford
        z28 = m.central(degs[1], degs[7]).clifford
        assert proportional(z34, z28) is not None

    def test_cl12_same_degree_pair_independent(self, models):
        m = models("n4cl12")
        degs = m.odd_degrees
        z34 = m.central(degs[2], degs[3]).clifford
        z28 = m.central(degs[1], degs[7]).clifford
        assert proportional(z34, z28) is None

    def test_degree_assignment_matches_ordering(self, models):
        m = models("n4cl12")
        assert [str(a) for a in m.odd_degrees] == [
            "0001", "0010", "0100", "1000", "0111", "1011", "1101", "1110",
        ]

    # SHA-256 of repr((model.q, model.z)), the supercharge and central records,
    # taken when each table was still written out in full
    RECORD_DIGESTS = {
        "n4cl10": "dac65ce3ce200e140408b6da69fbc1be4da18c44f77e63cbb93638e6dac12e60",
        "n4cl12": "08af7e43639dde5fb0104cd7fc2669e0e1c6d196faf7ed923238e0b6a934bbc0",
        "n5cl26": "1a48ef358e28bfc0ab1de7b518986533442dd9ca1052c9220aab62e51c3f7636",
        "n5cl28": "4c4b9b4aa3668e215f90f525243c3fb89f7adf585ca666ff8ab44bbfb7c20e73",
    }

    @pytest.mark.parametrize("sel", sorted(RECORD_DIGESTS))
    def test_records_are_pinned(self, models, sel):
        m = models(sel)
        assert hashlib.sha256(repr((m.q, m.z)).encode()).hexdigest() == self.RECORD_DIGESTS[sel]


class TestValueTypes:
    """Degrees, specs and realizations are immutable values: copies and
    pickles equal and hash as the original, and the constructors check,
    also where ``_replace`` and ``_make`` build a value."""

    # each type's maker, a field, and a value of that field its constructor refuses
    VALUES = {
        "degree": (lambda: DegreeVector(3, 5), "mask", 99),
        "spec": (lambda: ModelSpec("next", 3, "reversed"), "n", 100),
        "fock": (lambda: FockRealization(8), "cutoff", -5),
        "grid": (lambda: GridRealization.from_function(21, 0.1, lambda x: x**3, "x^3"), "points", 4),
    }

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_round_trips_are_equal_and_hash_equal(self, name):
        make, _, _ = self.VALUES[name]
        value = make()
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and twin == make()
            assert not twin != value
            assert hash(twin) == hash(value)

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_fields_cannot_be_assigned(self, name):
        make, field, _ = self.VALUES[name]
        value = make()
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))

    @pytest.mark.parametrize("name", sorted(VALUES))
    def test_replace_and_make_check_as_the_constructor(self, name):
        make, field, bad = self.VALUES[name]
        value = make()
        row = [bad if f == field else v for f, v in zip(value._fields, value)]
        with pytest.raises(ValueError) as refused:
            type(value)(*row)
        error, message = type(refused.value), f"^{re.escape(str(refused.value))}$"
        with pytest.raises(error, match=message):
            value._replace(**{field: bad})
        with pytest.raises(error, match=message):
            type(value)._make(row)
        assert value._replace() == value and type(value)._make(value) == value

    def test_make_checks_a_whole_row(self):
        with pytest.raises(ModelSpecError, match="^unknown family 'nope'"):
            ModelSpec._make(["nope", 1, "sideways"])
        with pytest.raises(TypeError):
            DegreeVector._make([3])

    @pytest.mark.parametrize(
        "make,error",
        [
            (lambda: DegreeVector(1, 0), ValueError),
            (lambda: DegreeVector(3, 8), ValueError),
            (lambda: FockRealization(0), ValueError),
            (lambda: FockRealization(2.5), TypeError),
        ],
        ids=["rank-1", "mask-over-rank", "cutoff-0", "cutoff-float"],
    )
    def test_constructors_refuse(self, make, error):
        with pytest.raises(error):
            make()


class TestModelStructure:
    @pytest.mark.parametrize("sel", ["minimal:n=3", "next:n=3", "maximal:n=3", "n4cl10"])
    def test_roles_and_degrees(self, models, sel):
        m = models(sel)
        assert m.hamiltonian.degree.mask == 0
        for a, q in m.supercharges.items():
            assert q.role == SUPERCHARGE
            assert q.degree == a
            assert a.parity == 1
        for (a, b), z in m.centrals.items():
            assert z.role == CENTRAL
            assert z.degree == a + b
            assert z.degree.parity == 0
            assert z.degree.mask != 0
            assert a != b

    def test_central_count_matches_census(self, models):
        from graded_sqm.grading import census

        for sel in ("minimal:n=4", "next:n=4", "maximal:n=4"):
            m = models(sel)
            assert len(m.centrals) == census(4).num_central

    def test_antisymmetry_accessor(self):
        # Z_ba = -(-1)**(a.b) Z_ab, and each orientation is labelled as asked,
        # for both signs
        for sel, ordering in TABLE_SPECS:
            m = build(ModelSpec.parse(sel, ordering))
            signs = set()
            for (a, b), z in m.centrals.items():
                assert m.central(a, b) is z
                flipped = m.central(b, a)
                sign = -1 if dot(a, b) == 0 else 1
                signs.add(sign)
                assert flipped.pair == (b, a), (sel, ordering)
                assert flipped.label() == f"Z[{b},{a}]", (sel, ordering)
                assert (flipped.role, flipped.degree) == (CENTRAL, z.degree)
                assert flipped.clifford == z.clifford
                assert flipped.block == z.block * sign
            assert signs == ({-1, 1} if m.spec.n >= 3 else {-1}), (sel, ordering)

    def test_central_of_no_pair_names_it(self, models):
        m = models("next:n=3")
        a, b = m.odd_degrees[:2]
        for x, y in [(a, a), (a, a + b), (dv(1, 0, 0, 0), b)]:
            with pytest.raises(ValueError, match=re.escape(f"no central element Z[{x},{y}]")):
                m.central(x, y)

    def test_operators_listing(self, models):
        m = models("minimal:n=2")
        ops = m.operators()
        assert len(ops) == 1 + 2 + 1

    def test_views_of_two_builds_collapse_into_one_set(self):
        # the views are frozen values: two builds of one model give equal,
        # equally hashed operators
        one, two = build(ModelSpec.parse("next:n=3")), build(ModelSpec.parse("next:n=3"))
        assert one.operators() == two.operators()
        assert len({*one.operators(), *two.operators()}) == len(one.operators()) == 1 + 4 + 6

    def test_reversed_ordering_builds(self):
        m = build(ModelSpec("maximal", 3, ordering="reversed"))
        assert m.odd_degrees[0] == DegreeVector.ones(3)
        assert m.total_dim == 16

    @pytest.mark.parametrize(
        "sel",
        [
            "minimal:n=2",
            "minimal:n=5",
            "next:n=2",
            "next:n=5",
            "maximal:n=2",
            "maximal:n=4",
            "n4cl12",
            "n4cl10",
            "n5cl28",
            "n5cl26",
        ],
    )
    def test_built_dimensions_match_spec(self, models, sel):
        m = models(sel)
        assert m.m == m.spec.qubits
        assert m.total_dim == 2 * m.clifford_dim == 2 << m.spec.qubits
        assert m.hamiltonian.total_dim == m.total_dim
        assert len(m.supercharges) == 1 << (m.spec.n - 1)


class TestGeneratorCheck:
    def test_refuses_a_non_hermitian_generator_under_python_O(self):
        # -O strips assert statements; the build-time check must survive it.
        # The generator (x, z, k) = (1, 1, 0) is X Z = -iY.
        src = str(Path(graded_sqm.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        script = (
            "from graded_sqm.models import _check_generator\n"
            "_check_generator((1, 1, 0), 'g')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0
        assert "not hermitian" in proc.stderr

    def test_a_mistyped_table_row_fails_the_build(self, monkeypatch):
        # the last row of the n4cl10 table off by a phase i: the build names
        # that row's degree before it assembles a record
        family = models._FAMILIES["n4cl10"]

        def mistyped(masks, m):
            gens, bits = family.generators(masks, m)
            return [*gens[:-1], models._scale(gens[-1], 1)], bits

        monkeypatch.setitem(models._FAMILIES, "n4cl10", family._replace(generators=mistyped))
        with pytest.raises(ValueError, match="^generator for degree 1110 is not hermitian$"):
            build(ModelSpec.parse("n4cl10"))


class TestQubitCountBound:
    """Each product family's qubit count against the GF(2) lower bound.

    With v_a the (x, z) bits of Q_a's Pauli string, Omega the Gram matrix of
    the symplectic form on the v_a and K the kernel of the map a -> v_a, a
    family with that Omega and K needs at least
    rank(Omega)/2 + dim rad(Omega) - dim K qubits.  The excess over it is
    pinned here; zero means the Clifford algebra is as small as it can be.
    """

    @staticmethod
    def bound(model: Model) -> int:
        charges = [q.clifford for q in model.supercharges.values()]
        m = model.hamiltonian.clifford.m

        def omega(u: PauliOperator, v: PauliOperator) -> int:
            return ((u.x & v.z).bit_count() + (u.z & v.x).bit_count()) & 1

        rank_omega = _gf2_rank(sum(omega(u, v) << j for j, v in enumerate(charges)) for u in charges)
        dim_rad = len(charges) - rank_omega
        dim_k = len(charges) - _gf2_rank(v.x << m | v.z for v in charges)
        return rank_omega // 2 + dim_rad - dim_k

    @pytest.mark.parametrize(
        "sel,excess", [("n4cl10", 0), ("n4cl12", 0), ("n5cl26", 0), ("n5cl28", 1)]
    )
    def test_tables(self, models, sel, excess):
        m = ModelSpec.parse(sel).qubits
        assert models(sel).hamiltonian.clifford.m == m
        assert m - self.bound(models(sel)) == excess

    @pytest.mark.parametrize(
        "family,excesses", [("maximal", (0, 1, 1, 2, 2, 3)), ("next", (1, 1, 2, 2, 3, 3))]
    )
    def test_general_families(self, models, family, excesses):
        for n, excess in zip(range(2, 8), excesses):
            model = models(f"{family}:n={n}")
            assert model.hamiltonian.clifford.m - self.bound(model) == excess, n
