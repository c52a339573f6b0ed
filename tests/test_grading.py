import itertools

import pytest

from graded_sqm.grading import (
    ANTICOMMUTATOR,
    COMMUTATOR,
    AlgebraCensus,
    DegreeVector,
    bracket_kind,
    bracket_sign,
    census,
    dot,
    enumerate_odd_degrees,
)


def dv(*bits):
    return DegreeVector.from_bits(bits)


class TestDegreeVector:
    def test_rendering_a1_leftmost(self):
        assert str(dv(0, 0, 1, 1)) == "0011"
        assert str(dv(1, 0, 0)) == "100"
        assert DegreeVector.from_string("0110").bits == (0, 1, 1, 0)

    def test_addition_mod2(self):
        assert dv(1, 1, 0) + dv(0, 1, 1) == dv(1, 0, 1)
        a = dv(1, 0, 1, 1)
        assert a + a == DegreeVector.zero(4)

    def test_parity_and_weight(self):
        assert dv(1, 1, 0).parity == 0
        assert dv(1, 1, 1).parity == 1
        assert dv(1, 0, 1, 1).weight == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            DegreeVector(1, 0)
        with pytest.raises(ValueError):
            DegreeVector(3, 8)
        with pytest.raises(ValueError):
            DegreeVector.from_bits((0, 2, 1))


class TestDot:
    def test_examples(self):
        assert dot(dv(1, 1, 0), dv(0, 1, 1)) == 1
        assert dot(dv(1, 0, 0), dv(0, 1, 0)) == 0
        assert dot(dv(1, 1, 1), dv(1, 1, 1)) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dot(dv(1, 0), dv(1, 0, 0))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_symmetry_and_bilinearity(self, n):
        space = [DegreeVector(n, m) for m in range(1 << n)]
        for a, b in itertools.product(space, repeat=2):
            assert dot(a, b) == dot(b, a)
        for a, b, c in itertools.product(space[: 1 << min(n, 4)], repeat=3):
            assert dot(a + b, c) == dot(a, c) ^ dot(b, c)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_odd_degrees_self_dot(self, n):
        for a in enumerate_odd_degrees(n):
            assert dot(a, a) == 1


class TestBracketKind:
    def test_weight_one_pairs_commute(self):
        # the three weight-1 degrees of the rank-3 algebra close in commutators
        for a, b in itertools.combinations([dv(1, 0, 0), dv(0, 1, 0), dv(0, 0, 1)], 2):
            assert bracket_kind(a, b) == COMMUTATOR
            assert bracket_sign(a, b) == 1

    def test_weight_one_with_all_ones(self):
        ones = dv(1, 1, 1)
        for a in (dv(1, 0, 0), dv(0, 1, 0), dv(0, 0, 1)):
            assert bracket_kind(a, ones) == ANTICOMMUTATOR
            assert bracket_sign(a, ones) == -1

    @pytest.mark.parametrize("n", range(2, 7))
    def test_self_bracket_of_odd_degree(self, n):
        for a in enumerate_odd_degrees(n):
            assert bracket_kind(a, a) == ANTICOMMUTATOR


class TestEnumerateOddDegrees:
    def test_rank4_order(self):
        want = ["0001", "0010", "0100", "1000", "0111", "1011", "1101", "1110"]
        assert [str(a) for a in enumerate_odd_degrees(4)] == want

    def test_rank5_order(self):
        want = [
            "00001", "00010", "00100", "01000", "10000",
            "00111", "01011", "10011", "01101", "10101",
            "11001", "01110", "10110", "11010", "11100",
            "11111",
        ]
        assert [str(a) for a in enumerate_odd_degrees(5)] == want

    def test_rank2(self):
        assert [str(a) for a in enumerate_odd_degrees(2)] == ["01", "10"]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_count_parity_distinct(self, n):
        odd = enumerate_odd_degrees(n)
        assert len(odd) == 1 << (n - 1)
        assert len(set(odd)) == len(odd)
        assert all(a.parity == 1 for a in odd)


class TestCensus:
    # supercharge / central / subspace-dimension counts for ranks 2..10
    TABLE = {
        2: (2, 1, 1),
        3: (4, 6, 2),
        4: (8, 28, 4),
        5: (16, 120, 8),
        6: (32, 496, 16),
        7: (64, 2016, 32),
        8: (128, 8128, 64),
        9: (256, 32640, 128),
        10: (512, 130816, 256),
    }

    @pytest.mark.parametrize("n", sorted(TABLE))
    def test_table(self, n):
        c = census(n)
        assert (c.num_supercharges, c.num_central, c.dim_central_subspace) == self.TABLE[n]
        assert c == AlgebraCensus(n, *self.TABLE[n])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_against_exhaustive_enumeration(self, n):
        odd = enumerate_odd_degrees(n)
        pairs = list(itertools.combinations(odd, 2))
        c = census(n)
        assert len(pairs) == c.num_central
        by_degree = {}
        for a, b in pairs:
            by_degree.setdefault(a + b, []).append((a, b))
        assert len(by_degree) == (1 << (n - 1)) - 1
        assert all(len(v) == c.dim_central_subspace for v in by_degree.values())

    def test_rank_guard(self):
        with pytest.raises(ValueError):
            census(1)
