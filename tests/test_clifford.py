import numpy as np
import pytest

from graded_sqm.clifford import (
    PauliOperator,
    anticommutes,
    big_gamma,
    commutes,
    gamma,
    gamma_tilde,
    proportional,
)

# independent dense oracle: explicit Pauli matrices and numpy kron chains
SIGMA = {
    0: np.eye(2, dtype=complex),
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_chain(codes):
    out = np.array([[1]], dtype=complex)
    for c in codes:
        out = np.kron(out, SIGMA[c])
    return out


def dense_gamma(j, m):
    if j == 1:
        return kron_chain([1] * m)
    return kron_chain([1] * (m - j + 1) + [3] + [0] * (j - 2))


def dense_gamma_tilde(j, m):
    return kron_chain([1] * (m - j) + [2] + [0] * (j - 1))


def all_generators(m):
    return [gamma(j, m) for j in range(1, m + 1)] + [
        gamma_tilde(j, m) for j in range(1, m + 1)
    ]


class TestMonomialArithmetic:
    def test_identity(self):
        ident = PauliOperator.identity(4)
        g = gamma(1, 2)
        assert ident @ g == g
        assert g @ ident == g
        assert ident.scalar_of_identity() == 1

    def test_negative_qubit_count_is_refused(self):
        with pytest.raises(ValueError, match="^qubit count must be >= 0, got -1$"):
            PauliOperator(-1, 0, 0)

    @pytest.mark.parametrize("dim", [3, 0])
    def test_identity_needs_a_power_of_two(self, dim):
        with pytest.raises(ValueError, match=f"^dimension {dim} is not a power of two$"):
            PauliOperator.identity(dim)

    def test_product_against_dense(self):
        g1, gt1 = gamma(1, 1), gamma_tilde(1, 1)
        got = (g1 @ gt1).to_dense()
        want = SIGMA[1] @ SIGMA[2]  # equals i * sigma_3
        assert np.array_equal(got, want)
        assert np.array_equal(want, 1j * SIGMA[3])

    def test_square_is_identity(self):
        for m in range(1, 5):
            for g in all_generators(m):
                assert (g @ g).scalar_of_identity() == 1

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            gamma(1, 1) @ gamma(1, 2)

    def test_adjoint_matches_dense(self):
        rng = np.random.default_rng(7)
        for m in (1, 2, 3):
            gens = all_generators(m)
            word = [gens[i] for i in rng.integers(0, len(gens), size=5)]
            op = word[0]
            for w in word[1:]:
                op = op @ w
            assert np.array_equal(op.adjoint().to_dense(), op.to_dense().conj().T)

    def test_scalar_multiplication(self):
        g = gamma(2, 3)
        assert (1j * g).to_dense() == pytest.approx(1j * g.to_dense())
        assert (-g) == (-1) * g
        with pytest.raises(ValueError):
            g * 2.0

    def test_kron_matches_dense(self):
        a, b = gamma(1, 2), gamma_tilde(2, 2)
        assert np.array_equal(a.kron(b).to_dense(), np.kron(a.to_dense(), b.to_dense()))

    def test_bits_must_fit_the_qubit_count(self):
        with pytest.raises(ValueError):
            PauliOperator(2, 4, 0)
        with pytest.raises(ValueError):
            PauliOperator(2, 0, -1)
        assert PauliOperator(2, 3, 3, 7).k == 3


class TestGammaConstruction:
    def test_gamma_1_2_is_antidiagonal_ones(self):
        assert np.array_equal(gamma(1, 2).to_dense(), np.kron(SIGMA[1], SIGMA[1]))

    def test_gamma_2_2(self):
        assert np.array_equal(gamma(2, 2).to_dense(), np.kron(SIGMA[1], SIGMA[3]))

    def test_gamma_tilde_1_1_is_sigma2(self):
        assert np.array_equal(gamma_tilde(1, 1).to_dense(), SIGMA[2])

    @pytest.mark.parametrize("m", range(1, 6))
    def test_dense_agreement(self, m):
        for j in range(1, m + 1):
            assert np.array_equal(gamma(j, m).to_dense(), dense_gamma(j, m))
            assert np.array_equal(gamma_tilde(j, m).to_dense(), dense_gamma_tilde(j, m))

    @pytest.mark.parametrize("m", range(1, 6))
    def test_tilde_shares_positions(self, m):
        for j in range(1, m + 1):
            assert gamma(j, m).x == gamma_tilde(j, m).x

    @pytest.mark.parametrize("m", range(1, 7))
    def test_clifford_relations_exhaustive(self, m):
        gens = all_generators(m)
        for i, x in enumerate(gens):
            assert x.is_hermitian()
            assert (x @ x).scalar_of_identity() == 1
            for y in gens[i + 1 :]:
                assert anticommutes(x, y)

    def test_index_range(self):
        with pytest.raises(ValueError):
            gamma(0, 3)
        with pytest.raises(ValueError):
            gamma_tilde(4, 3)


class TestBigGamma:
    def test_value_at_m1(self):
        assert np.array_equal(big_gamma(1, 1).to_dense(), -SIGMA[3])

    @pytest.mark.parametrize("m", range(1, 6))
    def test_diagonal_hermitian_idempotent(self, m):
        for j in range(1, m + 1):
            bg = big_gamma(j, m)
            assert bg.x == 0
            assert bg.is_hermitian()
            assert (bg @ bg).scalar_of_identity() == 1

    @pytest.mark.parametrize("m", range(1, 5))
    def test_mixed_relations(self, m):
        # the diagonal involutions anticommute with their own generator,
        # commute with every other generator and with each other
        for j in range(1, m + 1):
            for k in range(1, m + 1):
                if j == k:
                    assert anticommutes(gamma(j, m), big_gamma(j, m))
                    assert anticommutes(gamma_tilde(j, m), big_gamma(j, m))
                else:
                    assert commutes(gamma(j, m), big_gamma(k, m))
                    assert commutes(big_gamma(j, m), big_gamma(k, m))

    def test_commutator_example(self):
        assert commutes(big_gamma(1, 3), big_gamma(2, 3))


class TestProportional:
    def test_self(self):
        g = gamma(1, 3)
        assert proportional(g, g) == 1

    def test_explicit_scalar(self):
        w = gamma(3, 4) @ gamma(4, 4)
        assert proportional(w.scale(1), w) == 1j

    def test_different_permutations(self):
        assert proportional(gamma(1, 2), gamma(2, 2)) is None

    def test_same_positions_different_phases(self):
        assert proportional(gamma(1, 2), gamma_tilde(1, 2)) is None

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            proportional(gamma(1, 1), gamma(1, 2))


class TestDenseOracle:
    def test_random_words_exact(self):
        # Pauli products must equal dense complex products entrywise
        rng = np.random.default_rng(2024)
        for _ in range(300):
            m = int(rng.integers(1, 5))
            gens = all_generators(m)
            dense = [g.to_dense() for g in gens]
            length = int(rng.integers(1, 7))
            idx = rng.integers(0, len(gens), size=length)
            op = PauliOperator.identity(1 << m)
            mat = np.eye(1 << m, dtype=complex)
            for i in idx:
                op = op @ gens[i]
                mat = mat @ dense[i]
            assert np.array_equal(op.to_dense(), mat)

    def test_random_strings_exact(self):
        # products, adjoints, commutation and kron of arbitrary (x, z, k)
        # strings, not only gamma words, against their dense matrices
        rng = np.random.default_rng(99)

        def random_string(m):
            x, z, k = (int(v) for v in rng.integers(0, [1 << m, 1 << m, 4]))
            return PauliOperator(m, x, z, k)

        for _ in range(200):
            m = int(rng.integers(0, 4))
            p, q = random_string(m), random_string(m)
            dp, dq = p.to_dense(), q.to_dense()
            assert np.array_equal((p @ q).to_dense(), dp @ dq)
            assert np.array_equal(p.adjoint().to_dense(), dp.conj().T)
            assert p.is_hermitian() == np.array_equal(dp, dp.conj().T)
            assert commutes(p, q) == np.array_equal(dp @ dq, dq @ dp)
            assert anticommutes(p, q) == np.array_equal(dp @ dq, -(dq @ dp))
            assert np.array_equal(p.kron(q).to_dense(), np.kron(dp, dq))
