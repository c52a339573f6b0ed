import math
import pickle
from collections import Counter

import numpy as np
import pytest

from graded_sqm.cli import make_grid_realization
from graded_sqm.realizations import FockRealization, GridRealization, _walk, check_grid, spectrum
from graded_sqm.sqm_block import (
    LOWER,
    RAISE,
    SqmBlock,
    WordSum,
    canonical_blocks,
    ground_state_pair,
    realize,
)
from test_verify import monomial_non_canonical_hamiltonians, with_hamiltonian_block


class TestWordSum:
    def test_words_are_free(self):
        a = WordSum.letter(LOWER)
        ad = WordSum.letter(RAISE)
        assert a * ad != ad * a
        assert (a * ad) - (a * ad) == WordSum.zero()

    def test_scalars_and_sums(self):
        a = WordSum.letter(LOWER)
        s = 2 * a + a * 1j
        assert s == a * (2 + 1j)
        assert (s - s).is_zero()

    def test_adjoint_reverses_and_swaps(self):
        a = WordSum.letter(LOWER)
        ad = WordSum.letter(RAISE)
        w = (a * a * ad) * 1j
        assert w.adjoint() == (a * ad * ad) * (-1j)
        assert w.adjoint().adjoint() == w

    def test_equal_sums_hash_equal_and_equal_no_other_type(self):
        a, ad = WordSum.letter(LOWER), WordSum.letter(RAISE)
        assert hash(a * ad + a) == hash(WordSum({(LOWER,): 1, (LOWER, RAISE): 1}))
        assert len({a * 2, a + a, 2 * a}) == 1
        assert (WordSum.unit() == 1) is False and WordSum.unit() != 1

    def test_unknown_letter_is_refused(self):
        with pytest.raises(ValueError, match="^unknown letter 'B'$"):
            WordSum.letter("B")

    def test_block_must_be_2x2(self):
        z = WordSum.zero()
        with pytest.raises(ValueError, match="^block must be 2x2$"):
            SqmBlock([[z, z], [z, z], [z, z]])


class TestCanonicalBlocks:
    def test_square_of_charge_is_hamiltonian(self):
        q, h, s = canonical_blocks()
        assert q @ q == h

    def test_involution_relations(self):
        q, h, s = canonical_blocks()
        assert (q @ s + s @ q).is_zero()
        assert (h @ s - s @ h).is_zero()
        assert s @ s == SqmBlock.identity()

    def test_equal_blocks_hash_equal_and_equal_no_other_type(self):
        q, h, s = canonical_blocks()
        assert hash(q @ q) == hash(h) and len({q @ q, h, s @ s @ h}) == 1
        assert (SqmBlock.identity() == 1) is False and SqmBlock.identity() != 1

    def test_formal_hermiticity(self):
        q, h, s = canonical_blocks()
        assert q.adjoint() == q
        assert h.adjoint() == h
        assert s.adjoint() == s
        iqs = (q @ s) * 1j
        assert iqs.adjoint() == iqs
        assert iqs @ iqs == h

    def test_diagonal_patterns(self):
        # Q is antidiagonal, H and S diagonal, and no other entry is zero
        q, h, s = canonical_blocks()
        for block, anti in ((q, True), (h, False), (s, False)):
            (tl, tr), (bl, br) = block.entries
            on, off = ((tr, bl), (tl, br)) if anti else ((tl, br), (tr, bl))
            assert all(e.is_zero() for e in off) and not any(e.is_zero() for e in on)


def fock_dense_oracle(cutoff, word):
    """Independent oracle: dense ladder matrices at a padded dimension,
    truncated back after the product."""
    pad = cutoff + 1 + len(word)
    low = np.zeros((pad, pad))
    for k in range(1, pad):
        low[k - 1, k] = math.sqrt(k)
    mats = {LOWER: low, RAISE: low.T}
    out = np.eye(pad)
    for letter in word:
        out = out @ mats[letter]
    return out[: cutoff + 1, : cutoff + 1]


def svd_kernel(mat):
    """Oracle: the right null vectors of a dense SVD, at the relative
    threshold the grid uses."""
    _, s, vh = np.linalg.svd(mat)
    tol = 1e-8 * (s[0] if len(s) else 0.0)
    # rows past len(s) are exact nulls
    return [vh[i].conj() for i in range(vh.shape[0]) if (s[i] if i < len(s) else 0.0) <= tol]


def assert_fock_clusters(model, r, diagonals):
    """The spectrum's clusters, the truncation-excluded ones included, count
    each level of both partners' dense diagonals clifford-dim times."""
    counts = Counter(v for d in diagonals for v in d.real.tolist())
    rep = spectrum(model, r)
    got = [(c.value, c.multiplicity) for c in (*rep.clusters, *rep.excluded)]
    assert got == [(v, model.clifford_dim * counts[v]) for v in sorted(counts)]


class TestFockRealization:
    def test_hamiltonian_diagonal_exact(self, models):
        q, h, s = canonical_blocks()
        r = FockRealization(4)
        got = realize(h, r)
        want = np.diag([0, 1, 2, 3, 4, 1, 2, 3, 4, 5]).astype(complex)
        assert np.array_equal(got, want)
        assert np.array_equal(realize(h.entries[1][1], r), want[5:, 5:])
        assert_fock_clusters(models("minimal:n=2"), r, [np.diag(got)[:5], np.diag(got)[5:]])

    @pytest.mark.parametrize("cutoff", [1, 2, 6, 17])
    def test_exact_diagonal_against_dense_entry(self, models, cutoff):
        # the closed-form levels 0..c and 1..c+1 are the diagonals of the
        # dense partner entries and of the padded oracle's products, and the
        # spectrum counts them
        _, h, _ = canonical_blocks()
        r = FockRealization(cutoff)
        levels = [range(cutoff + 1), range(1, cutoff + 2)]
        diagonals = []
        for i, (want, word) in enumerate(zip(levels, [(RAISE, LOWER), (LOWER, RAISE)])):
            dense = realize(h.entries[i][i], r)
            assert np.array_equal(dense, np.diag(list(want)))
            assert fock_dense_oracle(cutoff, word) == pytest.approx(np.diag(list(want)), abs=1e-12)
            diagonals.append(np.diag(dense))
        assert_fock_clusters(models("minimal:n=2"), r, diagonals)

    @pytest.mark.parametrize(
        "terms",
        [
            {(LOWER,): 1},
            {(RAISE, LOWER): 1, (RAISE, RAISE, LOWER): 2},
            {(RAISE, LOWER): 1, (LOWER,): 1j, (RAISE,): -1j},
            {(RAISE, LOWER): 1j},
            {(RAISE, LOWER): 1 + 1j},
            {(LOWER, RAISE): 0.5},
            {(LOWER, RAISE): float("nan")},
        ],
        ids=["unbalanced", "mixed", "complex-hermitian", "imaginary", "gaussian", "half", "nan"],
    )
    def test_exact_diagonal_refuses(self, models, terms):
        # a Hamiltonian block with this entry in place of Ad A is no
        # monomial, so the model refuses it where it is made; a monomial
        # block that is not the canonical one reaches the spectrum, which
        # refuses it before reading a level
        m = models("minimal:n=2")
        e = m.hamiltonian.block.entries
        block = SqmBlock([[WordSum(terms), e[0][1]], [e[1][0], e[1][1]]])
        with pytest.raises(ValueError, match="not a monomial"):
            with_hamiltonian_block(m, block)
        for broken in monomial_non_canonical_hamiltonians(m):
            for cutoff in (1, 4):
                with pytest.raises(ValueError, match=r"not diag\(Ad A, A Ad\)"):
                    spectrum(broken, FockRealization(cutoff))

    @pytest.mark.parametrize("cutoff", [1, 2, 6])
    def test_kernel_levels_against_dense_svd(self, cutoff):
        r = FockRealization(cutoff)
        for letter, levels in zip((LOWER, RAISE), r.kernel_levels()):
            sub = fock_dense_oracle(cutoff, (letter,))[:, :cutoff]
            want = [int(np.argmax(abs(v))) for v in svd_kernel(sub)]
            assert list(levels) == sorted(want)

    def test_kernel_levels_closed_form_against_the_walk(self):
        # the levels below the cutoff that each letter's walk sends to zero
        for cutoff in range(65):
            walked = tuple(
                tuple(k for k in range(cutoff) if _walk((letter,), k)[1] == 0)
                for letter in (LOWER, RAISE)
            )
            if cutoff == 0:
                assert walked == ((), ())
                with pytest.raises(ValueError):
                    FockRealization(cutoff)
            else:
                assert FockRealization(cutoff).kernel_levels() == walked

    def test_entry_against_padded_dense_oracle(self):
        r = FockRealization(5)
        for word in [(RAISE, LOWER), (LOWER, RAISE), (LOWER,), (RAISE, RAISE, LOWER)]:
            want = fock_dense_oracle(5, word)
            assert r.word_matrix(word) == pytest.approx(want, abs=1e-12)
            assert realize(WordSum({word: 1}), r) == pytest.approx(want, abs=1e-12)

    def test_involution_realization(self):
        _, _, s = canonical_blocks()
        got = realize(s, FockRealization(3))
        assert np.array_equal(got, np.diag([1, 1, 1, 1, -1, -1, -1, -1]).astype(complex))

    def test_charge_square_at_cutoff_one(self):
        # 4x4 case is exact: all ladder entries are 0 or 1; agreement holds
        # on the level-0 rows and columns of both blocks, the truncation
        # edge (top level of the lower block) differs by construction
        q, h, _ = canonical_blocks()
        r = FockRealization(1)
        sq = realize(q, r) @ realize(q, r)
        hn = realize(h, r)
        assert np.array_equal(sq, np.diag([0, 1, 1, 0]).astype(complex))
        assert np.array_equal(hn, np.diag([0, 1, 1, 2]).astype(complex))
        below = np.ix_([0, 2], [0, 2])
        assert np.array_equal(sq[below], hn[below])

    def test_charge_square_below_cutoff(self):
        q, h, _ = canonical_blocks()
        r = FockRealization(6)
        qn = realize(q, r)
        hn = realize(h, r)
        # on levels below the cutoff the square matches the Hamiltonian
        # (up to float rounding in sqrt(k)**2)
        sub = [k for k in range(6)] + [7 + k for k in range(6)]
        assert (qn @ qn)[np.ix_(sub, sub)] == pytest.approx(hn[np.ix_(sub, sub)], abs=1e-12)
        # the truncation edge (top level of the lower block) differs
        assert abs((qn @ qn)[13, 13] - hn[13, 13]) > 1

    def test_charge_hermitian(self):
        q, _, _ = canonical_blocks()
        qn = realize(q, FockRealization(5))
        assert np.array_equal(qn, qn.conj().T)

    def test_ground_states(self):
        ka, kd = ground_state_pair(FockRealization(6))
        assert (len(ka), len(kd)) == (1, 0)
        vac = np.zeros(7)
        vac[0] = 1.0
        assert abs(abs(np.dot(ka[0], vac)) - 1.0) < 1e-12
        assert FockRealization(6).kernel_levels() == ((0,), ())

    def test_cutoff_guard(self):
        with pytest.raises(ValueError):
            FockRealization(0)

    def test_an_immutable_value_of_an_integer_cutoff(self):
        assert FockRealization(6) == FockRealization(np.int64(6)) != FockRealization(7)
        assert len({FockRealization(6), FockRealization(6)}) == 1
        with pytest.raises(AttributeError):
            FockRealization(6).cutoff = 7
        # a fractional cutoff fails when made, not when its levels are walked
        with pytest.raises(TypeError):
            FockRealization(2.5)


def make_grid(points=201, spacing=0.05, w=lambda x: x):
    return GridRealization.from_function(points, spacing, w)


def stencil_hamiltonian(r: GridRealization, w, w_prime) -> np.ndarray:
    """Direct discretization of the Hamiltonian block on the grid of r:
    upper block (p^2 + W^2 - W')/2, lower block (p^2 + W^2 + W')/2, with the
    3-point second-derivative stencil and the analytic W and W'."""
    p, h2, x = r.points, r.spacing * r.spacing, r.x
    lap = (np.diag(np.full(p - 1, 1.0), 1) + np.diag(np.full(p - 1, 1.0), -1) - 2 * np.eye(p)) / h2
    base = 0.5 * (-lap + np.diag(w(x) ** 2))
    wp = 0.5 * np.diag(w_prime(x))
    out = np.zeros((2 * p, 2 * p))
    out[:p, :p] = base - wp
    out[p:, p:] = base + wp
    return out


class TestGridRealization:
    def test_finite_w_guard(self):
        with pytest.raises(ValueError):
            GridRealization(5, 0.1, np.array([0.0, 1.0, np.inf, 1.0, 0.0]))
        with pytest.raises(ValueError):
            GridRealization(5, -0.1, np.zeros(5))

    def test_a_grid_stores_the_numbers_its_guard_passed(self):
        # the int and float that check_grid returns, whatever number types
        # the caller gave, so a grid's repr, equality, hash and pickle are
        # those of a grid given them
        checked = check_grid(41, 1)
        assert checked == (41, 1.0) and type(checked[1]) is float
        w = np.zeros(5)
        unit = GridRealization(5, True, w)
        assert unit.spacing == 1.0 and type(unit.spacing) is float
        assert repr(unit) == "GridRealization(points=5, spacing=1.0, label='W')"
        assert unit.describe() == "grid(points=5, spacing=1, W=W)"
        half, plain = GridRealization(5, np.float64(0.5), w), GridRealization(5, 0.5, w)
        assert type(half.spacing) is float
        assert half == plain and hash(half) == hash(plain)
        assert pickle.dumps(half) == pickle.dumps(plain)
        for grid in (GridRealization.from_function(5, True, np.sin), make_grid_realization(5, True, "x")):
            assert type(grid.spacing) is float and grid.spacing == 1.0
        with pytest.raises(TypeError):
            GridRealization(5, "0.5", w)

    @pytest.mark.parametrize("count", [4, 6])
    def test_one_w_value_per_point(self, count):
        with pytest.raises(ValueError, match="^w_values must have one value per grid point$"):
            GridRealization(5, 0.1, np.zeros(count))

    def test_caller_array_is_copied_not_frozen(self):
        # the grid keeps its own values: a later write to the caller's array
        # changes neither them nor the ladder built from them
        w = np.linspace(-1.0, 1.0, 5)
        r = GridRealization(5, 0.5, w)
        low = r.lowering_matrix()
        w[0] = 7.0
        assert r == GridRealization(5, 0.5, np.linspace(-1.0, 1.0, 5))
        assert r.w_values[0] == -1.0
        assert np.array_equal(r.lowering_matrix(), low)

    def test_grids_are_immutable_values(self):
        a = make_grid(41, 0.25, lambda x: x**3)
        b = make_grid(41, 0.25, lambda x: x**3)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != make_grid(41, 0.25, lambda x: x**3 + 1)
        assert a != GridRealization(41, 0.25, a.w_values, label="x^3")
        assert a != FockRealization(40)
        # a grid is the plain tuple of its fields, from either side
        twin = (a.points, a.spacing, tuple(a.w_values), a.label)
        assert a == twin and twin == a and not a != twin and hash(a) == hash(twin)
        with pytest.raises(AttributeError):
            a.points = 43
        with pytest.raises(AttributeError):
            del a.label

    def test_values_are_a_tuple_of_floats_bit_for_bit(self):
        w = np.linspace(-2.0, 2.0, 41) ** 3
        r = GridRealization(41, 0.1, w)
        assert type(r.w_values) is tuple and all(type(v) is float for v in r.w_values)
        assert np.asarray(r.w_values).tobytes() == w.tobytes()

    def test_signed_zeros_compare_and_hash_alike(self):
        plus = GridRealization(5, 0.5, [0.0, 1.0, 0.0, -1.0, 0.0])
        minus = GridRealization(5, 0.5, [-0.0, 1.0, -0.0, -1.0, -0.0])
        assert np.signbit(minus.w_values[0]) and not np.signbit(plus.w_values[0])
        assert plus == minus and hash(plus) == hash(minus) and len({plus, minus}) == 1

    def test_replace_runs_every_check(self):
        r = make_grid(41, 0.25, lambda x: x**3)
        with pytest.raises(ValueError, match="^w_values must have one value per grid point$"):
            r._replace(w_values=r.w_values[:-1])
        with pytest.raises(ValueError, match="^superpotential values must be finite$"):
            r._replace(w_values=(math.inf,) * 41)
        with pytest.raises(ValueError, match="is even"):
            r._replace(points=42)
        with pytest.raises(ValueError, match="grid levels overflow float64"):
            r._replace(spacing=1e-200)
        assert r._replace(label="cubic") == (41, 0.25, r.w_values, "cubic")

    def test_pickle_round_trip(self):
        r = make_grid(41, 0.25, lambda x: x**3)
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is GridRealization and back == r and hash(back) == hash(r)
        assert np.array_equal(back.lowering_matrix(), r.lowering_matrix())

    def test_ladders_read_only_as_the_loop_builds_them(self):
        r = make_grid(41, 0.25, lambda x: x**3)
        d = np.zeros((41, 41))
        for j in range(40):
            d[j, j + 1] = 1.0 / (2.0 * r.spacing)
            d[j + 1, j] = -1.0 / (2.0 * r.spacing)
        w = np.diag(r.w_values)
        assert np.array_equal(r.lowering_matrix(), (d + w) / math.sqrt(2))
        assert np.array_equal(r.word_matrix((LOWER,)), (d + w) / math.sqrt(2))
        assert np.array_equal(r.word_matrix((RAISE,)), (-d + w) / math.sqrt(2))
        assert not r.lowering_matrix().flags.writeable
        # the raising matrix is a fresh copy: writing to one changes no later one
        r.word_matrix((RAISE,))[:] = 0.0
        assert np.array_equal(r.word_matrix((RAISE,)), (-d + w) / math.sqrt(2))

    def test_entry_against_identity_started_products(self):
        r = make_grid(41, 0.25, lambda x: x**3)
        mats = {letter: r.word_matrix((letter,)) for letter in (LOWER, RAISE)}
        _, h, _ = canonical_blocks()
        extra = WordSum({(): 2, (LOWER, LOWER, RAISE): 1j, (RAISE,): -3})
        for ws in (h.entries[0][0], h.entries[1][1], extra):
            want = np.zeros((41, 41), dtype=complex)
            for word, coeff in ws.items():
                m = np.eye(41)
                for letter in word:
                    m = m @ mats[letter]
                assert np.array_equal(r.word_matrix(word), m)
                want += coeff * m
            assert np.array_equal(realize(ws, r), want)

    def test_charge_hermitian(self):
        q, _, _ = canonical_blocks()
        qn = realize(q, make_grid(51))
        assert np.allclose(qn, qn.conj().T, atol=0)

    def test_ground_states_harmonic(self):
        r = make_grid()
        ka, kd = ground_state_pair(r)
        assert (len(ka), len(kd)) == (1, 0)
        ref = np.exp(-r.x**2 / 2)
        ref /= np.linalg.norm(ref)
        assert abs(np.dot(ka[0], ref)) > 0.999

    def test_ground_states_sign_flipped(self):
        # flipping the superpotential sign moves the kernel to the raising side
        r = make_grid(w=lambda x: -x)
        ka, kd = ground_state_pair(r)
        assert (len(ka), len(kd)) == (0, 1)
        ref = np.exp(-r.x**2 / 2)
        ref /= np.linalg.norm(ref)
        assert abs(np.dot(kd[0], ref)) > 0.999

    def test_ground_states_cubic(self):
        r = make_grid(w=lambda x: x**3)
        ka, kd = ground_state_pair(r)
        assert (len(ka), len(kd)) == (1, 0)
        ref = np.exp(-r.x**4 / 4)
        ref /= np.linalg.norm(ref)
        assert abs(np.dot(ka[0], ref)) > 0.999

    def test_raw_kernels_carry_checkerboard_artifact(self):
        r = make_grid()
        raw_a, raw_ad = r.decompose()[2]
        # one physical mode plus one grid-frequency artifact overall
        assert (len(raw_a), len(raw_ad)) == (1, 1)

    def test_charge_square_converges_to_stencil(self):
        q, _, _ = canonical_blocks()
        errs = []
        for points, spacing in ((201, 10.0 / 200), (401, 10.0 / 400)):
            r = GridRealization.from_function(points, spacing, lambda x: x**3)
            qn = realize(q, r)
            diff = qn @ qn - stencil_hamiltonian(r, lambda x: x**3, lambda x: 3 * x**2)
            x = r.x
            f = np.exp(-(x**2))
            smooth = np.concatenate([f, f])
            err = np.abs(diff @ smooth)
            p = points
            interior = np.concatenate(
                [np.arange(p // 4, 3 * p // 4), p + np.arange(p // 4, 3 * p // 4)]
            )
            errs.append(err[interior].max())
        ratio = errs[0] / errs[1]
        # central differences: second-order stencil
        assert 3.0 < ratio < 5.0
