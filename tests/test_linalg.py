from math import factorial

import numpy as np
import pytest

from symfock.linalg import determinant, permanent_ryser, permutation_signs, permutation_table

from oracles import (
    haar_random_unitary,
    is_unitary,
    leibniz_determinant,
    permanent_exact,
    permanent_naive,
    reference_permutation_signs,
)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestPermanentNaive:
    def test_identity_2x2(self):
        assert permanent_naive(np.eye(2)) == pytest.approx(1.0)

    def test_all_ones_2x2(self):
        assert permanent_naive(np.ones((2, 2))) == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_ones_is_factorial(self, n):
        from math import factorial
        assert permanent_naive(np.ones((n, n))) == pytest.approx(factorial(n))

    def test_zero_row_exact_zero(self):
        rng = np.random.default_rng(1)
        m = random_complex(rng, 4)
        m[2, :] = 0.0
        assert permanent_naive(m) == 0.0

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            permanent_naive(np.ones((2, 3)))

    def test_rejects_large(self):
        with pytest.raises(ValueError, match="<= 10"):
            permanent_naive(np.eye(11))

    def test_rejects_nan(self):
        m = np.eye(3, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            permanent_naive(m)


class TestPermanentRyser:
    def test_identity_3x3(self):
        assert permanent_ryser(np.eye(3)) == pytest.approx(1.0)

    def test_all_ones_3x3(self):
        assert permanent_ryser(np.ones((3, 3))) == pytest.approx(6.0)

    def test_matches_naive_on_random_5x5(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = random_complex(rng, 5)
            expected = permanent_naive(m)
            assert permanent_ryser(m) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_naive_all_sizes(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            m = random_complex(rng, n)
            assert permanent_ryser(m) == pytest.approx(permanent_naive(m), rel=1e-10)

    def test_zero_row_exact_zero(self):
        rng = np.random.default_rng(7)
        m = random_complex(rng, 5)
        m[0, :] = 0.0
        assert permanent_ryser(m) == 0.0

    @pytest.mark.parametrize("n", range(11))
    def test_all_ones_is_exactly_factorial(self, n):
        # every term is an integer below 2^53, so the sum is exact
        assert permanent_ryser(np.ones((n, n))) == factorial(n)

    @pytest.mark.parametrize("n", range(17))
    def test_permutation_matrix_is_exactly_one(self, n):
        matrix = np.eye(n)[np.random.default_rng(n).permutation(n)]
        assert permanent_ryser(matrix) == 1.0

    @pytest.mark.parametrize("seed", range(3))
    def test_n12_within_1e_12_of_the_exact_permanent(self, seed):
        m = random_complex(np.random.default_rng(1200 + seed), 12)
        exact = permanent_exact(m)
        assert abs(permanent_ryser(m) - exact) <= 1e-12 * abs(exact)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            permanent_ryser(np.ones((3, 2)))


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(6)) == pytest.approx(1.0)

    def test_2x2_closed_form(self):
        a, b, c, d = 1.3 + 0.2j, -0.7j, 2.0, 0.5 - 1.1j
        assert determinant(np.array([[a, b], [c, d]])) == pytest.approx(a * d - b * c)

    def test_repeated_row_is_singular(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, 4)
        m[3, :] = m[1, :]
        assert abs(determinant(m)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_signed_permutation_sum(self, n):
        rng = np.random.default_rng(n + 100)
        for _ in range(10):
            m = random_complex(rng, n)
            expected = leibniz_determinant(m)
            assert determinant(m) == pytest.approx(expected, rel=1e-10)

    def test_multiplicative_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a, b = random_complex(rng, 5), random_complex(rng, 5)
            assert determinant(a @ b) == pytest.approx(
                determinant(a) * determinant(b), rel=1e-10
            )

    def test_agrees_with_numpy(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            m = random_complex(rng, 6)
            assert determinant(m) == pytest.approx(complex(np.linalg.det(m)), rel=1e-9)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            determinant(np.ones((2, 3)))


@pytest.mark.parametrize("n", range(9))
def test_permutation_signs_match_the_cycle_walk_and_the_determinant(n):
    signs = permutation_signs(n)
    assert signs.dtype == np.float64 and signs.shape == (factorial(n),)
    assert signs.tobytes() == reference_permutation_signs(n).tobytes()
    # the LU determinant of each permutation matrix is exactly +1.0 or -1.0
    table = permutation_table(n)
    for start in range(0, len(table), 5040):
        matrices = np.eye(n)[table[start:start + 5040]]
        assert (determinant(matrices) == signs[start:start + 5040]).all()


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(np.eye(4))

    def test_balanced_beam_splitter(self):
        bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert is_unitary(bs, 1e-12)

    def test_scaled_row_fails(self):
        m = np.eye(3, dtype=complex)
        m[1, :] *= 2.0
        assert not is_unitary(m)

    def test_nonsquare_is_false(self):
        assert not is_unitary(np.ones((2, 3)))


class TestHaarRandomUnitary:
    def test_dimension_one_is_a_phase(self):
        u = haar_random_unitary(1, 5)
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitary_at_tight_tolerance(self):
        assert is_unitary(haar_random_unitary(3, 1234), 1e-12)

    def test_seed_reproducibility_bitwise(self):
        a = haar_random_unitary(5, 99)
        b = haar_random_unitary(5, 99)
        assert a.tobytes() == b.tobytes()

    def test_generator_stream_advances(self):
        rng = np.random.default_rng(0)
        a = haar_random_unitary(3, rng)
        b = haar_random_unitary(3, rng)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_first_moment_vanishes(self):
        # Haar columns have zero mean; Monte-Carlo bound on the sample mean
        rng = np.random.default_rng(2024)
        total = np.zeros((2, 2), dtype=complex)
        for _ in range(10_000):
            total += haar_random_unitary(2, rng)
        assert np.max(np.abs(total / 10_000)) < 0.05

    def test_rejects_dimension_zero(self):
        with pytest.raises(ValueError):
            haar_random_unitary(0, 1)
