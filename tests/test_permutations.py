from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symfock.permutations import (
    Permutation,
    RootOfUnity,
    cycle_decompose,
    eigenstructure,
    eigenvalues_to_complex,
    symmetry_residual,
)
from symfock.fock import require_invariant
from symfock.unitaries import UnitarySpec, build_unitary

from oracles import (
    haar_random_unitary,
    is_unitary,
    operator_matrix,
    parse_root,
    reconstruction_residual,
)


def random_permutation(rng, n):
    image = np.arange(n)
    rng.shuffle(image)
    return Permutation(image)


class TestRootOfUnity:
    def test_reduction(self):
        assert RootOfUnity(2, 4) == RootOfUnity(1, 2)
        assert RootOfUnity(6, 4) == RootOfUnity(1, 2)
        assert RootOfUnity(-1, 3) == RootOfUnity(2, 3)

    def test_ordering_by_phase(self):
        values = [RootOfUnity(1, 2), RootOfUnity(0, 1), RootOfUnity(1, 3)]
        assert sorted(values) == [RootOfUnity(0, 1), RootOfUnity(1, 3), RootOfUnity(1, 2)]

    def test_string_roundtrip(self):
        v = RootOfUnity(5, 6)
        assert str(v) == "5/6"
        assert parse_root("5/6") == v

    def test_to_complex(self):
        assert RootOfUnity(1, 2).to_complex() == pytest.approx(-1.0)
        assert RootOfUnity(1, 4).to_complex() == pytest.approx(1j)

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            RootOfUnity(1, 0)


roots = st.builds(RootOfUnity, st.integers(-10**6, 10**6), st.integers(1, 360))


def is_reduced(x: RootOfUnity) -> bool:
    return 0 <= x.num < x.den and gcd(x.num, x.den) == 1


class TestRootOfUnityClosure:
    @given(roots)
    def test_parse_inverts_str(self, x):
        assert is_reduced(x)
        assert parse_root(str(x)) == x


class TestPermutationParsing:
    def test_cycle_string(self):
        p = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
        assert p.one_line() == (2, 3, 1, 5, 6, 4, 8, 7)

    def test_comma_separated(self):
        assert Permutation.parse("(1,2)(3,4)").one_line() == (2, 1, 4, 3)

    def test_fixed_points_padded(self):
        p = Permutation.parse("(1 2)", n=4)
        assert p.one_line() == (2, 1, 3, 4)

    def test_repeated_element_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            Permutation.parse("(1 2)(2 3)")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="parse"):
            Permutation.parse("1 2 3")

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError, match="bijection"):
            Permutation([0, 0, 1])

    def test_one_line_non_bijection_named_as_given(self):
        with pytest.raises(ValueError, match=r"^not a bijection on 1\.\.2: \[0, 1\]$"):
            Permutation.from_one_line([0, 1])


class TestCycleDecompose:
    def test_worked_example(self):
        p = Permutation.from_one_line([2, 3, 1, 5, 6, 4, 8, 7])
        assert cycle_decompose(p) == ((1, 2, 3), (4, 5, 6), (7, 8))

    def test_identity(self):
        assert cycle_decompose(Permutation(range(4))) == ((1,), (2,), (3,), (4,))

    def test_single_cycle_order(self):
        p = Permutation.parse("(1 2 3 4 5)")
        assert cycle_decompose(p) == ((1, 2, 3, 4, 5),)
        assert p.order() == 5

    def test_order_is_lcm(self):
        assert Permutation.parse("(1 2 3)(4 5 6)(7 8)").order() == 6


class TestOperatorMatrix:
    def test_identity(self):
        assert np.array_equal(operator_matrix(Permutation(range(3))), np.eye(3))

    def test_swap(self):
        assert np.array_equal(
            operator_matrix(Permutation.parse("(1 2)")), np.array([[0, 1], [1, 0]])
        )

    def test_power_order_is_identity(self):
        p = Permutation.parse("(1 2 3)(4 5)")
        m = operator_matrix(p)
        assert np.array_equal(np.linalg.matrix_power(m, p.order()), np.eye(5))

    def test_action_matches_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_permutation(rng, 6)
            occ = tuple(rng.integers(0, 3, size=6))
            acts = np.array_equal(operator_matrix(p) @ np.array(occ), np.array(occ))
            if acts:
                assert require_invariant(p, occ) == occ
            else:
                with pytest.raises(ValueError, match="not invariant under cycle"):
                    require_invariant(p, occ)


class TestEigenstructure:
    def test_worked_example_multiset(self):
        p = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
        values = eigenstructure(p).eigenvalues
        expected = sorted(
            [RootOfUnity(1, 3), RootOfUnity(2, 3), RootOfUnity(0, 1)] * 2
            + [RootOfUnity(1, 2), RootOfUnity(0, 1)]
        )
        assert sorted(values) == expected

    def test_identity_permutation(self):
        structure = eigenstructure(Permutation(range(4)))
        assert all(v == RootOfUnity(0, 1) for v in structure.eigenvalues)
        assert np.allclose(structure.eigenvectors, np.eye(4))

    def test_swap_closed_form(self):
        structure = eigenstructure(Permutation.parse("(1 2)"))
        assert structure.eigenvalues == (RootOfUnity(0, 1), RootOfUnity(1, 2))
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.allclose(structure.eigenvectors, expected)

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_diagonalization_random(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            p = random_permutation(rng, n)
            structure = eigenstructure(p)
            assert is_unitary(structure.eigenvectors, 1e-12)
            assert reconstruction_residual(p, structure) <= 1e-12
            d = eigenvalues_to_complex(structure.eigenvalues)
            lhs = operator_matrix(p) @ structure.eigenvectors
            assert np.max(np.abs(lhs - structure.eigenvectors * d[None, :])) <= 1e-12

    def test_unit_eigenvalue_count_equals_cycle_count(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = random_permutation(rng, 9)
            ones = sum(1 for v in eigenstructure(p).eigenvalues if v == RootOfUnity(0, 1))
            assert ones == len(cycle_decompose(p))

    def test_eigenvalue_sum_equals_fixed_points(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            p = random_permutation(rng, 7)
            total = eigenvalues_to_complex(eigenstructure(p).eigenvalues).sum()
            fixed = sum(1 for j, k in enumerate(p.image) if j == k)
            assert abs(total - fixed) <= 1e-12


class TestSymmetryResidual:
    def test_constructed_unitary_satisfies_relation(self):
        p = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
        built = build_unitary(UnitarySpec(p, rotation_seed=3))
        theta = np.ones(8, dtype=complex)
        assert symmetry_residual(p, built.matrix, theta, built.eigenvalues) <= 1e-12

    def test_haar_random_matrix_breaks_relation(self):
        # a generic unitary has no mode-exchange symmetry: residual never small
        p = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
        d = eigenstructure(p).eigenvalues
        rng = np.random.default_rng(8)
        residuals = [
            symmetry_residual(p, haar_random_unitary(8, rng), np.ones(8), d)
            for _ in range(100)
        ]
        assert min(residuals) > 0.1

    def test_identity_theta_reduces_to_plain_relation(self):
        p = Permutation.parse("(1 2)(3 4)")
        built = build_unitary(UnitarySpec(p, rotation_seed=1))
        u = built.matrix
        d = eigenvalues_to_complex(built.eigenvalues)
        direct = np.max(np.abs(u[list(p.image), :] - u * d[None, :]))
        assert symmetry_residual(p, u, np.ones(4), built.eigenvalues) == pytest.approx(
            float(direct), abs=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            symmetry_residual(
                Permutation(range(3)), np.eye(2), np.ones(3), [RootOfUnity(0, 1)] * 3
            )

    def test_nondiagonal_theta_rejected(self):
        p = Permutation(range(2))
        with pytest.raises(ValueError, match="diagonal"):
            symmetry_residual(p, np.eye(2), np.ones((2, 2)), [RootOfUnity(0, 1)] * 2)
