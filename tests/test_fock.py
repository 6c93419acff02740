from itertools import combinations, combinations_with_replacement
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symfock import fock
from symfock.fock import (
    LATTICE_MAX,
    ParticleType,
    check_occupation,
    enumerate_outputs,
    lattice_size,
    output_array,
    particle_count,
    particle_modes,
    require_invariant,
)
from symfock.permutations import Permutation

from oracles import assignment_to_occupation, occupation_to_assignment


class TestConversions:
    def test_worked_example(self):
        assert occupation_to_assignment((0, 2, 0, 1, 1, 1, 0, 0)) == (2, 2, 4, 5, 6)
        assert assignment_to_occupation((2, 2, 4, 5, 6), 8) == (0, 2, 0, 1, 1, 1, 0, 0)

    def test_two_singles(self):
        assert occupation_to_assignment((1, 1)) == (1, 2)

    def test_fully_bunched(self):
        assert occupation_to_assignment((4, 0, 0)) == (1, 1, 1, 1)

    def test_single_mode(self):
        assert assignment_to_occupation((1,), 1) == (1,)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            occ = tuple(int(x) for x in rng.integers(0, 4, size=n))
            assert assignment_to_occupation(occupation_to_assignment(occ), n) == occ

    def test_particle_modes_of_the_worked_example(self):
        assert particle_modes(np.array([[0, 2, 0, 1, 1, 1, 0, 0]])).tolist() == [[1, 1, 3, 4, 5]]

    @given(st.data(), st.integers(1, 8), st.integers(0, 6), st.sampled_from([np.uint8, np.intp]))
    def test_particle_modes_are_the_assignment_lists(self, data, n, particles, dtype):
        """Each row's 0-based modes, ascending, are its assignment list less
        one, in ``intp`` whatever the integer dtype of the rows."""
        modes = st.lists(st.integers(0, n - 1), min_size=particles, max_size=particles)
        rows = [np.bincount(m, minlength=n).tolist()
                for m in data.draw(st.lists(modes, min_size=1, max_size=5))]
        got = particle_modes(np.array(rows, dtype=dtype))
        assert got.dtype == np.intp and got.shape == (len(rows), particles)
        assert got.tolist() == [[m - 1 for m in occupation_to_assignment(r)] for r in rows]

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            assignment_to_occupation((3,), 2)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            check_occupation((1, -1))

    def test_fermionic_check(self):
        with pytest.raises(ValueError, match="fermionic"):
            check_occupation((2, 0), fermionic=True)

    @pytest.mark.parametrize("entry", [1.9, 0.5, float("nan"), float("inf"), "2", b"2",
                                       True, np.True_, None, 1 + 0j, np.float64(1.5)],
                             ids=repr)
    def test_entries_that_are_not_integers_are_refused(self, entry):
        """No entry is truncated: int(1.9) == 1, int('2') == 2 and
        int(True) == 1 would each give some other occupation."""
        with pytest.raises(ValueError, match="must be integers") as refused:
            check_occupation((entry, 1))
        assert "\n" not in str(refused.value)

    def test_integers_and_integral_reals_are_taken(self):
        assert check_occupation((np.uint8(3), np.int64(2), 2.0, np.float32(1.0), 0)) == (3, 2, 2, 1, 0)
        assert all(type(x) is int for x in check_occupation((np.uint8(3), 2.0)))


class TestRequireInvariant:
    """The invariance of an input under a mode permutation, the rule every
    suppression law needs, checked in one place that names the broken cycle."""

    def test_worked_example_input(self):
        p = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
        assert require_invariant(p, (1, 1, 1, 0, 0, 0, 1, 1)) == (1, 1, 1, 0, 0, 0, 1, 1)

    def test_identity_fixes_everything(self):
        assert require_invariant(Permutation(range(3)), (1, 0, 2)) == (1, 0, 2)

    def test_unequal_within_cycle(self):
        with pytest.raises(ValueError, match=r"^input state not invariant under cycle \(1, 2\)$"):
            require_invariant(Permutation.parse("(1 2)"), (2, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^occupation over 2 modes, expected 3$"):
            require_invariant(Permutation(range(3)), (1, 0))


class TestEnumerateOutputs:
    def test_worked_example_counts(self):
        assert sum(1 for _ in enumerate_outputs(8, 5, ParticleType.BOSON)) == 792
        assert sum(1 for _ in enumerate_outputs(8, 5, ParticleType.FERMION)) == 56

    def test_two_mode_bosons(self):
        assert list(enumerate_outputs(2, 2, ParticleType.BOSON)) == [
            (2, 0),
            (1, 1),
            (0, 2),
        ]

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("particles", range(0, 7))
    def test_counts_match_closed_forms(self, n, particles):
        bosonic = sum(1 for _ in enumerate_outputs(n, particles, ParticleType.BOSON))
        assert bosonic == comb(n + particles - 1, particles) == lattice_size(n, particles, False)
        if particles <= n:
            fermionic = sum(1 for _ in enumerate_outputs(n, particles, ParticleType.FERMION))
            assert fermionic == comb(n, particles) == lattice_size(n, particles, True)

    @given(n=st.integers(1, 9), particles=st.integers(0, 6))
    def test_counts_and_order_property(self, n, particles):
        bosonic = list(enumerate_outputs(n, particles, ParticleType.BOSON))
        assert len(bosonic) == comb(n + particles - 1, particles)
        assert bosonic == [assignment_to_occupation(a, n)
                           for a in combinations_with_replacement(range(1, n + 1), particles)]
        if particles <= n:
            fermionic = list(enumerate_outputs(n, particles, ParticleType.FERMION))
            assert len(fermionic) == comb(n, particles)
            assert fermionic == [assignment_to_occupation(a, n)
                                 for a in combinations(range(1, n + 1), particles)]

    def test_duplicate_free_and_sum(self):
        for kind in (ParticleType.BOSON, ParticleType.FERMION):
            seen = list(enumerate_outputs(5, 3, kind))
            assert len(set(seen)) == len(seen)
            assert all(sum(s) == 3 for s in seen)

    def test_distinguishable_matches_boson_enumeration(self):
        assert list(enumerate_outputs(4, 2, ParticleType.DISTINGUISHABLE)) == list(
            enumerate_outputs(4, 2, ParticleType.BOSON)
        )

    def test_fermion_overfill_rejected(self):
        with pytest.raises(ValueError, match="fermions"):
            list(enumerate_outputs(3, 4, ParticleType.FERMION))

    def test_particle_count(self):
        assert particle_count((1, 1, 1, 0, 0, 0, 1, 1)) == 5


class TestOutputArray:
    """``output_array`` is the array form of ``enumerate_outputs``: the same
    rows in the same order, and the same refusals."""

    @pytest.mark.parametrize("kind", ParticleType, ids=lambda k: k.value)
    def test_equals_the_streamed_enumeration(self, kind):
        for n in range(1, 8):
            for particles in range(0, 7):
                if kind is ParticleType.FERMION and particles > n:
                    continue
                expected = np.array(list(enumerate_outputs(n, particles, kind)))
                got = output_array(n, particles, kind)
                assert got.dtype == np.min_scalar_type(particles), (n, particles)
                assert got.shape == expected.shape, (n, particles)
                assert (got == expected).all(), (n, particles)

    def test_no_particles_is_one_empty_output(self):
        for kind in ParticleType:
            assert output_array(3, 0, kind).tolist() == [[0, 0, 0]]

    @given(n=st.integers(-3, 7), particles=st.integers(-3, 9),
           kind=st.sampled_from(ParticleType))
    def test_refusals_match_the_streamed_enumeration(self, n, particles, kind):
        try:
            list(enumerate_outputs(n, particles, kind))
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                output_array(n, particles, kind)
            assert str(refused.value) == str(exc)
        else:
            assert len(output_array(n, particles, kind)) >= 1

    def test_a_lattice_past_the_bound_is_refused_before_it_is_built(self, monkeypatch):
        """More than ``LATTICE_MAX`` outputs are refused in one line that
        names both numbers, with no lattice built, fermions by their 0/1
        count; the bound itself and the 490 314 outputs of 8 bosons in 16
        modes pass."""
        monkeypatch.setattr(fock, "lattice", lambda *key: pytest.fail(f"built {key}"))
        with pytest.raises(ValueError, match=r"^2203961430 outputs of 16 particles in 34 modes "
                                             r"exceed the lattice bound of 4194304$"):
            output_array(34, 16, ParticleType.FERMION)  # C(34, 16), not C(49, 16)
        assert LATTICE_MAX == 1 << 22 and lattice_size(16, 8, False) == 490_314
        monkeypatch.setattr(fock, "LATTICE_MAX", 490_314)
        monkeypatch.setattr(fock, "lattice", lambda *key: SimpleNamespace(top=key))
        assert output_array(16, 8, ParticleType.DISTINGUISHABLE) == (16, 8, False)
        monkeypatch.setattr(fock, "LATTICE_MAX", 490_313)
        with pytest.raises(ValueError, match="^490314 outputs .* bound of 490313$"):
            output_array(16, 8, ParticleType.BOSON)


class TestParticleType:
    def test_parse_aliases(self):
        assert ParticleType.parse("boson") is ParticleType.BOSON
        assert ParticleType.parse("dist") is ParticleType.DISTINGUISHABLE
        assert ParticleType.parse("FERMION") is ParticleType.FERMION

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            ParticleType.parse("anyon")
