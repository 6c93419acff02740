from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symfock.fock import (
    ParticleType,
    assignment_to_occupation,
    check_occupation,
    enumerate_outputs,
    occupation_to_assignment,
    output_array,
    particle_count,
)


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

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            assignment_to_occupation((3,), 2)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            check_occupation((1, -1))

    def test_fermionic_check(self):
        with pytest.raises(ValueError, match="fermionic"):
            check_occupation((2, 0), fermionic=True)


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
        assert bosonic == comb(n + particles - 1, particles)
        if particles <= n:
            fermionic = sum(1 for _ in enumerate_outputs(n, particles, ParticleType.FERMION))
            assert fermionic == comb(n, particles)

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
                assert got.dtype == np.intp and got.shape == expected.shape, (n, particles)
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


class TestParticleType:
    def test_parse_aliases(self):
        assert ParticleType.parse("boson") is ParticleType.BOSON
        assert ParticleType.parse("dist") is ParticleType.DISTINGUISHABLE
        assert ParticleType.parse("FERMION") is ParticleType.FERMION

    def test_parse_unknown(self):
        with pytest.raises(ValueError):
            ParticleType.parse("anyon")
