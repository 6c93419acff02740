"""Outputs in any form: ``fock.output_rows`` passes integer arrays through
uncopied and checks everything else, so the compact lattice rows of
``fock.output_array``, an int64 copy of them and a list of tuples give the
same probabilities, laws and verdict CSV lines, and the DFT comparison
makes no (K, n) copy of its lattices."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfock.experiments import run_fourier_comparison
from symfock.fock import ParticleType, output_array, output_rows
from symfock.permutations import Permutation, RootOfUnity
from symfock.scattering import prob_boson, probabilities
from symfock.serialize import verdict_lines
from symfock.suppression import (
    boson_suppressed,
    output_laws,
    transposition_count,
    verdict_table,
)

from oracles import haar_random_unitary

NOT_INTEGERS = [1.9, 0.5, float("nan"), "2", True, np.True_, None]


class TestOutputRows:
    @pytest.mark.parametrize("dtype", [None, np.uint16, np.int8, np.int32, np.int64],
                             ids=["cached uint8", "uint16", "int8", "int32", "int64"])
    def test_integer_arrays_pass_through_uncopied(self, dtype):
        rows = output_array(4, 3, ParticleType.BOSON)
        rows = rows if dtype is None else rows.astype(dtype)
        assert output_rows(rows, 4) is rows

    def test_rows_that_do_not_cast_safely_to_intp_are_converted(self):
        rows = np.array([[2, 0], [1, 1]], dtype=np.uint64)
        got = output_rows(rows, 2)
        assert got.dtype == np.intp and got.tolist() == rows.tolist()

    @pytest.mark.parametrize("outputs", [
        [(2, 0), (1, 1)],
        [np.array([2, 0], dtype=np.uint8), (1.0, 1)],
        np.array([[2.0, 0.0], [1.0, 1.0]]),
        np.array([[2, 0], [1, 1]], dtype=object),
    ], ids=["tuples", "mixed rows", "integral floats", "object array"])
    def test_other_forms_become_checked_intp_rows(self, outputs):
        got = output_rows(outputs, 2)
        assert got.dtype == np.intp and got.tolist() == [[2, 0], [1, 1]]

    @pytest.mark.parametrize("empty", [[], (), np.zeros((0, 3), dtype=np.uint8)],
                             ids=["list", "tuple", "array"])
    def test_no_output_is_an_empty_intp_table(self, empty):
        got = output_rows(empty, 3)
        assert got.dtype == np.intp and got.shape == (0, 3)

    @pytest.mark.parametrize("entry", NOT_INTEGERS, ids=repr)
    def test_entries_that_are_not_integers_are_refused(self, entry):
        for outputs in ([(1, 1), (entry, 1)], np.array([[1, 1], [entry, 1]], dtype=object)):
            with pytest.raises(ValueError, match="must be integers") as refused:
                output_rows(outputs, 2)
            assert "\n" not in str(refused.value)

    @pytest.mark.parametrize("outputs", [np.array([[True, False]]), np.array([[1.5, 0.5]]),
                                         np.array([["1", "1"]])], ids=["bool", "float", "str"])
    def test_arrays_of_other_dtypes_are_checked_entry_by_entry(self, outputs):
        with pytest.raises(ValueError, match="must be integers"):
            output_rows(outputs, 2)


class TestNoTruncation:
    """Bools, strings and non-integral numbers are refused where the
    library takes occupations, not truncated to some other output."""

    u = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    values = (RootOfUnity(0, 1), RootOfUnity(1, 2))

    @pytest.mark.parametrize("entry", NOT_INTEGERS, ids=repr)
    def test_probabilities(self, entry):
        with pytest.raises(ValueError, match="must be integers"):
            prob_boson(self.u, (entry, 1), (2, 0))
        with pytest.raises(ValueError, match="must be integers"):
            prob_boson(self.u, (1, 1), (entry, 1))
        with pytest.raises(ValueError, match="must be integers"):
            probabilities(self.u, (1, 1), [(2, 0), (entry, 1)], ParticleType.BOSON)

    def test_the_fractional_input_of_a_truncated_output_is_refused(self):
        """(1.9, 1.1) once read as (1, 1), whose probability to (2, 0) is 1/2."""
        with pytest.raises(ValueError, match="must be integers"):
            prob_boson(self.u, (1.9, 1.1), (2, 0))

    @pytest.mark.parametrize("entry", NOT_INTEGERS, ids=repr)
    def test_laws(self, entry):
        with pytest.raises(ValueError, match="must be integers"):
            boson_suppressed(self.values, (entry, 1))
        with pytest.raises(ValueError, match="must be integers"):
            output_laws(self.values, [(0, 2), (1, entry)])

    def test_the_fractional_output_of_a_truncated_verdict_is_refused(self):
        """(0.5, 1.5) once read as (0, 1), which the law suppresses."""
        with pytest.raises(ValueError, match="must be integers"):
            boson_suppressed(self.values, (0.5, 1.5))


#: (kind, modes, particles) of the lattices of the form test. A top of 10
#: or 11 bosons takes the digit-loop occupation cells; 40 distinct
#: eigenvalues at N = 2 key past int64 (3^41 >= 2^63), which takes the
#: ``unique`` grouping.
SHAPES = [
    (ParticleType.BOSON, 2, 10),
    (ParticleType.BOSON, 3, 11),
    (ParticleType.BOSON, 5, 3),
    (ParticleType.BOSON, 40, 2),
    (ParticleType.DISTINGUISHABLE, 3, 10),
    (ParticleType.DISTINGUISHABLE, 6, 3),
    (ParticleType.DISTINGUISHABLE, 40, 2),
    (ParticleType.FERMION, 6, 3),
    (ParticleType.FERMION, 8, 4),
    (ParticleType.FERMION, 40, 2),
]

#: More eigenvalues than this are drawn all distinct.
WIDE = 13


def _three_forms(rows):
    return rows, rows.astype(np.int64), [tuple(row) for row in rows.tolist()]


def _same_laws(a, b) -> bool:
    return (a.roots == b.roots and a.root_counts.dtype == b.root_counts.dtype
            and all(np.array_equal(getattr(a, name), getattr(b, name))
                    for name in ("root_counts", "group"))
            and list(a.columns) == list(b.columns)
            and all(np.array_equal(column, b.columns[name]) for name, column in a.columns.items()))


@settings(max_examples=12, deadline=None)
@pytest.mark.parametrize("kind,n,particles", SHAPES,
                         ids=[f"{k.value}-{n}x{N}" for k, n, N in SHAPES])
@given(data=st.data())
def test_compact_wide_and_listed_outputs_agree(kind, n, particles, data):
    """The lattice rows as they are cached, as an int64 copy and as a list of
    tuples give bit-identical probabilities, for the whole lattice and a
    random subset of it, equal law fields and identical verdict lines."""
    draw = data.draw
    if n > WIDE:
        values = tuple(RootOfUnity(k, n) for k in draw(st.permutations(range(n))))
    else:
        values = tuple(draw(st.lists(st.builds(RootOfUnity, st.integers(0, 11),
                                               st.integers(1, 12)), min_size=n, max_size=n)))
    modes = draw(st.lists(st.integers(0, n - 1), min_size=particles, max_size=particles,
                          unique=kind is ParticleType.FERMION))
    r = tuple(np.bincount(modes, minlength=n).tolist())
    law = ()
    if kind is ParticleType.FERMION:
        # a symmetry that keeps r: the occupied modes among themselves, the rest too
        occupied = sorted(set(modes))
        empty = sorted(set(range(n)) - set(occupied))
        images = list(range(n))
        for group in (occupied, empty):
            for source, target in zip(group, draw(st.permutations(group))):
                images[source] = target
        perm = Permutation(images)
        law = (perm, r, transposition_count(perm, r))
    u = haar_random_unitary(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    top = output_array(n, particles, kind)
    assert top.dtype == np.uint8 and not top.flags.writeable
    picked = np.array(draw(st.lists(st.integers(0, len(top) - 1), max_size=12)), dtype=np.intp)

    for rows in (top, top[picked]):
        forms = _three_forms(rows)
        p_dist = [probabilities(u, r, s, ParticleType.DISTINGUISHABLE) for s in forms]
        p = p_dist if kind is ParticleType.DISTINGUISHABLE else [
            probabilities(u, r, s, kind) for s in forms]
        for column in (p, p_dist):
            assert column[1].tobytes() == column[0].tobytes() == column[2].tobytes()
        laws = [output_laws(values, s, *law) for s in forms]
        assert all(_same_laws(laws[0], other) for other in laws[1:])
        if n > WIDE and len(rows):  # the ``unique`` grouping: the keys would leave int64
            assert (particles + 1) ** (len(laws[0].roots) + 1) >= 2**63
        lines = [list(verdict_lines(verdict_table(laws_of_s, s, kind, p[0], p_dist[0])))
                 for laws_of_s, s in zip(laws, forms)]
        assert lines[1] == lines[0] and lines[2] == lines[0]
        if rows.max(initial=0) >= 10:  # the digit-loop cells
            cells = [line.split(";")[0][1:-1].split(",") for line in lines[0][1:]]
            assert max(len(entry) for row in cells for entry in row) == 2


def test_dft_comparison_memory_stays_below_a_lattice_copy():
    """No (K, n) copy of a lattice: after one warm call (lattices, float
    templates), the 12-mode DFT comparison at N = 6 peaks below 2.4 MB of
    traced memory. An intp copy of its 12 376 x 12 boson lattice alone is
    1.19 MB, against 148 kB for the cached uint8 rows."""
    run_fourier_comparison(12, 6, (1, 0) * 6)
    tracemalloc.start()
    try:
        comparison = run_fourier_comparison(12, 6, (1, 0) * 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert comparison.tables[ParticleType.BOSON].outputs is output_array(12, 6, ParticleType.BOSON)
    assert peak < 2_400_000
