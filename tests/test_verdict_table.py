"""The verdict table: one builder, column formatting held to the row-by-row
reference bytes, and the array form of the event classification."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfock import serialize
from symfock.cli import main
from symfock.experiments import CensusConfig, run_fourier_comparison, run_mean_probabilities
from symfock.fock import ParticleType, output_array
from symfock.permutations import Permutation, RootOfUnity
from symfock.scattering import probabilities
from symfock.serialize import read_verdict_csv, verdict_lines, write_verdict_csv
from symfock.suppression import EventClass, VerdictTable, classify_event, verdict_table
from symfock.unitaries import UnitarySpec, build_unitary

from oracles import assert_same_table, reference_verdict_lines

WORKED_PERM = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
WORKED_INPUT = (1, 1, 1, 0, 0, 0, 1, 1)
KINDS = (ParticleType.BOSON, ParticleType.FERMION, ParticleType.DISTINGUISHABLE)


def assert_reference_bytes(table, path):
    """The column writer, on disk and as lines, gives the reference bytes."""
    expected = "".join(reference_verdict_lines(table))
    assert "".join(verdict_lines(table)) == expected
    write_verdict_csv(path, table)
    assert path.read_bytes() == expected.encode()


@pytest.fixture(scope="module")
def census():
    cfg = CensusConfig(WORKED_PERM, WORKED_INPUT, num_bases=2, seed=3)
    return run_mean_probabilities(cfg)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_census_tables_keep_the_reference_bytes(census, kind, tmp_path):
    assert_reference_bytes(census.tables[kind], tmp_path / "census.csv")


def test_dft_tables_keep_the_reference_bytes(tmp_path):
    comparison = run_fourier_comparison(8, 2, (1, 0, 1, 0, 1, 0, 1, 0))
    assert comparison.boson_table.parity is None
    assert comparison.fermion_table.parity is not None
    assert_reference_bytes(comparison.boson_table, tmp_path / "boson.csv")
    assert_reference_bytes(comparison.fermion_table, tmp_path / "fermion.csv")
    header = (tmp_path / "fermion.csv").read_text().splitlines()[0]
    assert header.endswith(";class;old_fermion_suppressed")


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_cli_verdicts_keep_the_reference_bytes(kind, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"permutation": WORKED_PERM.cycle_string(), "seed": 1}))
    out = tmp_path / "verdicts.csv"
    argv = ["verdicts", "--spec", str(spec), "--input-state", json.dumps(list(WORKED_INPUT)),
            "--type", kind.value]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out

    # the table built by hand, the way the command documents it
    built = build_unitary(UnitarySpec(WORKED_PERM, rotation_seed=1))
    outputs = output_array(8, 5, kind)
    p_dist = probabilities(built.matrix, WORKED_INPUT, outputs, ParticleType.DISTINGUISHABLE)
    p = p_dist if kind is ParticleType.DISTINGUISHABLE else probabilities(
        built.matrix, WORKED_INPUT, outputs, kind)
    fermion_law = (WORKED_PERM, WORKED_INPUT) if kind is ParticleType.FERMION else ()
    table = verdict_table(built.eigenvalues, outputs, kind, p, p_dist, *fermion_law)
    expected = "".join(reference_verdict_lines(table))
    assert out.read_text() == expected
    assert stdout == expected


def hand_table(kind, p, p_dist):
    k = len(p)
    fermion_law = ()
    if kind is ParticleType.FERMION:
        fermion_law = (Permutation.identity(k), (1,) + (0,) * (k - 1), 0)
    outputs = np.eye(k, dtype=np.intp)
    eigenvalues = [RootOfUnity(0, 1)] * k
    return verdict_table(eigenvalues, outputs, kind, p, p_dist, *fermion_law)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_negative_zero_and_empty_cells(kind, tmp_path):
    p = [-0.0, 0.0, 5e-324, 0.1 + 0.2, 1.0]
    p_dist = [0.0, -0.0, 1e-300, 2.0 / 3.0, 1e-11]
    table = hand_table(kind, p_dist if kind is ParticleType.DISTINGUISHABLE else p, p_dist)
    assert_reference_bytes(table, tmp_path / "cells.csv")
    rows = [line.rstrip("\n").split(";") for line in verdict_lines(table)][1:]
    p_boson, p_fermion = [row[4] for row in rows], [row[5] for row in rows]
    fermion_cells = [row[3] for row in rows]
    if kind is ParticleType.BOSON:
        assert p_boson[0] == "-0.0" and set(p_fermion) == {""} and set(fermion_cells) == {""}
    elif kind is ParticleType.FERMION:
        assert p_fermion[0] == "-0.0" and set(p_boson) == {""} and "" not in fermion_cells
        assert [len(row) for row in rows] == [9] * len(rows)  # the parity column
    else:
        assert set(p_boson) == set(p_fermion) == set(fermion_cells) == {""}
    assert rows[1][6] == "-0.0"
    assert_same_table(read_verdict_csv(tmp_path / "cells.csv"), table)


def test_table_without_rows_roundtrips(tmp_path):
    table = verdict_table([RootOfUnity(0, 1)] * 2, np.zeros((0, 2), dtype=np.intp),
                          ParticleType.DISTINGUISHABLE, [], [])
    assert len(table) == 0
    write_verdict_csv(tmp_path / "empty.csv", table)
    assert (tmp_path / "empty.csv").read_text().count("\n") == 1
    again = read_verdict_csv(tmp_path / "empty.csv")
    assert len(again) == 0 and again.kind is ParticleType.DISTINGUISHABLE


def test_fermion_tables_and_only_they_take_the_permutation():
    eigenvalues = [RootOfUnity(0, 1), RootOfUnity(1, 2)]
    perm = Permutation.parse("(1 2)")
    outputs = output_array(2, 1, ParticleType.FERMION)
    with pytest.raises(ValueError, match="only they"):
        verdict_table(eigenvalues, outputs, ParticleType.FERMION, [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match="only they"):
        verdict_table(eigenvalues, outputs, ParticleType.BOSON, [0.5, 0.5], [0.5, 0.5],
                      perm, (1, 0))


def test_probability_columns_must_match_the_outputs():
    eigenvalues = [RootOfUnity(0, 1), RootOfUnity(1, 2)]
    outputs = output_array(2, 1, ParticleType.BOSON)
    with pytest.raises(ValueError, match="one probability per output"):
        verdict_table(eigenvalues, outputs, ParticleType.BOSON, [1.0], [0.5, 0.5])


def test_distinguishable_tables_ignore_the_law(census):
    table = census.tables[ParticleType.DISTINGUISHABLE]
    assert table.boson.any()
    assert not {EventClass.CLASS_II, EventClass.CLASS_III} & set(table.classes.tolist())


def reference_class(law, p, p_dist, tol=1e-10):
    """The one-event rule, branch by branch."""
    if law:
        return EventClass.CLASS_III if p_dist > tol else EventClass.CLASS_II
    if p <= tol and p_dist <= tol:
        return EventClass.CLASS_I
    return EventClass.ALLOWED


probability = st.sampled_from([0.0, -0.0, 1e-10, float(np.nextafter(1e-10, 1.0)), 0.3, np.nan])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), probability, probability), max_size=12))
def test_classify_event_arrays_match_the_one_event_rule(events):
    law = np.array([e[0] for e in events], dtype=bool)
    p = np.array([e[1] for e in events], dtype=float)
    p_dist = np.array([e[2] for e in events], dtype=float)
    classes = classify_event(law, p, p_dist)
    assert classes.shape == (len(events),)
    assert classes.tolist() == [reference_class(*e) for e in events]
    assert [classify_event(*e) for e in events] == classes.tolist()


# --- generated tables --------------------------------------------------------

#: Floats the byte contract must keep apart or keep whole, mixed with any float.
cell_float = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e300, 0.1 + 0.2, 1.0]),
                       st.floats(allow_nan=False))
root = st.builds(RootOfUnity, st.integers(0, 11), st.integers(1, 12))


def table_of(kind, outputs, distributions, floats, flags, classes, parity):
    """A verdict table from plain lists, one entry per row, as ``tables`` draws them."""
    k = len(outputs)

    def column(i):
        return np.array([row[i] for row in floats], dtype=float).reshape(k)

    def flag(i):
        return np.array([row[i] for row in flags], dtype=bool).reshape(k)

    p_dist = column(1)
    return VerdictTable(
        kind=kind,
        outputs=np.array(outputs, dtype=np.intp).reshape(k, -1 if k else 3),
        distributions=tuple(distributions),
        boson=flag(0),
        p=p_dist if kind is ParticleType.DISTINGUISHABLE else column(0),
        p_dist=p_dist,
        classes=np.array(classes, dtype=object).reshape(k),
        fermion=flag(1) if kind is ParticleType.FERMION else None,
        parity=flag(2) if parity else None,
    )


@st.composite
def tables(draw):
    """Tables of every kind, with and without the parity column: occupations
    up to three digits, rows that share a distribution tuple, and any float."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 12))
    rows = st.lists(st.integers(0, 150), min_size=n, max_size=n)
    outputs = draw(st.lists(rows, min_size=k, max_size=k))
    pool = draw(st.lists(st.lists(root, max_size=4).map(lambda r: tuple(sorted(r))),
                         min_size=1, max_size=3))
    distributions = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                                    min_size=k, max_size=k))]
    floats = draw(st.lists(st.tuples(cell_float, cell_float), min_size=k, max_size=k))
    flags = draw(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()),
                          min_size=k, max_size=k))
    classes = draw(st.lists(st.sampled_from(EventClass), min_size=k, max_size=k))
    return table_of(kind, outputs, distributions, floats, flags, classes,
                    draw(st.booleans()))


def bits(column):
    return np.asarray(column, dtype=float).view(np.int64).tolist()


#: An N = 0 row, multi-digit occupations, both zeros and the extreme floats in
#: one column, a repeated value; and an empty table.
EDGE_TABLES = [
    table_of(kind, [[0, 0, 0], [10, 0, 7], [0, 123, 1], [10, 0, 7]],
             [(), (RootOfUnity(1, 3),) * 2, (RootOfUnity(0, 1), RootOfUnity(1, 2)), ()],
             [(-0.0, 0.0), (0.0, -0.0), (5e-324, 1e300), (5e-324, 1e300)],
             [(True, False, True), (False, True, False), (True, True, True),
              (False, False, False)],
             [EventClass.ALLOWED, EventClass.CLASS_I, EventClass.CLASS_II, EventClass.CLASS_III],
             parity)
    for kind in KINDS for parity in (False, True)
] + [table_of(kind, [], [], [], [], [], parity) for kind in KINDS for parity in (False, True)]


def assert_roundtrip(table, path):
    """The written bytes are the reference bytes, and every column reads back,
    floats to the bit."""
    assert_reference_bytes(table, path)
    again = read_verdict_csv(path)
    if len(table) == 0:  # nothing tells the kind or the mode count of an empty table
        assert len(again) == 0 and (again.parity is None) == (table.parity is None)
        return
    assert_same_table(again, table)
    assert bits(again.p) == bits(table.p) and bits(again.p_dist) == bits(table.p_dist)


@pytest.mark.parametrize("table", EDGE_TABLES,
                         ids=lambda t: f"{t.kind.value}-{len(t)}rows-parity{t.parity is not None}")
def test_edge_tables_roundtrip(table, tmp_path):
    assert_roundtrip(table, tmp_path / "table.csv")


@settings(max_examples=150, deadline=None)
@given(tables(), st.integers(1, 13))
def test_generated_tables_roundtrip(table, block):
    """Any table, written in row blocks of any size."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "CHUNK", block)
        assert_roundtrip(table, Path(tmp) / "table.csv")
