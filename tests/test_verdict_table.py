"""The verdict table: one builder, column formatting held to the row-by-row
reference bytes, and the array form of the event classification."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfock.cli import main
from symfock.experiments import CensusConfig, run_fourier_comparison, run_mean_probabilities
from symfock.fock import ParticleType, output_array
from symfock.permutations import Permutation, RootOfUnity
from symfock.scattering import probabilities
from symfock.serialize import read_verdict_csv, verdict_lines, write_verdict_csv
from symfock.suppression import EventClass, classify_event, verdict_table
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
