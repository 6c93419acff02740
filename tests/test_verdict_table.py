"""The verdict table: one builder, column formatting held to the row-by-row
reference bytes, and the array form of the event classification."""

import json
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symfock import serialize
from symfock.cli import main
from symfock.experiments import run_fourier_comparison, run_mean_probabilities
from symfock.fock import ParticleType, output_array
from symfock.permutations import Permutation, RootOfUnity
from symfock.scattering import probabilities
from symfock.serialize import verdict_lines, write_verdict_csvs
from symfock.suppression import (
    EventClass,
    OutputLaws,
    VerdictTable,
    output_laws,
    verdict_table,
)
from symfock.unitaries import UnitarySpec, build_unitary

from oracles import (
    assert_same_table,
    classify_event,
    count_roots,
    read_verdict_csv,
    reference_verdict_lines,
)

WORKED_PERM = Permutation.parse("(1 2 3)(4 5 6)(7 8)")
WORKED_INPUT = (1, 1, 1, 0, 0, 0, 1, 1)
KINDS = (ParticleType.BOSON, ParticleType.FERMION, ParticleType.DISTINGUISHABLE)


def assert_reference_bytes(table, path):
    """The column writer, on disk and as lines, gives the reference bytes."""
    expected = "".join(reference_verdict_lines(table))
    assert "".join(verdict_lines(table)) == expected
    write_verdict_csvs({path: table})
    assert path.read_bytes() == expected.encode()


@pytest.fixture(scope="module")
def census():
    return run_mean_probabilities(WORKED_PERM, WORKED_INPUT, num_bases=2, seed=3)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_census_tables_keep_the_reference_bytes(census, kind, tmp_path):
    assert_reference_bytes(census.tables[kind], tmp_path / "census.csv")


def test_dft_tables_keep_the_reference_bytes(tmp_path):
    tables = run_fourier_comparison(8, 2, (1, 0, 1, 0, 1, 0, 1, 0)).tables
    assert "old_fermion_suppressed" not in tables[ParticleType.BOSON].laws.columns
    assert "old_fermion_suppressed" in tables[ParticleType.FERMION].laws.columns
    assert_reference_bytes(tables[ParticleType.BOSON], tmp_path / "boson.csv")
    assert_reference_bytes(tables[ParticleType.FERMION], tmp_path / "fermion.csv")
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
    table = verdict_table(output_laws(built.eigenvalues, outputs, *fermion_law), outputs, kind,
                          p, p_dist)
    expected = "".join(reference_verdict_lines(table))
    assert out.read_text() == expected
    assert stdout == expected


def test_bunched_cli_verdicts_agree_byte_for_byte(tmp_path, capsys):
    """Six bosons in each mode of (1 2): all twelve can leave through one
    mode, so occupation cells take two digits. The command's stdout, its
    --out file and the row-by-row reference agree byte for byte."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"permutation": "(1 2)"}))
    out = tmp_path / "verdicts.csv"
    argv = ["verdicts", "--spec", str(spec), "--input-state", "[6,6]"]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out

    built = build_unitary(UnitarySpec(Permutation.parse("(1 2)")))
    outputs = output_array(2, 12, ParticleType.BOSON)
    table = verdict_table(output_laws(built.eigenvalues, outputs), outputs, ParticleType.BOSON,
                          probabilities(built.matrix, (6, 6), outputs, ParticleType.BOSON),
                          probabilities(built.matrix, (6, 6), outputs,
                                        ParticleType.DISTINGUISHABLE))
    expected = "".join(reference_verdict_lines(table))
    assert "\n[12,0];" in expected and "\n[0,12];" in expected
    assert out.read_bytes() == expected.encode()
    assert stdout == expected


def hand_table(kind, p, p_dist):
    k = len(p)
    fermion_law = ()
    if kind is ParticleType.FERMION:
        fermion_law = (Permutation(range(k)), (1,) + (0,) * (k - 1), 0)
    outputs = np.eye(k, dtype=np.intp)
    eigenvalues = [RootOfUnity(0, 1)] * k
    return verdict_table(output_laws(eigenvalues, outputs, *fermion_law), outputs, kind, p,
                         p_dist)


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
    outputs = np.zeros((0, 2), dtype=np.intp)
    table = verdict_table(output_laws([RootOfUnity(0, 1)] * 2, outputs), outputs,
                          ParticleType.DISTINGUISHABLE, [], [])
    assert len(table) == 0
    write_verdict_csvs({tmp_path / "empty.csv": table})
    assert (tmp_path / "empty.csv").read_text().count("\n") == 1
    again = read_verdict_csv(tmp_path / "empty.csv")
    assert len(again) == 0 and again.kind is ParticleType.DISTINGUISHABLE


def test_fermion_tables_and_only_they_take_the_permutation():
    eigenvalues = [RootOfUnity(0, 1), RootOfUnity(1, 2)]
    perm = Permutation.parse("(1 2)")
    outputs = output_array(2, 1, ParticleType.FERMION)
    with pytest.raises(ValueError, match=re.escape(
            "a fermion table needs fermion_suppressed, got ['boson_suppressed']")):
        verdict_table(output_laws(eigenvalues, outputs), outputs, ParticleType.FERMION,
                      [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError, match=re.escape(
            "boson and distinguishable tables carry only boson_suppressed, "
            "got ['boson_suppressed', 'fermion_suppressed']")):
        verdict_table(output_laws(eigenvalues, outputs, perm, (1, 1)), outputs,
                      ParticleType.BOSON, [0.5, 0.5], [0.5, 0.5])
    # the legacy DFT law is a fermion law too: no parity column on other tables
    for kind in (ParticleType.BOSON, ParticleType.DISTINGUISHABLE):
        with pytest.raises(ValueError, match=re.escape(
                "boson and distinguishable tables carry only boson_suppressed, "
                "got ['boson_suppressed', 'old_fermion_suppressed']")):
            verdict_table(output_laws(eigenvalues, outputs, w=1), outputs, kind,
                          [0.5, 0.5], [0.5, 0.5])
    table = verdict_table(output_laws(eigenvalues, outputs, perm, (1, 1), 1), outputs,
                          ParticleType.FERMION, [0.5, 0.5], [0.5, 0.5])
    assert list(table.laws.columns) == ["boson_suppressed", "fermion_suppressed",
                                        "old_fermion_suppressed"]


def test_probability_columns_must_match_the_outputs():
    eigenvalues = [RootOfUnity(0, 1), RootOfUnity(1, 2)]
    outputs = output_array(2, 1, ParticleType.BOSON)
    with pytest.raises(ValueError, match="one probability per output"):
        verdict_table(output_laws(eigenvalues, outputs), outputs, ParticleType.BOSON, [1.0],
                      [0.5, 0.5])
    # the laws are those of the outputs: no table of two rows from the laws of three
    more = output_array(2, 2, ParticleType.BOSON)
    with pytest.raises(ValueError, match="^need the laws of the outputs: 3 law rows, 2 outputs$"):
        verdict_table(output_laws(eigenvalues, more), outputs, ParticleType.BOSON, [0.5] * 3,
                      [0.5] * 3)


def test_distinguishable_tables_ignore_the_law(census):
    table = census.tables[ParticleType.DISTINGUISHABLE]
    assert table.laws.columns["boson_suppressed"].any()
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

#: Floats that take every path of the cell formatter: both zeros, subnormals,
#: 17 significant digits, and the fixed and exponent forms on either side of
#: the thresholds between them.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.0, 0.1 + 0.2, 1 / 3,
               -2 ** 0.5, 1e-05, 0.0001, 0.00012345678901234567, 9999999999999998.0, 1e16,
               1.5e16, 1.2345678901234567e19, 1e22, 1e-300, 1e300]
SMALLEST_NORMAL = 2.2250738585072014e-308
#: Any float but NaN (a CSV cell keeps no NaN payload), with the edges and
#: the subnormals drawn often.
cell_float = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False),
                       st.floats(min_value=-SMALLEST_NORMAL, max_value=SMALLEST_NORMAL))
#: Occupations of one to seven digits, none negative: ``verdict_table``
#: takes every table's rows through ``fock.output_rows``, which refuses a
#: negative entry, so the writer has no sign slot.
occupation = st.one_of(st.integers(0, 3), st.integers(10, 150), st.integers(1000, 10**6))
root = st.builds(RootOfUnity, st.integers(0, 11), st.integers(1, 12))


#: Each class's code, its place in ``EventClass``.
CODES = {event: code for code, event in enumerate(EventClass)}
#: The law columns a table may have after ``class``: the legacy DFT law and
#: two names that only these tests give a law, as a new law would add one.
LATER_LAWS = ("old_fermion_suppressed", "test_law_a", "test_law_b")


def table_of(kind, outputs, distributions, floats, flags, classes, later=()):
    """A verdict table from plain lists, one entry per row, as ``tables`` draws
    them; ``classes`` holds ``EventClass`` members, stored as their codes.
    Row i's ``flags`` hold its boson and fermion laws, then one entry for
    each name of ``later``, the table's law columns after the fixed ones."""
    k = len(outputs)

    def column(i):
        return np.array([row[i] for row in floats], dtype=float).reshape(k)

    def flag(i):
        return np.array([row[i] for row in flags], dtype=bool).reshape(k)

    p_dist = column(1)
    groups = tuple(dict.fromkeys(distributions))
    roots, root_counts = count_roots(groups)
    laws = {"boson_suppressed": flag(0)}
    if kind is ParticleType.FERMION:
        laws["fermion_suppressed"] = flag(1)
    laws.update((name, flag(2 + i)) for i, name in enumerate(later))
    return VerdictTable(
        kind=kind,
        outputs=np.array(outputs, dtype=np.intp).reshape(k, -1 if k else 3),
        laws=OutputLaws(roots, root_counts,
                        np.array([groups.index(d) for d in distributions], dtype=np.intp), laws),
        p=p_dist if kind is ParticleType.DISTINGUISHABLE else column(0),
        p_dist=p_dist,
        codes=np.array([CODES[event] for event in classes], dtype=np.int8).reshape(k),
    )


@st.composite
def tables(draw):
    """Tables of every kind, with any of the later law columns in any order
    (the parity column and zero to two test-only ones), of zero to twelve
    rows over one to five modes: multi-digit occupations, rows that share a
    distribution tuple, and any float."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 12))
    rows = st.lists(occupation, min_size=n, max_size=n)
    outputs = draw(st.lists(rows, min_size=k, max_size=k))
    pool = draw(st.lists(st.lists(root, max_size=4).map(lambda r: tuple(sorted(r))),
                         min_size=1, max_size=3))
    distributions = [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1),
                                                    min_size=k, max_size=k))]
    floats = draw(st.lists(st.tuples(cell_float, cell_float), min_size=k, max_size=k))
    later = draw(st.lists(st.sampled_from(LATER_LAWS), unique=True))
    flags = draw(st.lists(st.lists(st.booleans(), min_size=2 + len(later),
                                   max_size=2 + len(later)), min_size=k, max_size=k))
    classes = draw(st.lists(st.sampled_from(EventClass), min_size=k, max_size=k))
    return table_of(kind, outputs, distributions, floats, flags, classes, later)


def bits(column):
    return np.asarray(column, dtype=float).view(np.int64).tolist()


#: Later law columns of the edge tables: none, the parity column, and the
#: parity column between two test-only ones, out of name order.
EDGE_LATER = ((), ("old_fermion_suppressed",), ("test_law_b", "old_fermion_suppressed",
                                                "test_law_a"))
#: An N = 0 row, multi-digit occupations, both zeros and the extreme floats in
#: one column, a repeated value; and an empty table.
EDGE_TABLES = [
    table_of(kind, [[0, 0, 0], [10, 0, 7], [0, 123, 1], [10, 0, 7]],
             [(), (RootOfUnity(1, 3),) * 2, (RootOfUnity(0, 1), RootOfUnity(1, 2)), ()],
             [(-0.0, 0.0), (0.0, -0.0), (5e-324, 1e300), (5e-324, 1e300)],
             [(True, False, True, False, True), (False, True, False, True, True),
              (True, True, True, False, False), (False, False, False, True, False)],
             [EventClass.ALLOWED, EventClass.CLASS_I, EventClass.CLASS_II, EventClass.CLASS_III],
             later)
    for kind in KINDS for later in EDGE_LATER
] + [table_of(kind, [], [], [], [], [], later) for kind in KINDS for later in EDGE_LATER]


def later_laws(table) -> list:
    """The table's law columns that are not among the fixed CSV columns."""
    return [name for name in table.laws.columns if name not in serialize.VERDICT_COLUMNS]


def assert_roundtrip(table, path):
    """The written bytes are the reference bytes, the later law columns follow
    ``class`` in the table's order, and every column reads back, floats to
    the bit."""
    assert_reference_bytes(table, path)
    header = path.read_text().split("\n", 1)[0].split(";")
    assert header == [*serialize.VERDICT_COLUMNS, *later_laws(table)]
    again = read_verdict_csv(path)
    if len(table) == 0:  # nothing tells the kind or the mode count of an empty table
        assert len(again) == 0 and later_laws(again) == later_laws(table)
        return
    assert_same_table(again, table)
    assert bits(again.p) == bits(table.p) and bits(again.p_dist) == bits(table.p_dist)


def edge_id(table) -> str:
    later = later_laws(table)
    return "-".join([table.kind.value, f"{len(table)}rows",
                     f"parity{'old_fermion_suppressed' in later}",
                     *(name for name in later if name.startswith("test_"))])


@pytest.mark.parametrize("table", EDGE_TABLES, ids=edge_id)
def test_edge_tables_roundtrip(table, tmp_path):
    assert_roundtrip(table, tmp_path / "table.csv")


@settings(max_examples=150, deadline=None)
@given(tables(), st.integers(1, 13))
@example(table_of(ParticleType.BOSON, [[12], [0], [1000000]], [(), (RootOfUnity(1, 2),), ()],
                  [(-0.0, 5e-324), (0.1 + 0.2, 1e-05), (1e16, 0.0001)],
                  [(True, False, False)] * 3, [EventClass.CLASS_II] * 3), 2)
def test_generated_tables_roundtrip(table, block):
    """Any table, with any later law columns, written in row blocks of any
    size: the file and the lines of the block writer are the row-by-row
    reference bytes, the later law columns follow ``class`` in the table's
    order, and the reader reads every column back."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "CHUNK", block)
        assert_roundtrip(table, Path(tmp) / "table.csv")


def test_writer_memory_stays_one_block(tmp_path, monkeypatch):
    """The row blocks bound the writer's memory: writing the 12 376 rows of
    the 12-mode DFT boson table at N = 6 (a 1.3 MB file) from its formatted
    cells allocates at most 0.5 MB at the peak, whatever the number of rows."""
    table = run_fourier_comparison(12, 6, (1, 0) * 6).tables[ParticleType.BOSON]
    cells = serialize._cell_columns([table])
    monkeypatch.setattr(serialize, "_cell_columns", lambda tables: cells)
    path = tmp_path / "boson.csv"
    tracemalloc.start()
    try:
        write_verdict_csvs({path: table})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1_300_000
    assert peak <= 500_000
