"""The float formatter: ``serialize._float_cells`` (read through the
oracle ``float_reprs``) gives the bytes of ``repr`` for every float64, and a command's tables share one formatting
pass without changing a byte."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symfock
from symfock.experiments import run_fourier_comparison, run_mean_probabilities
from symfock.permutations import Permutation, RootOfUnity
from symfock import serialize
from symfock.serialize import verdict_lines, write_verdict_csvs

from oracles import float_reprs, reference_groups, reference_verdict_lines, row_distributions


def _both_signs(x):
    x = np.asarray(x, dtype=np.float64)
    return np.concatenate([x, -x])


def _random_bits():
    bits = np.random.default_rng(20201).integers(0, 2**64, 200_000, dtype=np.uint64)
    return bits.view(np.float64)


def _subnormals():
    return np.arange(1, 200_000, dtype=np.uint64).view(np.float64)


def _powers_of_two():
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    return np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, 0)])


def _decimal_grid():
    return np.array([float(f"{m}e{e}") for m in (1, 5, 9, 12, 123456789, 9999999999999999)
                     for e in range(-330, 309)])


def _specials():
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                     0x7FFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    extremes = [0.0, np.inf, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                sys.float_info.max, 1e-5, 1e-4, 9.999999999999999e-5, 1e16, 1e15,
                9999999999999998.0, 1.5e16, 123456.789, 0.1, 0.3]
    return np.concatenate([nans, extremes])


SWEEPS = {
    "random bit patterns": _random_bits,
    "subnormals below 200000 ulps": _subnormals,
    "powers of two and their neighbours": _powers_of_two,
    "1, 5, 9, 12, 123456789, 9999999999999999 times 10^-330..308": _decimal_grid,
    "zeros, infinities, NaN payloads and layout edges": _specials,
}


@pytest.mark.parametrize("sweep", SWEEPS.values(), ids=SWEEPS.keys())
def test_cells_are_repr(sweep):
    x = _both_signs(sweep())
    cells = float_reprs(x)
    expected = list(map(repr, x.tolist()))
    wrong = [(e, c) for e, c in zip(expected, cells) if e != c]
    assert len(cells) == len(expected) and not wrong, wrong[:5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_cells_are_repr_for_any_floats(values):
    assert float_reprs(np.array(values, dtype=np.float64)) == list(map(repr, values))


def test_any_shape_and_no_values():
    assert float_reprs([]) == []
    assert float_reprs([[0.5, -2.0], [1e100, 3]]) == ["0.5", "-2.0", "1e+100", "3.0"]


@pytest.fixture(scope="module")
def command_tables():
    """The tables each command writes together: a census and a DFT comparison."""
    census = run_mean_probabilities(Permutation.parse("(1 2 3)(4 5 6)(7 8)"),
                                    (1, 1, 1, 0, 0, 0, 1, 1), num_bases=2, seed=5)
    fourier = run_fourier_comparison(8, 2, (1, 0) * 4)
    return {"census": list(census.tables.values()),
            "fourier": list(fourier.tables.values())}


@pytest.mark.parametrize("command", ["census", "fourier"])
def test_tables_written_together_keep_their_bytes(command_tables, command, tmp_path, monkeypatch):
    """Tables written in one call share one float pass over their distinct
    values, and each file has the bytes of the table written alone and of
    the row-by-row reference."""
    tables = command_tables[command]
    formatted = []
    real = serialize._float_cells
    monkeypatch.setattr(serialize, "_float_cells",
                        lambda values: formatted.append(len(values)) or real(values))
    together = {tmp_path / f"together{index}.csv": table for index, table in enumerate(tables)}
    write_verdict_csvs(together)
    assert formatted == [len(np.unique(np.concatenate(
        [t.p.view(np.int64) for t in tables] + [t.p_dist.view(np.int64) for t in tables])))]
    for index, (path, table) in enumerate(together.items()):
        expected = "".join(reference_verdict_lines(table))
        alone = tmp_path / f"alone{index}.csv"
        write_verdict_csvs({alone: table})
        assert path.read_text() == alone.read_text() == expected
        assert "".join(verdict_lines(table)) == expected


def test_import_builds_no_table():
    source = str(Path(symfock.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]))
    probe = ("import symfock.cli; from symfock import serialize as s; "
             "print(s._power.cache_info().currsize, s._digit_words.cache_info().currsize, "
             "s._template.cache_info().currsize)")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == ["0", "0", "0"]


def test_each_eigenvalue_is_formatted_once(command_tables, monkeypatch, tmp_path):
    tables = command_tables["census"] + command_tables["fourier"]
    roots = {root for table in tables for dist in reference_groups(table.laws)
             for root in dist}
    formatted = []
    monkeypatch.setattr(RootOfUnity, "__str__",
                        lambda root: formatted.append(root) or f"{root.num}/{root.den}")
    paths = {tmp_path / f"table{index}.csv": table for index, table in enumerate(tables)}
    write_verdict_csvs(paths)
    assert sorted(formatted) == sorted(roots)
    for path, table in paths.items():
        # the NULs of the slots a cell's text leaves empty, at its end or not, are gone
        phases = [line.split(";")[1] for line in path.read_text().splitlines()[1:]]
        assert phases == [",".join(f"{v.num}/{v.den}" for v in d)
                          for d in row_distributions(table.laws)]


def test_formatter_memory_stays_near_its_source_rows():
    """Laying out the 10 510 distinct floats of the 12-mode DFT tables at
    N = 6 (262 750 bytes of cells) peaks at most at 3.1 MB: a gather index
    of 8 bytes per cell byte, made for all the values at once, would not
    fit beside the source rows."""
    tables = run_fourier_comparison(12, 6, (1, 0) * 6).tables.values()
    bits = np.concatenate([column.view(np.int64) for table in tables
                           for column in (table.p, table.p_dist)])
    values = np.unique(bits).view(np.float64)  # distinct bit patterns, as the writer takes them
    assert len(values) == 10_510
    serialize._float_cells(values)  # the cached tables (powers, digit words, templates) first
    tracemalloc.start()
    try:
        cells = serialize._float_cells(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells.nbytes == 262_750
    assert peak <= 3_100_000
