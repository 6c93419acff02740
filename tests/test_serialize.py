import importlib.util
import json
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfock.experiments import run_fourier_comparison, run_mean_probabilities
from symfock.fock import ParticleType
from symfock.permutations import Permutation, RootOfUnity
from symfock.serialize import (
    _occupations,
    check_experiment_config,
    matrix_from_json,
    matrix_to_json,
    parse_occupation,
    parse_permutation,
    spec_from_json,
    spec_to_json,
    verdict_lines,
    write_fit_csv,
    write_metadata,
    write_verdict_csvs,
)
from symfock.suppression import OutputLaws, VerdictTable
from symfock.svg import bar_chart, write_verdict_svg
from symfock.unitaries import UnitarySpec

from oracles import (
    assert_same_table,
    count_roots,
    float_reprs,
    haar_random_unitary,
    read_fit_csv,
    read_verdict_csv,
)


#: JSON scalars of every kind: the floats repr writes in exponent form or
#: json spells its own way, non-ASCII and control characters.
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan"), 1e16, 1e-05,
                                   "\u00e9\u4e2d\U0001f600", "\x00\n\t\"\\\x7f"])
                | st.text())
#: Trees of them: lists (of plain ints too, or ints mixed with bools),
#: tuples, dicts with str keys, nested or empty.
JSON_TREES = st.recursive(
    JSON_SCALARS | st.just(()) | st.lists(st.integers(), min_size=1)
    | st.lists(st.integers() | st.booleans()),
    lambda children: (st.lists(children, max_size=4) | st.tuples(children, children)
                      | st.dictionaries(st.text(max_size=3), children, max_size=4)),
    max_leaves=20)


class TestMatrixJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        m = haar_random_unitary(4, rng)
        again = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(again, m)

    def test_format_fields(self):
        payload = matrix_to_json(np.array([[1 + 2j, 3j]]))
        assert payload == {"rows": 1, "cols": 2, "data": [[1.0, 2.0], [0.0, 3.0]]}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="entries"):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})

    def test_missing_keys_rejected(self):
        with pytest.raises(ValueError, match="rows/cols/data"):
            matrix_from_json({"rows": 1})

    @pytest.mark.parametrize("entry", [["a", 0], [1.0], 1.0, [1.0, None], [True, 0], [1, 2, 3]])
    def test_malformed_entry_rejected(self, entry):
        with pytest.raises(ValueError, match="entry 1"):
            matrix_from_json({"rows": 1, "cols": 2, "data": [[1.0, 0.0], entry]})

    def test_non_list_data_rejected(self):
        with pytest.raises(ValueError, match="list"):
            matrix_from_json({"rows": 1, "cols": 1, "data": "1+0j"})

    def test_non_integer_shape_rejected(self):
        with pytest.raises(ValueError, match="rows/cols"):
            matrix_from_json({"rows": "1", "cols": 1, "data": [[1.0, 0.0]]})


class TestOccupationAndPermutationParsing:
    def test_occupation(self):
        assert parse_occupation("[1,1,1,0,0,0,1,1]") == (1, 1, 1, 0, 0, 0, 1, 1)

    def test_occupation_rejects_floats(self):
        with pytest.raises(ValueError, match="integers"):
            parse_occupation("[1.5, 0]")

    def test_occupation_rejects_garbage(self):
        with pytest.raises(ValueError, match="parse"):
            parse_occupation("not json")

    def test_permutation_cycles(self):
        assert parse_permutation("(1 2 3)(4 5 6)(7 8)").one_line() == (2, 3, 1, 5, 6, 4, 8, 7)

    def test_permutation_one_line_json(self):
        assert parse_permutation("[2,3,1]").one_line() == (2, 3, 1)

    def test_permutation_list(self):
        assert parse_permutation([2, 1]).one_line() == (2, 1)

    @pytest.mark.parametrize("value", [[2, 1], "[2,1]", "(1 2)"])
    def test_permutation_pads_to_n_in_either_form(self, value):
        assert parse_permutation(value, n=4).one_line() == (2, 1, 3, 4)
        assert parse_permutation(value, n=2).one_line() == (2, 1)

    def test_one_line_permutation_refuses_a_smaller_n(self):
        with pytest.raises(ValueError, match=r"^n=1 smaller than one-line permutation length 2$"):
            parse_permutation([2, 1], n=1)

    def test_occupation_rejects_booleans(self):
        with pytest.raises(ValueError, match="integers"):
            parse_occupation("[true,1,1]")

    @pytest.mark.parametrize("value", ["[2.7,1.2]", [2.9, 3.1, 1.5, 4, 5, 6, 7, 8],
                                       [True, 1], "[2, \"1\"]", 5, "[2,1"])
    def test_one_line_permutation_must_hold_integers(self, value):
        with pytest.raises(ValueError, match="one-line permutation"):
            parse_permutation(value)

    @pytest.mark.parametrize("value", [[], "[]", " [ ] "])
    def test_one_line_permutation_needs_a_mode(self, value):
        with pytest.raises(ValueError, match=r"^one-line permutation must name at least one mode"):
            parse_permutation(value)

    @pytest.mark.parametrize("value", [[0, 1], "[1, 1]", [1, 3]])
    def test_one_line_non_bijection_is_named_one_based(self, value):
        given = json.loads(value) if isinstance(value, str) else value
        with pytest.raises(ValueError) as error:
            parse_permutation(value)
        assert str(error.value) == f"not a bijection on 1..2: {given}"


#: Finite floats, -0.0 and subnormals included.
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _write_read_write(to_json, from_json, value) -> tuple[str, str]:
    """The JSON text of ``value``, and that of what reading it back gives."""
    text = json.dumps(to_json(value))
    return text, json.dumps(to_json(from_json(json.loads(text))))


#: Matrix entries: any finite pair, or a unit-modulus phase exp(i a).
ENTRIES = (st.tuples(FINITE, FINITE).map(lambda pair: complex(*pair))
           | st.floats(0.0, 2 * np.pi).map(lambda a: complex(np.exp(1j * a))))


@st.composite
def complex_matrices(draw):
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    entries = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=complex).reshape(rows, cols)


@settings(max_examples=200, deadline=None)
@given(complex_matrices())
def test_matrix_json_round_trips_to_the_byte(matrix):
    text, again = _write_read_write(matrix_to_json, matrix_from_json, matrix)
    assert again == text
    read = matrix_from_json(json.loads(text))
    assert read.shape == matrix.shape and read.tobytes() == matrix.tobytes()


@st.composite
def unitary_specs(draw):
    n = draw(st.integers(1, 8))
    phases = st.none() | st.lists(FINITE, min_size=n, max_size=n).map(tuple)
    order = st.none() | st.permutations(range(1, n + 1)).map(tuple)
    return UnitarySpec(Permutation(draw(st.permutations(range(n)))),
                       theta_phases=draw(phases), sigma_phases=draw(phases),
                       rotation_seed=draw(st.none() | st.integers(0, 2**70)),
                       column_order=draw(order))


@settings(max_examples=200, deadline=None)
@given(unitary_specs())
def test_spec_json_round_trips_to_the_byte(spec):
    text, again = _write_read_write(spec_to_json, spec_from_json, spec)
    assert again == text
    assert spec_from_json(json.loads(text)) == spec


class TestSpecJson:
    def test_minimal(self):
        spec = spec_from_json({"permutation": "(1 2)"})
        assert spec.permutation.one_line() == (2, 1)
        assert spec.theta_phases is None
        assert spec.rotation_seed is None

    def test_full_roundtrip(self):
        spec = UnitarySpec(
            Permutation.parse("(1 2 3)"),
            theta_phases=(0.1, 0.2, 0.3),
            sigma_phases=(0.0, 0.0, 1.0),
            rotation_seed=12345,
            column_order=(2, 1, 3),
        )
        again = spec_from_json(spec_to_json(spec))
        assert again == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            spec_from_json({"permutation": "(1 2)", "rotations": 5})

    def test_missing_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            spec_from_json({"seed": 3})

    def test_null_optional_keys_accepted(self):
        spec = spec_from_json({"permutation": "(1 2)", "theta": None, "sigma": None,
                               "seed": None, "column_order": None})
        assert spec == UnitarySpec(Permutation.parse("(1 2)"))

    @pytest.mark.parametrize("key, value", [
        ("seed", "x"), ("seed", 1.5), ("seed", -1), ("seed", True),
        ("column_order", [2.0, 1]), ("column_order", "21"),
        ("theta", [0.0, float("nan")]), ("theta", [0.0, True]), ("theta", 0.5),
        ("theta", [10**400, 0.0]),
        ("sigma", [float("inf"), 0.0]), ("sigma", ["0", 0.0]),
    ])
    def test_bad_optional_values_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"unitary spec key '{key}' must be"):
            spec_from_json({"permutation": "(1 2)", key: value})

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="object"):
            spec_from_json(["(1 2)"])


class TestVerdictCsv:
    @pytest.fixture()
    def census_table(self):
        census = run_mean_probabilities(Permutation.parse("(1 2)"), (1, 1), num_bases=2, seed=0)
        return census.tables[ParticleType.BOSON]

    def test_roundtrip(self, tmp_path, census_table):
        path = tmp_path / "verdicts.csv"
        write_verdict_csvs({path: census_table})
        table = read_verdict_csv(path)
        assert_same_table(table, census_table)
        assert "old_fermion_suppressed" not in table.laws.columns

    def test_header_and_separator(self, tmp_path, census_table):
        path = tmp_path / "verdicts.csv"
        write_verdict_csvs({path: census_table})
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "s;lambda_phases;boson_suppressed;fermion_suppressed;"
            "p_boson;p_fermion;p_dist;class"
        )
        cells = lines[2].split(";")
        assert cells[0] == "[1,1]"
        assert cells[1] == "0/1,1/2"
        assert cells[2] == "true"
        assert cells[7] == "III"

    def test_old_law_column_roundtrip(self, tmp_path):
        comparison = run_fourier_comparison(8, 2, (1, 0, 1, 0, 1, 0, 1, 0))
        fermion = comparison.tables[ParticleType.FERMION]
        path = tmp_path / "fermion.csv"
        write_verdict_csvs({path: fermion})
        table = read_verdict_csv(path)
        old = "old_fermion_suppressed"
        assert table.laws.columns[old].tolist() == fermion.laws.columns[old].tolist()
        assert_same_table(table, fermion)

    def test_phase_cells_of_short_lived_distributions(self):
        # every row's multiset is a tuple of its own, made by a generator,
        # and each row's cell must be its own multiset's phases, in order
        def distributions():
            for k in range(200):
                yield tuple(sorted((RootOfUnity(k, 7), RootOfUnity(1, 3), RootOfUnity(1, 2))))
        column = np.full(200, 0.5)
        laws = OutputLaws(*count_roots(distributions()), np.arange(200),
                          {"boson_suppressed": np.zeros(200, dtype=bool)})
        table = VerdictTable(ParticleType.BOSON, np.ones((200, 1), dtype=np.intp), laws,
                             column, column, np.zeros(200, dtype=np.int8))  # all class IV
        cells = [line.split(";")[1] for line in list(verdict_lines(table))[1:]]
        assert cells == [",".join(map(str, group)) for group in distributions()]
        assert cells[:3] == ["0/1,1/3,1/2", "1/7,1/3,1/2", "2/7,1/3,1/2"]
        assert cells[6] == "1/3,1/2,6/7"

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 8), st.sampled_from([1, 9, 10, 12, 10**6]), st.data())
    def test_occupation_cells_of_both_paths_agree(self, n, k, high, data):
        """Counts 0-9 take the fixed-width path, any larger count the digit
        loop; one appended row of 100s sends the same rows through the loop.
        Both give each row's compact JSON array once the NULs are gone."""
        rows = st.lists(st.integers(0, high), min_size=n, max_size=n)
        outputs = np.array(data.draw(st.lists(rows, min_size=k, max_size=k)),
                           dtype=np.intp).reshape(k, n)
        fixed = _occupations(outputs)
        looped = _occupations(np.vstack([outputs, np.full((1, n), 100)]))[:-1]
        expected = [("[" + ",".join(map(str, row)) + "]").encode() for row in outputs.tolist()]
        for cells in (fixed, looped):
            assert [row.tobytes().replace(b"\0", b"") for row in cells] == expected
        if outputs.max(initial=0) <= 9:
            assert fixed.shape == (k, 2 * n + 1) and not (fixed == 0).any()

    def test_float_cells_roundtrip_exactly(self, tmp_path, census_table):
        path = tmp_path / "verdicts.csv"
        write_verdict_csvs({path: census_table})
        table = read_verdict_csv(path)
        assert table.p.tolist() == census_table.p.tolist()  # bitwise through repr
        assert list(map(repr, table.p.tolist())) == list(map(repr, census_table.p.tolist()))

    def test_row_with_missing_cells_rejected(self, tmp_path, census_table):
        path = tmp_path / "verdicts.csv"
        write_verdict_csvs({path: census_table})
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2] + [lines[2].rsplit(";", 1)[0]]) + "\n")
        with pytest.raises(ValueError, match="row 2 has 7 cells, expected 8"):
            read_verdict_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "verdicts.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="is empty: no header"):
            read_verdict_csv(path)

    def test_fit_csv_roundtrip(self, tmp_path):
        from symfock.experiments import RobustnessFit
        fit = RobustnessFit(measured=(1.23e-6, 0.5e-5), metadata={"grid": (1e-3, 2e-3)})
        path = tmp_path / "fit.csv"
        write_fit_csv(path, fit)
        grid, measured = read_fit_csv(path)
        assert grid == fit.metadata["grid"]
        assert measured == fit.measured

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fit_csv_roundtrip_to_the_bit(self, data):
        from symfock.experiments import RobustnessFit
        grid = data.draw(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                                  min_size=1, max_size=12, unique=True).map(sorted))
        finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.max])
        measured = data.draw(st.lists(finite, min_size=len(grid), max_size=len(grid)))
        fit = RobustnessFit(tuple(measured), {"grid": grid})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fit.csv"
            write_fit_csv(path, fit)
            got_grid, got_measured = read_fit_csv(path)
        assert np.array(got_grid).tobytes() == np.array(grid, dtype=float).tobytes()
        assert np.array(got_measured).tobytes() == np.array(measured, dtype=float).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fit_csv_bytes_are_those_of_float_reprs(self, data):
        """A fit CSV holds the float_reprs cells of its grid and measured
        values, integral grid values given as ints included."""
        from symfock.experiments import RobustnessFit
        number = st.floats() | st.integers(-2**70, 2**70) | st.sampled_from(
            [-0.0, 5e-324, 1e16, 1e-05, 0.0001, 123456789012345678, 2**53 + 1])
        grid = data.draw(st.lists(number, max_size=12))
        measured = data.draw(st.lists(st.floats(), min_size=len(grid), max_size=len(grid)))
        fit = RobustnessFit(tuple(measured), {"grid": grid})
        cells = float_reprs(np.array([*grid, *measured], dtype=np.float64))
        expected = "value;mean_deviation\n" + "".join(
            f"{g};{m}\n" for g, m in zip(cells[:len(grid)], cells[len(grid):]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fit.csv"
            write_fit_csv(path, fit)
            assert path.read_bytes() == expected.encode()

    def test_fit_csv_of_json_grid_ints(self, tmp_path):
        from symfock.experiments import RobustnessFit
        fit = RobustnessFit((0.0, 1e-20, 3), {"grid": [1, 2, 0.005]})
        write_fit_csv(tmp_path / "fit.csv", fit)
        assert (tmp_path / "fit.csv").read_text() == (
            "value;mean_deviation\n1.0;0.0\n2.0;1e-20\n0.005;3.0\n")

    def test_metadata_bytes_are_those_of_json_dump(self, tmp_path):
        census = run_mean_probabilities(Permutation.parse("(1 2 3)(4 5 6)(7 8)"),
                                        (1, 1, 1, 0, 0, 0, 1, 1), num_bases=2)
        fourier = run_fourier_comparison(6, 3, (1, 0, 1, 0, 1, 0))
        for metadata in (census.metadata, fourier.metadata,
                         {"nested": {"list": [1.5, -0.0, None, "\u00e9"]}, "empty": []}):
            path = tmp_path / "meta.json"
            write_metadata(path, metadata)
            oracle = tmp_path / "oracle.json"
            with open(oracle, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(metadata, fh, indent=2)
                fh.write("\n")
            assert path.read_bytes() == oracle.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(), JSON_TREES))
    def test_metadata_bytes_are_those_of_json_dumps_on_any_tree(self, metadata):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "meta.json"
            write_metadata(path, metadata)
            assert path.read_bytes() == (json.dumps(metadata, indent=2) + "\n").encode()

    def test_metadata_with_keys_that_are_not_str(self, tmp_path):
        """json converts int, float, bool and None keys to strings its own
        way; such a dict, at any depth, is written as json writes it."""
        nan = float("nan")
        for metadata in ({"a": {1: [2, 3], 1.5: {}, True: None, None: nan, "b": [{2: []}]}},
                         {"k": [{-0.0: {"x": [1, 2]}}, (1, {"y": ()})]}):
            write_metadata(tmp_path / "meta.json", metadata)
            assert (tmp_path / "meta.json").read_text() == json.dumps(metadata, indent=2) + "\n"


class TestExperimentConfigCheck:
    def test_valid_census(self):
        payload = {
            "kind": "mean-probabilities",
            "permutation": "(1 2)",
            "input_state": [1, 1],
        }
        assert check_experiment_config(payload) == []

    def test_unknown_kind(self):
        problems = check_experiment_config({"kind": "teleportation"})
        assert any("kind" in p for p in problems)

    def test_problems_are_collected_exhaustively(self):
        payload = {
            "kind": "unitary-robustness",
            "grid": [0.0, -1.0],
            "particle": "anyon",
        }
        problems = check_experiment_config(payload)
        assert len(problems) >= 4  # state, target, grid, particle, source

    @pytest.mark.parametrize("key, value, kind", [
        ("bases", "x", "mean-probabilities"),
        ("bases", 0, "mean-probabilities"),
        ("seed", 1.5, "mean-probabilities"),
        ("seed", -1, "mean-probabilities"),
        ("samples", "many", "unitary-robustness"),
        ("samples", True, "distinguishability-robustness"),
        ("seed", "0", "unitary-robustness"),
        ("rotation_seed", 2.0, "unitary-robustness"),
        ("delta_distribution", 3, "unitary-robustness"),
        ("samples", 0, "distinguishability-robustness"),
        ("seed", 1.5, "distinguishability-robustness"),
        ("particle", "anyon", "distinguishability-robustness"),
    ])
    def test_wrong_types_named(self, key, value, kind):
        payload = self.complete(kind) | {key: value}
        problems = check_experiment_config(payload)
        assert len(problems) == 1 and repr(key) in problems[0], problems

    @pytest.mark.parametrize("kind", [
        "mean-probabilities", "fourier-comparison",
        "unitary-robustness", "distinguishability-robustness",
    ])
    def test_every_key_read_is_accepted(self, kind):
        assert check_experiment_config(self.complete(kind)) == []

    @pytest.mark.parametrize("kind, key", [
        ("mean-probabilities", "base"),
        ("mean-probabilities", "samples"),
        ("fourier-comparison", "seed"),
        ("unitary-robustness", "ensemble"),
        ("distinguishability-robustness", "delta_distribution"),
        ("distinguishability-robustness", "ensemble"),
        ("distinguishability-robustness", "eta_scale"),
    ])
    def test_unknown_keys_rejected(self, kind, key):
        problems = check_experiment_config(self.complete(kind) | {key: 1})
        assert problems == [f"unknown keys for {kind}: [{key!r}]"]

    def test_permutation_beside_fourier_is_checked(self):
        payload = self.complete("unitary-robustness") | {"fourier": [2, 2], "permutation": 5}
        assert check_experiment_config(payload) == [
            "key 'permutation' must be cycle notation or a non-empty one-line list of integers, "
            "got 5",
            "robustness config needs exactly one of 'permutation' and 'fourier'"]

    def test_rotation_seed_may_be_null(self):
        payload = self.complete("unitary-robustness") | {"rotation_seed": None}
        assert check_experiment_config(payload) == []

    def test_non_string_particle_type_listed(self):
        problems = check_experiment_config(self.complete("mean-probabilities") | {"types": [1]})
        assert problems == ["unknown particle type 1"]

    def test_benchmark_configs_accepted(self, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)
        spec.loader.exec_module(workloads)
        for name in ("census", "fourier", "robustness"):
            workdir = tmp_path / name
            workdir.mkdir()
            workloads.build(name, seed=1, smoke=True, workdir=str(workdir))
            configs = sorted(workdir.glob("*.config.json"))
            assert configs
            for config in configs:
                assert check_experiment_config(json.loads(config.read_text())) == [], config

    @staticmethod
    def complete(kind):
        """A config of ``kind`` holding every key the command line reads."""
        robustness = {
            "kind": kind, "permutation": "(1 2)", "rotation_seed": 7,
            "input_state": [1, 1], "target_output": [1, 1], "particle": "boson",
            "grid": [1e-3, 2e-3, 5e-3, 1e-2], "samples": 10, "seed": 0,
        }
        return {
            "mean-probabilities": {
                "kind": kind, "permutation": "(1 2)", "input_state": [1, 1],
                "types": ["boson", "fermion", "dist"], "bases": 2, "seed": 0,
            },
            "fourier-comparison": {
                "kind": kind, "modes": 4, "order": 2, "input_state": [1, 0, 1, 0],
            },
            "unitary-robustness": robustness | {"delta_distribution": "ring"},
            "distinguishability-robustness": robustness,
        }[kind]

    def test_fourier_pair_checked(self):
        payload = {
            "kind": "distinguishability-robustness",
            "input_state": [1, 0, 1, 0],
            "target_output": [1, 1, 0, 0],
            "grid": [1e-3, 2e-3, 5e-3, 1e-2],
            "fourier": [4],
        }
        problems = check_experiment_config(payload)
        assert any("fourier" in p for p in problems)


class TestSvg:
    def test_valid_xml_with_one_rect_per_value(self, tmp_path):
        doc = bar_chart([0.1, 0.0, 0.4], ["I", "III", "IV"], title="demo")
        root = ET.fromstring(doc)
        bars = [el for el in root.iter() if el.tag.endswith("rect") and el.get("class") == "bar"]
        assert len(bars) == 3

    def test_verdict_chart_orders_suppressed_first(self, tmp_path):
        census = run_mean_probabilities(Permutation.parse("(1 2)"), (1, 1), num_bases=1, seed=0)
        table = census.tables[ParticleType.BOSON]
        path = tmp_path / "chart.svg"
        write_verdict_svg(path, table, title="hom")
        root = ET.parse(path).getroot()
        bars = [el for el in root.iter() if el.tag.endswith("rect") and el.get("class") == "bar"]
        assert len(bars) == len(table)
        heights = [float(b.get("height")) for b in bars]
        assert heights[0] == pytest.approx(0.0)  # the suppressed event leads

    def test_empty_chart_is_still_valid(self):
        ET.fromstring(bar_chart([]))
