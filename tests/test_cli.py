import inspect
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import symfock
from symfock import cli, experiments, fock, serialize, unitaries
from symfock.cli import build_parser, main
from symfock.serialize import EXPERIMENT_KEYS, matrix_to_json

from oracles import haar_random_unitary, read_verdict_csv

BEAM_SPLITTER = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.fixture()
def hom_unitary_file(tmp_path):
    path = tmp_path / "bs.json"
    path.write_text(json.dumps(matrix_to_json(BEAM_SPLITTER)))
    return str(path)


@pytest.fixture()
def hom_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"permutation": "(1 2)"}))
    return str(path)


class TestDecompose:
    def test_worked_example(self, capsys):
        assert main(["decompose", "--permutation", "(1 2 3)(4 5 6)(7 8)"]) == 0
        out = capsys.readouterr().out
        assert "cycles: (1 2 3) (4 5 6) (7 8)" in out
        assert "order: 6" in out
        assert "eigenvalues: 0/1, 1/3, 2/3, 0/1, 1/3, 2/3, 0/1, 1/2" in out

    def test_trivial(self, capsys):
        assert main(["decompose", "--permutation", "(1)"]) == 0
        assert "order: 1" in capsys.readouterr().out

    def test_repeated_element_is_usage_error(self, capsys):
        assert main(["decompose", "--permutation", "(1 2)(2 3)"]) == 1
        assert "repeated" in capsys.readouterr().err

    def test_missing_subcommand(self):
        assert main([]) == 1

    def test_one_line_form_takes_modes_as_cycle_notation_does(self, capsys):
        outs = []
        for permutation in ("[2,1]", "(1 2)"):
            assert main(["decompose", "--permutation", permutation, "--modes", "4"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "permutation: (1 2)(3)(4)\none-line: [2, 1, 3, 4]\n" in outs[0]

    @pytest.mark.parametrize("permutation, message", [
        ("[2,1]", "n=1 smaller than one-line permutation length 2"),
        ("(1 2)", "n=1 smaller than largest cycle element 2"),
    ])
    def test_fewer_modes_than_the_permutation_is_usage_error(self, capsys, permutation, message):
        assert main(["decompose", "--permutation", permutation, "--modes", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestBuild:
    def test_writes_unitary_and_eigenvalues(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"permutation": "(1 2)", "seed": 3}))
        out = tmp_path / "built.json"
        assert main(["build", "--spec", str(spec), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["eigenvalues"] == ["0/1", "1/2"]
        assert payload["unitary"]["rows"] == 2

    def test_stdout_mode(self, hom_spec_file, capsys):
        assert main(["build", "--spec", hom_spec_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["permutation"] == "(1 2)"


class TestProb:
    def test_hom_boson_dip(self, hom_unitary_file, capsys):
        code = main([
            "prob", "--unitary", hom_unitary_file,
            "--input-state", "[1,1]", "--output-state", "[1,1]", "--type", "boson",
        ])
        assert code == 0
        assert capsys.readouterr().out.strip() == "0.000000000000000"

    def test_hom_distinguishable(self, hom_unitary_file, capsys):
        main([
            "prob", "--unitary", hom_unitary_file,
            "--input-state", "[1,1]", "--output-state", "[1,1]", "--type", "dist",
        ])
        assert capsys.readouterr().out.strip() == "0.500000000000000"

    def test_partial_identity_gram_equals_dist(self, hom_unitary_file, tmp_path, capsys):
        gram = tmp_path / "gram.json"
        gram.write_text(json.dumps(matrix_to_json(np.eye(2, dtype=complex))))
        main([
            "prob", "--unitary", hom_unitary_file,
            "--input-state", "[1,1]", "--output-state", "[1,1]",
            "--type", "boson", "--distinguishability", str(gram),
        ])
        assert capsys.readouterr().out.strip() == "0.500000000000000"

    def test_partial_seven_particles_all_ones_gram_equals_boson(self, tmp_path, capsys):
        unitary, gram = tmp_path / "u.json", tmp_path / "gram.json"
        unitary.write_text(json.dumps(matrix_to_json(haar_random_unitary(8, 70))))
        gram.write_text(json.dumps(matrix_to_json(np.ones((8, 8), dtype=complex))))
        args = ["prob", "--unitary", str(unitary), "--input-state", "[1,1,1,1,0,1,1,1]",
                "--output-state", "[2,0,1,1,1,0,2,0]"]
        assert main([*args, "--type", "boson"]) == 0
        boson = capsys.readouterr().out.strip()
        assert main([*args, "--type", "boson", "--distinguishability", str(gram)]) == 0
        assert capsys.readouterr().out.strip() == boson
        assert float(boson) > 0

    def test_partial_without_gram_is_usage_error(self, hom_unitary_file, capsys):
        """``partial`` is no choice of ``--type``: argparse refuses it."""
        code = main([
            "prob", "--unitary", hom_unitary_file,
            "--input-state", "[1,1]", "--output-state", "[1,1]", "--type", "partial",
        ])
        assert code == 1

    @pytest.mark.parametrize("gram, kind, expected", [
        (np.eye(2), "boson", "0.500000000000000"),
        (np.ones((2, 2)), "boson", "0.000000000000000"),
        (np.eye(2), "fermion", "0.500000000000000"),
        (np.ones((2, 2)), "fermion", "1.000000000000000"),
    ], ids=["identity-boson", "ones-boson", "identity-fermion", "ones-fermion"])
    def test_type_sets_the_statistics_of_a_gram_matrix(self, hom_unitary_file, tmp_path, capsys,
                                                       gram, kind, expected):
        """``--distinguishability`` runs the single sum for the ``--type``
        given: the identity Gram matrix gives distinguishable particles, the
        all-ones one the ideal bosons or fermions."""
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(matrix_to_json(gram.astype(complex))))
        assert main(["prob", "--unitary", hom_unitary_file, "--input-state", "[1,1]",
                     "--output-state", "[1,1]", "--type", kind,
                     "--distinguishability", str(path)]) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_dist_with_gram_is_one_line_error(self, hom_unitary_file, tmp_path, capsys):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(2, dtype=complex))))
        assert main(["prob", "--unitary", hom_unitary_file, "--input-state", "[1,1]",
                     "--output-state", "[1,1]", "--type", "dist",
                     "--distinguishability", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: partial distinguishability applies to bosons or "
                                "fermions\n")

    @pytest.mark.parametrize("retired", [["--type", "partial"],
                                         ["--partial-statistics", "fermion"]])
    def test_retired_partial_spellings_are_one_line_errors(self, hom_unitary_file, tmp_path,
                                                           capsys, retired):
        path = tmp_path / "gram.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(2, dtype=complex))))
        assert main(["prob", "--unitary", hom_unitary_file, "--input-state", "[1,1]",
                     "--output-state", "[1,1]", "--distinguishability", str(path),
                     *retired]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err

    def test_malformed_matrix_entry_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 1, "cols": 1, "data": [["a", 0]]}))
        code = main([
            "prob", "--unitary", str(path),
            "--input-state", "[1]", "--output-state", "[1]",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("kind", ["boson", "dist"])
    def test_reads_the_file_build_writes(self, tmp_path, capsys, kind):
        """``prob --unitary`` takes the ``build --out`` JSON, with the matrix
        under "unitary", and prints what it prints for the bare matrix."""
        spec, built, bare = tmp_path / "spec.json", tmp_path / "u.json", tmp_path / "matrix.json"
        spec.write_text(json.dumps({"permutation": "(1 2 3)(4 5 6)(7 8)", "seed": 1}))
        assert main(["build", "--spec", str(spec), "--out", str(built)]) == 0
        bare.write_text(json.dumps(json.loads(built.read_text())["unitary"]))
        capsys.readouterr()
        printed = []
        for path in (built, bare):
            assert main(["prob", "--unitary", str(path), "--input-state", "[1,1,1,0,0,0,1,1]",
                         "--output-state", "[1,1,0,1,1,0,1,0]", "--type", kind]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        # a class-III output: zero for bosons, not for distinguishable particles
        assert (float(printed[0]) == 0) == (kind == "boson")

    def test_dimension_mismatch(self, hom_unitary_file, capsys):
        code = main([
            "prob", "--unitary", hom_unitary_file,
            "--input-state", "[1,1,0]", "--output-state", "[1,1,0]",
        ])
        assert code == 1


@pytest.mark.parametrize("command", [["build"], ["verdicts", "--input-state", "[1,1]"]])
@pytest.mark.parametrize("key, value", [
    ("seed", "x"), ("seed", 1.5), ("column_order", [1.0, 2]),
    ("theta", [0.0, float("nan")]), ("theta", [10**400, 0.0]), ("sigma", [False, 0.0]),
])
def test_bad_spec_value_is_one_line_error(tmp_path, capsys, command, key, value):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"permutation": "(1 2)", key: value}))
    assert main([command[0], "--spec", str(spec), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: unitary spec key '{key}' must be"), captured.err
    assert captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("command", [["build"], ["verdicts", "--input-state", "[1,1]"]])
@pytest.mark.parametrize("permutation, message", [
    ([0, 1], "not a bijection on 1..2: [0, 1]"),
    ([1, 1], "not a bijection on 1..2: [1, 1]"),
    ([], "one-line permutation must name at least one mode, got []"),
])
def test_bad_one_line_permutation_is_one_line_error(tmp_path, capsys, command, permutation, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"permutation": permutation}))
    assert main([command[0], "--spec", str(spec), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


class TestVerdicts:
    def test_hom_three_rows(self, hom_spec_file, tmp_path):
        out = tmp_path / "verdicts.csv"
        code = main([
            "verdicts", "--spec", hom_spec_file,
            "--input-state", "[1,1]", "--type", "boson", "--out", str(out),
        ])
        assert code == 0
        table = read_verdict_csv(out)
        assert len(table) == 3

    def test_worked_example_row_count_and_svg(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"permutation": "(1 2 3)(4 5 6)(7 8)", "seed": 1}))
        out = tmp_path / "verdicts.csv"
        svg = tmp_path / "verdicts.svg"
        code = main([
            "verdicts", "--spec", str(spec),
            "--input-state", "[1,1,1,0,0,0,1,1]",
            "--type", "boson", "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        assert len(read_verdict_csv(out)) == 792
        bars = [
            el for el in ET.parse(svg).getroot().iter()
            if el.tag.endswith("rect") and el.get("class") == "bar"
        ]
        assert len(bars) == 792

    def test_fermionic_doubly_occupied_rejected(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"permutation": "(1 2)"}))
        code = main([
            "verdicts", "--spec", str(spec),
            "--input-state", "[2,2]", "--type", "fermion",
        ])
        assert code == 1
        assert "fermionic occupation exceeds 1 in (2, 2)" in capsys.readouterr().err

    def test_invariance_violation_names_cycle(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"permutation": "(1 2 3)(4 5 6)(7 8)"}))
        code = main([
            "verdicts", "--spec", str(spec), "--input-state", "[1,1,0,0,0,0,1,1]",
        ])
        assert code == 1
        assert "(1, 2, 3)" in capsys.readouterr().err


class TestExperiment:
    def run_census(self, tmp_path, seed, out_name):
        config = tmp_path / "census.json"
        config.write_text(json.dumps({
            "kind": "mean-probabilities",
            "permutation": "(1 2 3)(4 5 6)(7 8)",
            "input_state": [1, 1, 1, 0, 0, 0, 1, 1],
            "bases": 3,
            "types": ["boson", "fermion"],
        }))
        out = tmp_path / out_name
        code = main([
            "experiment", "--config", str(config),
            "--out", str(out), "--seed", str(seed), "--threads", "1",
        ])
        assert code == 0
        return out

    def test_census_outputs_and_determinism(self, tmp_path):
        out1 = self.run_census(tmp_path, 11, "a")
        out2 = self.run_census(tmp_path, 11, "b")
        for suffix in (".boson.csv", ".fermion.csv"):
            b1 = (tmp_path / ("a" + suffix)).read_bytes()
            b2 = (tmp_path / ("b" + suffix)).read_bytes()
            assert b1 == b2
        meta = json.loads((tmp_path / "a.meta.json").read_text())
        assert meta["max_suppressed"]["boson"] <= 1e-20
        assert meta["seed"] == 11

    def test_threads_change_no_byte(self, tmp_path, capsys):
        config = tmp_path / "census.json"
        config.write_text(json.dumps({
            "kind": "mean-probabilities",
            "permutation": "(1 2 3)(4 5 6)(7 8)",
            "input_state": [1, 1, 1, 0, 0, 0, 1, 1],
            "bases": 3,
        }))
        outputs = {}
        for label, threads in (("none", []), ("one", ["--threads", "1"]),
                               ("three", ["--threads", "3"])):
            out = tmp_path / label
            assert main(["experiment", "--config", str(config), "--out", str(out), *threads]) == 0
            meta = json.loads((tmp_path / f"{label}.meta.json").read_text())
            del meta["timing_seconds"]
            outputs[label] = [meta] + [(tmp_path / f"{label}.{kind}.csv").read_bytes()
                                       for kind in ("boson", "fermion", "dist")]
        assert outputs["none"] == outputs["one"] == outputs["three"]
        with pytest.raises(SystemExit):
            main(["experiment", "--help"])
        assert "--threads" not in capsys.readouterr().out

    def test_one_line_census_permutation_pads_to_the_input(self, tmp_path):
        # [2, 1] on a 4-mode input is (1 2)(3)(4), as the cycle form is
        files = []
        for name, permutation in (("line", [2, 1]), ("cycles", "(1 2)")):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({"kind": "mean-probabilities", "permutation": permutation,
                                          "input_state": [1, 1, 0, 0], "bases": 2}))
            assert main(["experiment", "--config", str(config), "--out", str(tmp_path / name)]) == 0
            files.append({suffix: (tmp_path / f"{name}{suffix}").read_bytes()
                          for suffix in (".boson.csv", ".fermion.csv", ".dist.csv")})
            meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
            files[-1]["meta"] = {key: value for key, value in meta.items()
                                 if key != "timing_seconds"}
        assert files[0] == files[1]

    @pytest.mark.parametrize("permutation, message", [
        ([2, 1], "n=1 smaller than one-line permutation length 2"),
        ("(1 2)", "n=1 smaller than largest cycle element 2"),
    ])
    def test_census_input_narrower_than_its_permutation_is_refused(self, tmp_path, capsys,
                                                                    permutation, message):
        config = tmp_path / "census.json"
        config.write_text(json.dumps({"kind": "mean-probabilities", "permutation": permutation,
                                      "input_state": [1]}))
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_census_seed_changes_bytes(self, tmp_path):
        self.run_census(tmp_path, 1, "a")
        self.run_census(tmp_path, 2, "b")
        assert (tmp_path / "a.boson.csv").read_bytes() != (tmp_path / "b.boson.csv").read_bytes()

    def test_fourier_comparison_files(self, tmp_path):
        config = tmp_path / "fourier.json"
        config.write_text(json.dumps({
            "kind": "fourier-comparison",
            "modes": 8, "order": 2,
            "input_state": [1, 0, 1, 0, 1, 0, 1, 0],
        }))
        out, svg = tmp_path / "ft", tmp_path / "ft.svg"
        assert main(["experiment", "--config", str(config), "--out", str(out),
                     "--svg", str(svg)]) == 0
        meta = json.loads((tmp_path / "ft.meta.json").read_text())
        assert meta["counts"]["fermion_new_not_old"] == len(meta["witnesses"]) > 0
        table = read_verdict_csv(tmp_path / "ft.fermion.csv")
        assert "old_fermion_suppressed" in table.laws.columns
        # the chart is the boson table's: one bar per boson output
        bars = [el for el in ET.parse(svg).getroot().iter()
                if el.tag.endswith("rect") and el.get("class") == "bar"]
        assert len(bars) == len(read_verdict_csv(tmp_path / "ft.boson.csv"))

    def test_robustness_run(self, tmp_path):
        config = tmp_path / "rob.json"
        config.write_text(json.dumps({
            "kind": "unitary-robustness",
            "permutation": "(1 2)",
            "input_state": [1, 1],
            "target_output": [1, 1],
            "particle": "boson",
            "grid": [1e-3, 2e-3, 5e-3, 1e-2],
            "samples": 400,
            "seed": 3,
        }))
        out = tmp_path / "rob"
        svg = tmp_path / "rob.svg"
        assert main(["experiment", "--config", str(config), "--out", str(out),
                     "--svg", str(svg)]) == 0
        meta = json.loads((tmp_path / "rob.meta.json").read_text())
        assert meta["exponent"] == pytest.approx(2.0, abs=0.2)
        lines = (tmp_path / "rob.csv").read_text().splitlines()
        assert lines[0] == "value;mean_deviation"
        assert len(lines) == 5
        assert svg.exists()

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text("{not json")
        assert main(["experiment", "--config", str(config)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    #: A valid config of each kind that the bad values below go into.
    GOOD_CONFIGS = {
        "mean-probabilities": {"permutation": "(1 2)", "input_state": [1, 1]},
        "fourier-comparison": {"modes": 4, "order": 2, "input_state": [1, 0, 1, 0]},
        "distinguishability-robustness": {"permutation": "(1 2)", "input_state": [1, 1],
                                          "target_output": [1, 1], "grid": [0.1]},
    }

    @pytest.mark.parametrize("extra", [
        {"bases": "x"}, {"seed": "1"}, {"basis": 3}, {"types": []},
        {"types": ["boson", "dist", "boson"]},
        # the key the message must name comes first, the kind it goes into last
        {"modes": True, "kind": "fourier-comparison"},
        {"order": False, "kind": "fourier-comparison"},
        # the keys of the retired Gram ensemble are unknown keys now
        {"ensemble": "gram", "kind": "distinguishability-robustness"},
        {"eta_scale": 1.0, "kind": "distinguishability-robustness"},
        {"grid": [0.1, float("inf")], "kind": "distinguishability-robustness"},
        {"permutation": [2.9, 3.1, 1.5, 4, 5, 6, 7, 8], "input_state": [1, 1, 1, 0, 0, 0, 1, 1]},
        {"grid": [0.1, 10**400], "kind": "distinguishability-robustness"},
        {"grid": [0.1, -0.2], "kind": "distinguishability-robustness"},
        {"samples": 0, "kind": "distinguishability-robustness"},
        {"particle": "anyon", "kind": "distinguishability-robustness"},
        {"permutation": [], "input_state": []},
    ])
    def test_bad_config_value_or_key_is_one_line_error(self, tmp_path, capsys, extra):
        kind = extra.get("kind", "mean-probabilities")
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"kind": kind} | self.GOOD_CONFIGS[kind] | extra))
        argv = ["experiment", "--config", str(config), "--threads", "1",
                "--out", str(tmp_path / "run")]
        for svg in ([], ["--svg", str(tmp_path / "run.svg")]):
            assert main(argv + svg) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: invalid experiment config") and err.count("\n") == 1, err
            assert next(iter(extra)) in err
            assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.json"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "key 'seed' must be a non-negative integer, got -1"),
        ("--bases", "0", "key 'bases' must be a positive integer, got 0"),
    ])
    def test_overrides_pass_the_config_checks(self, tmp_path, capsys, flag, value, message):
        config = tmp_path / "census.json"
        config.write_text(json.dumps({
            "kind": "mean-probabilities",
            "permutation": "(1 2)",
            "input_state": [1, 1],
        }))
        assert main(["experiment", "--config", str(config), "--threads", "1",
                     "--out", str(tmp_path / "run"), flag, value]) == 1
        err = capsys.readouterr().err
        assert err == f"error: invalid experiment config: {message}\n"

    @pytest.mark.parametrize("kind, flag", [
        ("fourier-comparison", "--seed"),
        ("fourier-comparison", "--bases"),
        ("distinguishability-robustness", "--bases"),
    ])
    def test_override_that_does_not_apply_is_refused_by_its_name(self, tmp_path, capsys,
                                                                  kind, flag):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": kind} | self.GOOD_CONFIGS[kind]))
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "run"),
                     flag, "3"]) == 1
        assert capsys.readouterr().err == f"error: {flag} does not apply to {kind} configs\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]

    def test_census_tables_and_svg_follow_the_order_of_types(self, tmp_path):
        """The first of ``types`` is the first table and the one the SVG draws."""
        census = experiments.run_mean_probabilities(
            symfock.Permutation.parse("(1 2 3)(4 5 6)(7 8)"), (1, 1, 1, 0, 0, 0, 1, 1),
            num_bases=2, types=(symfock.ParticleType.FERMION, symfock.ParticleType.BOSON))
        assert list(census.tables) == [symfock.ParticleType.FERMION, symfock.ParticleType.BOSON]
        config = tmp_path / "census.json"
        config.write_text(json.dumps({
            "kind": "mean-probabilities",
            "permutation": "(1 2 3)(4 5 6)(7 8)",
            "input_state": [1, 1, 1, 0, 0, 0, 1, 1],
            "bases": 2,
            "types": ["fermion", "boson"],
        }))
        svg = tmp_path / "census.svg"
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "run"),
                     "--svg", str(svg)]) == 0
        root = ET.parse(svg).getroot()
        bars = [el for el in root.iter() if el.tag.endswith("rect") and el.get("class") == "bar"]
        assert len(bars) == 56  # the worked example's fermion outputs
        assert next(el.text for el in root.iter() if el.tag.endswith("text")) == (
            "mean probabilities (fermion)")

    def test_schema_problems_listed(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"kind": "unitary-robustness", "grid": [-1]}))
        assert main(["experiment", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "target_output" in err and "grid" in err


def test_cli_import_loads_no_network_or_process_pool_modules():
    """``import symfock.cli`` in a fresh interpreter pulls in neither the
    network stack (once loaded through ``xml.sax.saxutils``) nor a process
    pool: every run takes one process."""
    heavy = ("ssl", "http.client", "urllib.request", "concurrent.futures.process")
    code = f"import sys, symfock.cli; print([m for m in {heavy!r} if m in sys.modules])"
    package_root = os.path.dirname(os.path.dirname(symfock.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


#: Every command line that writes a file, with ``{bad}`` for the one path
#: that cannot be written and ``{tmp}`` for a writable directory.
_CONFIGS = {
    "census": {"kind": "mean-probabilities", "permutation": "(1 2)", "input_state": [1, 1],
               "bases": 1},
    "fourier": {"kind": "fourier-comparison", "modes": 4, "order": 2,
                "input_state": [1, 0, 1, 0]},
    "robustness": {"kind": "unitary-robustness", "permutation": "(1 2)", "input_state": [1, 1],
                   "target_output": [1, 1], "grid": [1e-3, 2e-3, 5e-3, 1e-2], "samples": 4},
}
UNWRITABLE = {
    "build --out": ["build", "--spec", "{tmp}/spec.json", "--out", "{bad}"],
    "verdicts --out": ["verdicts", "--spec", "{tmp}/spec.json", "--input-state", "[1,1]",
                       "--out", "{bad}"],
    "verdicts --svg": ["verdicts", "--spec", "{tmp}/spec.json", "--input-state", "[1,1]",
                       "--out", "{tmp}/v.csv", "--svg", "{bad}"],
    **{f"experiment {kind} --out": ["experiment", "--config", f"{{tmp}}/{kind}.json",
                                    "--out", "{bad}"] for kind in _CONFIGS},
    **{f"experiment {kind} --svg": ["experiment", "--config", f"{{tmp}}/{kind}.json",
                                    "--out", "{tmp}/x", "--svg", "{bad}"]
       for kind in ("census", "fourier", "robustness")},
}


@pytest.mark.parametrize("argv", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_unwritable_output_is_one_line_and_exit_1(argv, tmp_path, capsys):
    (tmp_path / "spec.json").write_text(json.dumps({"permutation": "(1 2)"}))
    for kind, config in _CONFIGS.items():
        (tmp_path / f"{kind}.json").write_text(json.dumps(config))
    bad = str(tmp_path / "missing" / "out")
    assert main([arg.format(tmp=tmp_path, bad=bad) for arg in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: ") and "missing" in err[-1]
    assert not any("Traceback" in line for line in err)


class TestParserBuiltOnce:
    """``main`` parses with one parser per process; reusing it changes no output."""

    ROBUSTNESS = {"permutation": "(1 2 3)(4 5 6)(7 8)", "rotation_seed": 7,
                  "input_state": [1, 1, 1, 0, 0, 0, 1, 1], "target_output": [1, 1, 0, 1, 1, 0, 1, 0],
                  "grid": [1e-3, 2e-3, 5e-3, 1e-2], "samples": 40, "seed": 2}

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_commands_are_looked_up_at_each_call(self, monkeypatch):
        # a command replaced after the parser was built (as a tracer does) runs
        assert main(["decompose", "--permutation", "(1 2)"]) == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_decompose", lambda args: calls.append(args.permutation) or 0)
        assert main(["decompose", "--permutation", "(1 3)"]) == 0
        assert calls == ["(1 3)"]

    @pytest.mark.parametrize("kind", ["unitary-robustness", "distinguishability-robustness"])
    def test_two_calls_give_the_same_bytes(self, kind, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"kind": kind, **self.ROBUSTNESS}))
        outputs = []
        for label in ("first", "second"):
            assert main(["experiment", "--config", str(config), "--out", str(tmp_path / label)]) == 0
            meta = json.loads((tmp_path / f"{label}.meta.json").read_text())
            del meta["timing_seconds"]
            outputs.append(((tmp_path / f"{label}.csv").read_bytes(), meta))
        assert outputs[0] == outputs[1]

    def test_usage_error_after_a_good_call(self, capsys):
        assert main(["decompose", "--permutation", "(1 2)"]) == 0
        capsys.readouterr()
        for argv in (["decompose"], ["prob", "--type", "boson"], ["no-such-command"]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert main(["decompose", "--permutation", "(1 2)"]) == 0

    @pytest.mark.parametrize("command", [[], ["decompose"], ["build"], ["verdicts"], ["prob"],
                                         ["experiment"]])
    def test_help_text_is_that_of_a_fresh_parser(self, command, capsys):
        fresh = build_parser.__wrapped__()
        with pytest.raises(SystemExit):
            fresh.parse_args([*command, "--help"])
        expected = capsys.readouterr().out
        assert main(["decompose", "--permutation", "(1 2)"]) == 0
        capsys.readouterr()
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main([*command, "--help"])
            assert exit_info.value.code == 0
            assert capsys.readouterr().out == expected


# --- one CSV pass per command, defaults in the runners, refusals up front ----

WORKED = {"permutation": "(1 2 3)(4 5 6)(7 8)", "input_state": [1, 1, 1, 0, 0, 0, 1, 1]}


@pytest.mark.parametrize("config, tables", [
    ({"kind": "mean-probabilities", **WORKED, "bases": 2}, ("boson", "fermion", "dist")),
    ({"kind": "mean-probabilities", **WORKED, "bases": 2, "types": ["fermion"]}, ("fermion",)),
    ({"kind": "fourier-comparison", "modes": 8, "order": 2, "input_state": [1, 0] * 4},
     ("boson", "fermion")),
    ({"kind": "fourier-comparison", "modes": 4, "order": 2, "input_state": [2, 0, 2, 0]},
     ("boson",)),
], ids=["census", "census-fermion", "fourier", "fourier-bunched"])
def test_each_verdict_command_formats_its_floats_once(config, tables, tmp_path, monkeypatch):
    """A command's verdict CSVs, one or several, take one float pass."""
    calls = []
    real = serialize._float_cells
    monkeypatch.setattr(serialize, "_float_cells", lambda values: calls.append(1) or real(values))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "run")]) == 0
    assert calls == [1]
    assert sorted(p.name for p in tmp_path.glob("run.*.csv")) == sorted(
        f"run.{name}.csv" for name in tables)


#: Today's values of the optional keys that set a runner argument, by kind.
#: The DFT comparison has none.
SPELLED_OUT = {
    "mean-probabilities": {"bases": 100, "seed": 0, "types": ["boson", "fermion", "dist"]},
    "fourier-comparison": {},
    "unitary-robustness": {"particle": "boson", "samples": 2000, "seed": 0,
                           "delta_distribution": "ring"},
    "distinguishability-robustness": {"particle": "boson", "samples": 2000, "seed": 0},
}
#: The required keys of a small config of each kind.
BARE = {
    "mean-probabilities": {"permutation": "(1 2)", "input_state": [1, 1]},
    "fourier-comparison": {"modes": 4, "order": 2, "input_state": [1, 0, 1, 0]},
    "unitary-robustness": {"permutation": "(1 2)", "input_state": [1, 1],
                           "target_output": [1, 1], "grid": [1e-3, 2e-3, 5e-3, 1e-2]},
    "distinguishability-robustness": {"permutation": "(1 2)", "input_state": [1, 1],
                                      "target_output": [1, 1], "grid": [1e-3, 2e-3, 5e-3, 1e-2]},
}


@pytest.mark.parametrize("kind", SPELLED_OUT)
def test_left_out_keys_take_the_runners_defaults(kind, tmp_path):
    """A config without its optional keys writes the bytes of one that
    spells out their defaults (``timing_seconds`` aside)."""
    assert set(SPELLED_OUT[kind]) == {key for key, entry in EXPERIMENT_KEYS[kind].items()
                                      if entry.arg and not entry.required}
    outputs = []
    for label, extra in (("bare", {}), ("spelled", SPELLED_OUT[kind])):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps({"kind": kind, **BARE[kind], **extra}))
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / label)]) == 0
        meta = [line for line in (tmp_path / f"{label}.meta.json").read_bytes().splitlines()
                if b'"timing_seconds": ' not in line]
        csvs = {p.name.split(".", 1)[1]: p.read_bytes() for p in tmp_path.glob(f"{label}.*csv")}
        outputs.append((meta, csvs))
    assert outputs[0] == outputs[1] and outputs[0][1]


def _library_run(kind):
    """The runner of ``kind`` called as a library, on ``BARE[kind]`` with
    ``SMALL[kind]``."""
    perm = symfock.Permutation.parse("(1 2)")
    if kind == "mean-probabilities":
        return experiments.run_mean_probabilities(perm, (1, 1), 2)
    if kind == "fourier-comparison":
        return experiments.run_fourier_comparison(4, 2, [1, 0, 1, 0])
    built = symfock.build_unitary(symfock.UnitarySpec(perm))
    run = (experiments.run_unitary_robustness if kind == "unitary-robustness"
           else experiments.run_distinguishability_robustness)
    return run(built.matrix, built.eigenvalues, [1, 1], [1, 1], BARE[kind]["grid"], samples=8,
               permutation=perm)


#: Small sizes for the optional keys of ``BARE``.
SMALL = {"mean-probabilities": {"bases": 2}, "fourier-comparison": {},
         "unitary-robustness": {"samples": 8}, "distinguishability-robustness": {"samples": 8}}


@pytest.mark.parametrize("kind", SMALL)
def test_meta_json_is_the_runners_metadata(kind, tmp_path):
    """The command line writes a runner's ``metadata`` as it is: a library
    run's record gives the bytes of the command's ``meta.json``, the
    ``timing_seconds`` line masked."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": kind, **BARE[kind], **SMALL[kind]}))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0
    serialize.write_metadata(tmp_path / "library.meta.json", _library_run(kind).metadata)
    written = [[line for line in (tmp_path / f"{label}.meta.json").read_bytes().splitlines()
                if b'"timing_seconds": ' not in line] for label in ("cli", "library")]
    assert written[0] == written[1]
    assert len(written[0]) > 5


@pytest.mark.parametrize("kind", ["unitary-robustness", "distinguishability-robustness"])
@pytest.mark.parametrize("keys, message", [
    ({"fourier": [4, 2], "permutation": "(1 2 3 4)", "rotation_seed": 5},
     "robustness config needs exactly one of 'permutation' and 'fourier'"),
    ({"fourier": [4, 2], "rotation_seed": 5},
     "'rotation_seed' goes only with 'permutation', not 'fourier'"),
    ({"rotation_seed": 5}, "robustness config needs exactly one of 'permutation' and 'fourier'"),
], ids=["fourier-and-permutation", "fourier-and-rotation-seed", "neither"])
def test_fit_config_names_its_unitary_once(kind, keys, message, tmp_path, capsys):
    """A fit config names its unitary by ``fourier`` or by ``permutation``
    (with ``rotation_seed``), never both: a key the run would drop is
    refused, in one line, before anything runs."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"kind": kind, "input_state": [1, 0, 1, 0],
                                "target_output": [1, 1, 0, 0],
                                "grid": [1e-3, 2e-3, 5e-3, 1e-2], **keys}))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: invalid experiment config: {message}\n"
    assert list(tmp_path.glob("run*")) == []


@pytest.mark.parametrize("config", [
    {"kind": "fourier-comparison", "modes": 10**20, "order": 2, "input_state": [1, 0]},
    {"kind": "fourier-comparison", "modes": 100000, "order": 2, "input_state": [1, 0]},
    {"kind": "unitary-robustness", "fourier": [10**20, 2], "input_state": [1, 0],
     "target_output": [1, 0], "grid": [1e-3, 2e-3, 5e-3, 1e-2]},
], ids=["fourier-1e20", "fourier-1e5", "robustness-1e20"])
def test_dft_input_length_is_checked_before_the_dft(config, tmp_path, capsys, monkeypatch):
    """A DFT input of the wrong length is refused before anything of the
    DFT's size is built: the guards stand in for the builders, so a missing
    check fails here instead of allocating n x n entries."""
    built = []

    def refuse(*args):
        built.append(args)
        raise AssertionError("DFT built before the input length was checked")

    for module in (cli, experiments, unitaries):
        for name in ("fourier_unitary", "fourier_symmetry"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    n = config.get("modes") or config["fourier"][0]
    assert capsys.readouterr().err == f"error: occupation over 2 modes, expected {n}\n"
    assert built == []


#: (1 2) over 22 modes in one-line form, and 21 fermions invariant under it.
SWAP_22 = [2, 1, *range(3, 23)]
FERMIONS_21 = [1] * 21 + [0]


@pytest.mark.parametrize("argv, particles", [
    (["experiment", "--config", "{tmp}/census.json", "--out", "{tmp}/run"], 22),
    (["experiment", "--config", "{tmp}/fourier.json", "--out", "{tmp}/run"], 22),
    (["verdicts", "--spec", "{tmp}/spec.json", "--input-state", "[11,11]"], 22),
    (["verdicts", "--spec", "{tmp}/spec.json", "--input-state", "[11,11]", "--type", "dist"], 22),
    (["experiment", "--config", "{tmp}/fermions.json", "--out", "{tmp}/run"], 21),
    (["verdicts", "--spec", "{tmp}/spec22.json", "--input-state", json.dumps(FERMIONS_21),
      "--type", "fermion"], 21),
], ids=["census", "fourier", "verdicts-boson", "verdicts-dist", "census-fermion",
        "verdicts-fermion"])
def test_too_many_bosons_are_refused_before_any_lattice(argv, particles, tmp_path, capsys,
                                                        monkeypatch):
    """22 bosons on two modes, or 21 fermions on 22: the permanent's limit
    (every table's distinguishable reference is one) is met before the
    output lattice is built."""
    (tmp_path / "census.json").write_text(json.dumps(
        {"kind": "mean-probabilities", "permutation": "(1 2)", "input_state": [11, 11],
         "types": ["boson", "dist"]}))
    (tmp_path / "fourier.json").write_text(json.dumps(
        {"kind": "fourier-comparison", "modes": 2, "order": 2, "input_state": [11, 11]}))
    (tmp_path / "fermions.json").write_text(json.dumps(
        {"kind": "mean-probabilities", "permutation": SWAP_22, "input_state": FERMIONS_21,
         "types": ["fermion"]}))
    (tmp_path / "spec.json").write_text(json.dumps({"permutation": "(1 2)"}))
    (tmp_path / "spec22.json").write_text(json.dumps({"permutation": SWAP_22}))
    generations = []
    real = fock._generations
    monkeypatch.setattr(fock, "_generations", lambda *args: generations.append(args)
                        or real(*args))
    fock.lattice.cache_clear()
    try:
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    finally:
        fock.lattice.cache_clear()
    assert capsys.readouterr().err == (
        f"error: Ryser permanent limited to n <= 20, got {particles}\n")
    assert generations == []


def test_runner_arguments_of_the_config_table_exist():
    """Every runner argument that ``EXPERIMENT_KEYS`` names is a parameter of
    the runner of its kind."""
    runners = {
        "mean-probabilities": experiments.run_mean_probabilities,
        "fourier-comparison": experiments.run_fourier_comparison,
        "unitary-robustness": experiments.run_unitary_robustness,
        "distinguishability-robustness": experiments.run_distinguishability_robustness,
    }
    assert set(runners) == set(EXPERIMENT_KEYS)
    for kind, keys in EXPERIMENT_KEYS.items():
        parameters = inspect.signature(runners[kind]).parameters
        named = [entry.arg for entry in keys.values() if entry.arg]
        assert named and set(named) <= set(parameters), (kind, named)
        assert len(set(named)) == len(named), kind


# --- fresh processes: reruns, a refused wide DFT, non-finite probabilities ---

def _run_cli(argv, cwd, hash_seed="1", timeout=None) -> subprocess.CompletedProcess:
    """``python -m symfock.cli`` with ``argv`` in a fresh process in ``cwd``."""
    package_root = os.path.dirname(os.path.dirname(symfock.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "symfock.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


_WORKED_TARGET = {"rotation_seed": 7, "target_output": [1, 1, 0, 1, 1, 0, 1, 0],
                  "grid": [0.001, 0.002, 0.005, 0.01]}
#: The configs and specs the rerun checks read, by file name.
RERUN_FILES = {
    "census.json": {"kind": "mean-probabilities", **WORKED, "bases": 2},
    "census100.json": {"kind": "mean-probabilities", **WORKED, "bases": 100},
    "census-bare.json": {"kind": "mean-probabilities", **WORKED},
    "census-spelled.json": {"kind": "mean-probabilities", **WORKED, "bases": 100, "seed": 0,
                            "types": ["boson", "fermion", "dist"]},
    "census-fermion.json": {"kind": "mean-probabilities", **WORKED, "bases": 2,
                            "types": ["fermion"]},
    "unitary-bare.json": {"kind": "unitary-robustness", **WORKED, **_WORKED_TARGET},
    "unitary-spelled.json": {"kind": "unitary-robustness", **WORKED, **_WORKED_TARGET,
                             "particle": "boson", "samples": 2000, "seed": 0,
                             "delta_distribution": "ring"},
    "unitary.json": {"kind": "unitary-robustness", "delta_distribution": "ring", **WORKED,
                     **_WORKED_TARGET, "particle": "boson", "samples": 40},
    "dist.json": {"kind": "distinguishability-robustness", **WORKED, **_WORKED_TARGET,
                  "particle": "boson", "samples": 40},
    "fourier.json": {"kind": "fourier-comparison", "modes": 12, "order": 6,
                     "input_state": [1, 0] * 6},
    "fermion10.json": {"kind": "fourier-comparison", "modes": 10, "order": 5,
                       "input_state": [1, 0] * 5},
    "spec.json": {"permutation": "(1 2 3)(4 5 6)(7 8)", "seed": 1},
    "bunched.json": {"permutation": "(1 2)"},
}


def _experiment(config, *extra):
    return ["experiment", "--config", config, "--out", "{run}", *extra]


def _same(*suffixes):
    """The files ``a<suffix>`` and ``b<suffix>`` of the two runs, per suffix."""
    return tuple((f"a{suffix}", f"b{suffix}") for suffix in suffixes)


_CENSUS_CSVS = (".boson.csv", ".fermion.csv", ".dist.csv")
_FOURIER_CSVS = (".boson.csv", ".fermion.csv")
_PROB = ["prob", "--unitary", "u.json", "--input-state", "[1,1,1,0,0,0,1,1]",
         "--output-state", "[1,1,0,1,1,0,1,0]", "--type"]
_VERDICTS = ["verdicts", "--spec", "spec.json", "--input-state", "[1,1,1,0,0,0,1,1]"]
#: Two command lines, each run in a fresh process with its own hash seed,
#: ``{run}`` being "a" in the first and "b" in the second, and the pairs of
#: their files that must hold the same bytes: ``a.stdout`` and ``b.stdout``
#: are the standard outputs, and a ``meta.json`` pair is compared without its
#: ``timing_seconds`` line.
RERUNS = {
    "census-threads": (_experiment("census.json"), _experiment("census.json", "--threads", "2"),
                       _same(*_CENSUS_CSVS)),
    "census-100": (_experiment("census100.json"), _experiment("census100.json"),
                   _same(*_CENSUS_CSVS, ".meta.json")),
    "census-defaults": (_experiment("census-bare.json"), _experiment("census-spelled.json"),
                        _same(*_CENSUS_CSVS, ".meta.json")),
    "unitary-defaults": (_experiment("unitary-bare.json"), _experiment("unitary-spelled.json"),
                         _same(".csv", ".meta.json")),
    "census-fermion-only": (_experiment("census.json"), _experiment("census-fermion.json"),
                            _same(".fermion.csv")),
    "dist-fit": (_experiment("dist.json"), _experiment("dist.json"), _same(".csv", ".meta.json")),
    "unitary-fit": (_experiment("unitary.json"), _experiment("unitary.json"),
                    _same(".csv", ".meta.json")),
    "fourier-svg": (_experiment("fourier.json", "--svg", "{run}.svg"),
                    _experiment("fourier.json", "--svg", "{run}.svg"),
                    _same(*_FOURIER_CSVS, ".meta.json", ".svg")),
    "fourier-fermion10": (_experiment("fermion10.json"), _experiment("fermion10.json"),
                          _same(*_FOURIER_CSVS, ".meta.json")),
    "decompose": (["decompose", "--permutation", "(1 2 3)(4 5 6)(7 8)"],) * 2 + (_same(".stdout"),),
    "build": (["build", "--spec", "spec.json", "--out", "{run}.json"],) * 2 + (_same(".json"),),
    "prob-boson": ([*_PROB, "boson"],) * 2 + (_same(".stdout"),),
    "prob-dist": ([*_PROB, "dist"],) * 2 + (_same(".stdout"),),
    "verdicts-stdout-file": (_VERDICTS, [*_VERDICTS, "--out", "{run}.csv"],
                             (("a.stdout", "b.csv"),)),
    "verdicts-bunched-stdout-file": (
        ["verdicts", "--spec", "bunched.json", "--input-state", "[6,6]"],
        ["verdicts", "--spec", "bunched.json", "--input-state", "[6,6]", "--out", "{run}.csv"],
        (("a.stdout", "b.csv"),)),
    "verdicts-fermion-stdout-file": ([*_VERDICTS, "--type", "fermion"],
                                     [*_VERDICTS, "--type", "fermion", "--out", "{run}.csv"],
                                     (("a.stdout", "b.csv"),)),
    "verdicts-svg": ([*_VERDICTS, "--out", "{run}.csv", "--svg", "{run}.svg"],) * 2
                    + (_same(".svg"),),
}


@pytest.mark.parametrize("first, second, pairs", RERUNS.values(), ids=RERUNS.keys())
def test_rerun_in_a_fresh_process_gives_the_same_bytes(first, second, pairs, tmp_path):
    for name, content in RERUN_FILES.items():
        (tmp_path / name).write_text(json.dumps(content))
    assert main(["build", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "u.json")]) == 0
    for run, argv, hash_seed in (("a", first, "1"), ("b", second, "2")):
        result = _run_cli([arg.format(run=run) for arg in argv], tmp_path, hash_seed)
        assert result.returncode == 0, result.stderr
        (tmp_path / f"{run}.stdout").write_text(result.stdout)
    for a, b in pairs:
        left, right = (tmp_path / a).read_bytes(), (tmp_path / b).read_bytes()
        if a.endswith("meta.json"):
            left, right = ([line for line in text.splitlines() if b'"timing_seconds": ' not in line]
                           for text in (left, right))
        assert left == right, (a, b)


def test_wide_dft_config_exits_1_in_a_fresh_process(tmp_path):
    """An input of the wrong length is refused before the 100000-mode DFT is
    built: one line, exit 1, well within 10 s."""
    config = {"kind": "fourier-comparison", "modes": 100000, "order": 2, "input_state": [1, 0]}
    (tmp_path / "wide.json").write_text(json.dumps(config))
    result = _run_cli(["experiment", "--config", "wide.json", "--out", "wide"], tmp_path,
                      timeout=10)
    assert result.returncode == 1
    assert result.stderr == "error: occupation over 2 modes, expected 100000\n"


#: A 2 x 2 matrix with finite entries whose permanent, determinant and
#: squared moduli overflow.
HUGE = [[1e200, 1e200], [1e200, -1e200]]


def _one_invariant_failure(result) -> None:
    assert result.returncode == 2
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("invariant failure: overflow encountered")


@pytest.mark.parametrize("kind", ["boson", "fermion", "dist"])
def test_overflowing_probability_is_one_invariant_failure(kind, tmp_path):
    (tmp_path / "u.json").write_text(json.dumps(matrix_to_json(np.array(HUGE))))
    _one_invariant_failure(_run_cli(["prob", "--unitary", "u.json", "--input-state", "[1,1]",
                                     "--output-state", "[1,1]", "--type", kind], tmp_path))


@pytest.mark.parametrize("grid", [[0.1, 0.2, 0.4, 0.8], [0.1, 0.2, 0.3, 0.5000000000000001],
                                  [1e300, 2e300, 3e300, 4e300]])
def test_mean_deficit_above_half_exits_1(grid, tmp_path, capsys, monkeypatch):
    """A distinguishability grid value above 0.5 is refused before the first
    sample, with one line and no output file."""
    monkeypatch.setattr(experiments, "sample_distinguishability",
                        lambda *args, **kwargs: pytest.fail("sampled"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**RERUN_FILES["dist.json"], "grid": grid}))
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "dist")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: mean distinguishability deficit {grid[-1]!r} is above 0.5: ")
    assert len(err.splitlines()) == 1
    assert not list(tmp_path.glob("dist.*"))


def test_overflowing_robustness_grid_point_is_one_invariant_failure(tmp_path):
    config = {**RERUN_FILES["unitary.json"], "grid": [0.001, 0.002, 0.005, 1e300]}
    (tmp_path / "huge.json").write_text(json.dumps(config))
    _one_invariant_failure(_run_cli(["experiment", "--config", "huge.json", "--out", "huge"],
                                    tmp_path))
    assert not (tmp_path / "huge.csv").exists()
