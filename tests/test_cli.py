import json
import os
import subprocess
import sys

import numpy as np
import pytest

import symfock
from symfock.cli import main
from symfock.linalg import haar_random_unitary
from symfock.serialize import matrix_to_json, read_verdict_csv

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
            "--type", "partial", "--distinguishability", str(gram),
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
        assert main([*args, "--type", "partial", "--distinguishability", str(gram)]) == 0
        assert capsys.readouterr().out.strip() == boson
        assert float(boson) > 0

    def test_partial_without_gram_is_usage_error(self, hom_unitary_file, capsys):
        code = main([
            "prob", "--unitary", hom_unitary_file,
            "--input-state", "[1,1]", "--output-state", "[1,1]", "--type", "partial",
        ])
        assert code == 1

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

    def test_dimension_mismatch(self, hom_unitary_file, capsys):
        code = main([
            "prob", "--unitary", hom_unitary_file,
            "--input-state", "[1,1,0]", "--output-state", "[1,1,0]",
        ])
        assert code == 1


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
        import xml.etree.ElementTree as ET
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
        assert "singly occupied" in capsys.readouterr().err

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
        out = tmp_path / "ft"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "ft.meta.json").read_text())
        assert meta["counts"]["fermion_new_not_old"] == len(meta["witnesses"]) > 0
        table = read_verdict_csv(tmp_path / "ft.fermion.csv")
        assert table.parity is not None

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
        {"eta_scale": float("nan"), "kind": "distinguishability-robustness"},
        {"eta_scale": float("inf"), "kind": "distinguishability-robustness"},
        {"eta_scale": -1, "kind": "distinguishability-robustness"},
        {"grid": [0.1, float("inf")], "kind": "distinguishability-robustness"},
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

    def test_schema_problems_listed(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"kind": "unitary-robustness", "grid": [-1]}))
        assert main(["experiment", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "target_output" in err and "grid" in err


def test_cli_import_loads_no_network_or_process_pool_modules():
    """``import symfock.cli`` in a fresh interpreter pulls in neither the
    network stack (once loaded through ``xml.sax.saxutils``) nor the process
    pool, which only a multi-worker census needs."""
    heavy = ("ssl", "http.client", "urllib.request", "concurrent.futures.process")
    code = f"import sys, symfock.cli; print([m for m in {heavy!r} if m in sys.modules])"
    package_root = os.path.dirname(os.path.dirname(symfock.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
