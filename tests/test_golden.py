"""Golden digests of whole verdict and fit CSVs.

The byte tests of the writer compare it with the row-by-row oracle on the
same table, so they cannot see a change in the laws, the eigenvalue groups
or the event classes that fill that table. These digests can: they pin the
SHA-256 of every verdict CSV of the 12-mode DFT comparison at m = 6 and of a
2-basis census of the worked example, as the CLI writes them. Likewise the
fit CSVs of a 40-sample distinguishability fit and a 40-sample ``ring``
unitary fit on the worked example pin the noise draws and the reductions
of both robustness fits. The
distinguishability fit draws its Gram matrices over the occupied input
modes; a 300-sample fit on the two-mode dip, whose input occupies every
mode, pins that such an input draws over all n modes as before. The
``meta.json`` of each of the five runs is pinned too, with its one field
that changes between runs, ``timing_seconds``, masked: the line that holds
it is dropped before hashing.
"""

import hashlib
import json

import pytest

from symfock.cli import main

CONFIGS = {
    "fourier": {"kind": "fourier-comparison", "modes": 12, "order": 6,
                "input_state": [1, 0] * 6},
    "census": {"kind": "mean-probabilities", "permutation": "(1 2 3)(4 5 6)(7 8)",
               "input_state": [1, 1, 1, 0, 0, 0, 1, 1], "bases": 2, "seed": 0,
               "types": ["boson", "fermion", "dist"]},
}
ROBUSTNESS = {"permutation": "(1 2 3)(4 5 6)(7 8)", "rotation_seed": 7,
              "input_state": [1, 1, 1, 0, 0, 0, 1, 1], "target_output": [1, 1, 0, 1, 1, 0, 1, 0],
              "particle": "boson", "grid": [0.001, 0.002, 0.005, 0.01], "samples": 40}
FIT_CONFIGS = {
    "dist": {"kind": "distinguishability-robustness", **ROBUSTNESS},
    "ring": {"kind": "unitary-robustness", "delta_distribution": "ring", **ROBUSTNESS},
    "dip": {"kind": "distinguishability-robustness", "permutation": "(1 2)",
            "input_state": [1, 1], "target_output": [1, 1],
            "grid": [0.001, 0.002, 0.005, 0.01], "samples": 300, "seed": 3},
}

DIGESTS = {
    "fourier.boson.csv": "a6d730cf03acbef933e95dff65de1cc5961ebb7a4324dedf6503f8adb6aa81f6",
    "fourier.fermion.csv": "9d9ab40d936a41babcf52c171e8e6879f464e4b967f18ce4b08f1cc8403e5b0e",
    "census.boson.csv": "52b04b7e5c6f510444928a3724bd439176cab54f9821f4c8281981bd351b20a3",
    "census.fermion.csv": "3dacb279e048ca30a8100ec57de184ee0325d01fc385c43e26d3f861c8537870",
    "census.dist.csv": "6992cc1b78f657caf69edb82e98eaeaa4bf31fc9b48ab176525f7702c011eb92",
    "dist.csv": "a2482d4b2bc3681c4a9a645777a7aa6d5e4c5d84f7224e8017301528bfae7856",
    "ring.csv": "463e786e8d7030ba42e7b4bb6afe9c7a28f0dde5448e446004984989a80462b6",
    "dip.csv": "9f22ab73445a68b845174e354e001e62676bbf87b3e117e92165d2db6aec26ac",
}
META_DIGESTS = {
    "fourier": "0b9fe651a49b0e12932872f10b4b0653e19a549525574941b49e4d909359b828",
    "census": "279bb99ccc394ebfa23bd11fbe1ae1bb9ea0053b8d422db4afeeff88f5beb83c",
    "dist": "e6c385fe20bda7d2d2b821170ca2b15f2e1854ea4cee88c285f9f19f0e1e06d2",
    "ring": "1bd0ec22be5cc1afbc6c9ee3c32e8317b2bc29d45a6f30c139ccd46c2390ba6d",
    "dip": "8d8e6d4169de1c11fe47ec66c7218bb6507a2a79a2b1866a6d006e9fd388c813",
}


def _run(name, payload, tmp_path):
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(payload))
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / name)]) == 0


@pytest.mark.parametrize("name", CONFIGS)
def test_verdict_csvs_match_their_golden_digests(name, tmp_path):
    _run(name, CONFIGS[name], tmp_path)
    written = sorted(path.name for path in tmp_path.glob(f"{name}.*.csv"))
    assert written == sorted(key for key in DIGESTS if key.startswith(f"{name}."))
    for csv in written:
        assert hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest() == DIGESTS[csv], csv


@pytest.mark.parametrize("name", FIT_CONFIGS)
def test_fit_csvs_match_their_golden_digests(name, tmp_path):
    _run(name, FIT_CONFIGS[name], tmp_path)
    csv = tmp_path / f"{name}.csv"
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == DIGESTS[csv.name]


@pytest.mark.parametrize("name", META_DIGESTS)
def test_metadata_matches_its_golden_digest(name, tmp_path):
    _run(name, (CONFIGS | FIT_CONFIGS)[name], tmp_path)
    lines = (tmp_path / f"{name}.meta.json").read_bytes().splitlines(keepends=True)
    kept = [line for line in lines if b'"timing_seconds": ' not in line]
    assert len(kept) == len(lines) - 1  # exactly the one timing line is masked
    assert hashlib.sha256(b"".join(kept)).hexdigest() == META_DIGESTS[name]
