"""One message per occupation rule, at every public entry point.

``fock`` holds the whole occupation contract: integral entries, no negative
entry, at most one fermion per mode, the width, and an input's invariance
under the mode permutation. Every entry point that takes an input state or
a list of outputs raises the same one-line message for the same fault; the
``verdicts`` command, and the ``experiment`` command on a config that holds
the faulty list, print it and exit 1. The robustness fits given
the permutation refuse an input it does not leave invariant, as the other
law-reading entry points do."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfock.cli import main
from symfock.experiments import (
    run_distinguishability_robustness,
    run_fourier_comparison,
    run_mean_probabilities,
    run_unitary_robustness,
)
from symfock.fock import ParticleType
from symfock.permutations import cycle_decompose
from symfock.scattering import partial_weights, prob_boson, prob_fermion, probabilities
from symfock.suppression import (
    boson_suppressed,
    fermion_suppressed,
    initial_distribution,
    output_laws,
    transposition_count,
    verdict_table,
)
from symfock.unitaries import fourier_symmetry, fourier_unitary

BOSON, FERMION, DIST = ParticleType.BOSON, ParticleType.FERMION, ParticleType.DISTINGUISHABLE
FAULTS = ("negative", "double", "width", "cycle")


@st.composite
def faulty_states(draw):
    """The n-mode DFT with its shift symmetry of order m, a 0/1 input r
    invariant under it, one fault and the occupation ``bad`` that carries
    it: r with a -1, with a 2, one mode too many or too few, or with one
    mode flipped, which breaks that mode's cycle (every cycle has m >= 2
    modes)."""
    n = draw(st.integers(2, 6))
    m = draw(st.sampled_from([d for d in range(2, n + 1) if n % d == 0]))
    p, eigenvalues = fourier_symmetry(n, m)
    cycles = cycle_decompose(p)
    r = [0] * n
    for c in draw(st.sets(st.sampled_from(range(len(cycles))), min_size=1)):
        for mode in cycles[c]:
            r[mode - 1] = 1
    fault = draw(st.sampled_from(FAULTS))
    mode = draw(st.integers(0, n - 1))
    bad = list(r)
    if fault == "negative":
        bad[mode] = -1
        message = f"negative occupation in {tuple(bad)}"
    elif fault == "double":
        bad[mode] = 2
        message = f"fermionic occupation exceeds 1 in {tuple(bad)}"
    elif fault == "width":
        bad = r + [0] if draw(st.booleans()) else r[:-1]
        message = f"occupation over {len(bad)} modes, expected {n}"
    else:
        bad[mode] = 1 - bad[mode]
        cycle = next(c for c in cycles if mode + 1 in c)
        message = f"input state not invariant under cycle {cycle}"
    return n, m, p, eigenvalues, tuple(r), fault, tuple(bad), message


def _entry_points(n, m, p, eigenvalues, r, fault, bad):
    """(name, call) for every entry point that the fault breaks: the output
    faults as the last of two outputs, every fault as the input."""
    u = fourier_unitary(n)
    calls = []
    if fault != "cycle":  # a bad row among the outputs, or a bad input to a kernel
        outputs = [r, bad]
        kinds = (FERMION,) if fault == "double" else (BOSON, FERMION, DIST)
        for kind in kinds:
            laws = output_laws(eigenvalues, [r, r], *((p, r) if kind is FERMION else ()))
            calls += [
                (f"probabilities {kind.value} outputs",
                 lambda kind=kind: probabilities(u, r, outputs, kind)),
                (f"probabilities {kind.value} input",
                 lambda kind=kind: probabilities(u, bad, [r], kind)),
                (f"verdict_table {kind.value}",
                 lambda kind=kind, laws=laws: verdict_table(laws, outputs, kind, [0.0] * 2,
                                                            [0.0] * 2)),
            ]
            if kind is not DIST:
                calls += [
                    (f"partial_weights {kind.value} output",
                     lambda kind=kind: partial_weights(u, r, bad, kind)),
                    (f"partial_weights {kind.value} input",
                     lambda kind=kind: partial_weights(u, bad, r, kind)),
                ]
        calls += [
            ("prob_fermion output", lambda: prob_fermion(u, r, bad)),
            ("output_laws fermion outputs", lambda: output_laws(eigenvalues, outputs, p, r)),
            ("fermion_suppressed output", lambda: fermion_suppressed(p, r, eigenvalues, bad)),
        ]
        if fault != "double":
            calls += [
                ("prob_boson output", lambda: prob_boson(u, r, bad)),
                ("output_laws boson outputs", lambda: output_laws(eigenvalues, outputs)),
                ("boson_suppressed output", lambda: boson_suppressed(eigenvalues, bad)),
            ]
    calls += [  # a bad input state: every fault, invariance too
        ("output_laws input", lambda: output_laws(eigenvalues, [r], p, bad)),
        ("fermion_suppressed input", lambda: fermion_suppressed(p, bad, eigenvalues, r)),
        ("initial_distribution", lambda: initial_distribution(p, bad)),
        ("transposition_count", lambda: transposition_count(p, bad)),
        ("run_mean_probabilities", lambda: run_mean_probabilities(p, bad)),
    ]
    if fault != "double":  # boson runs take doubly occupied inputs
        grid = [1e-3, 2e-3, 5e-3, 1e-2]
        calls += [
            ("run_fourier_comparison", lambda: run_fourier_comparison(n, m, bad)),
            ("run_unitary_robustness", lambda: run_unitary_robustness(
                u, eigenvalues, bad, r, grid, permutation=p)),
            ("run_distinguishability_robustness", lambda: run_distinguishability_robustness(
                u, eigenvalues, bad, r, grid, permutation=p)),
        ]
    return calls


def _verdicts(p, bad, kind: str) -> tuple[int, str]:
    """Exit code and stderr of the ``verdicts`` command on input ``bad``."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps({"permutation": list(p.one_line())}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["verdicts", "--spec", str(spec), "--input-state", json.dumps(list(bad)),
                         "--type", kind, "--out", str(Path(tmp) / "v.csv")])
    return code, err.getvalue()


def _configs(n, m, p, r, fault, bad) -> list[dict]:
    """An experiment config of each kind with the faulty list in it: every
    kind's input_state, and the fits' target_output for a fault an output
    can carry. A census has no width fault: its permutation takes its modes
    from the input, padded with fixed points or refused (``test_cli``)."""
    grid = [1e-3, 2e-3, 5e-3, 1e-2]
    fits = ("unitary-robustness", "distinguishability-robustness")
    configs = [
        {"kind": "fourier-comparison", "modes": n, "order": m, "input_state": bad},
        *({"kind": kind, "fourier": [n, m], "input_state": bad, "target_output": r, "grid": grid}
          for kind in fits),
    ]
    if fault != "width":
        configs.append({"kind": "mean-probabilities", "permutation": list(p.one_line()),
                        "input_state": bad})
    if fault in ("negative", "width"):
        configs += [{"kind": kind, "fourier": [n, m], "input_state": r, "target_output": bad,
                     "grid": grid} for kind in fits]
    return configs


def _experiment(payload) -> tuple[int, str]:
    """Exit code and stderr of the ``experiment`` command on ``payload``."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(payload))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["experiment", "--config", str(config), "--out", str(Path(tmp) / "run")])
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(faulty_states())
def test_every_entry_point_raises_the_one_message_of_the_rule(state):
    n, m, p, eigenvalues, r, fault, bad, message = state
    assert "\n" not in message
    for name, call in _entry_points(n, m, p, eigenvalues, r, fault, bad):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message, name
    for kind in ("fermion",) if fault == "double" else ("boson", "fermion"):
        assert _verdicts(p, bad, kind) == (1, f"error: {message}\n"), kind
    if fault != "double":  # boson runs take doubly occupied inputs
        for payload in _configs(n, m, p, list(r), fault, list(bad)):
            assert _experiment(payload) == (1, f"error: {message}\n"), payload
