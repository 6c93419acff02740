"""Command-line front end.

Subcommands: decompose, build, verdicts, prob, experiment. Each parses its
options, calls the library and writes what it returns, adding nothing.
Machine-readable results go to files or stdout, diagnostics to stderr.
Exit codes: 0 success, 1 usage or parse problem or an output that cannot
be written, 2 invariant failure during a run (a float that overflows or
turns NaN is one).

Fixing ``--seed`` makes every output byte-identical across runs except the
timing field inside metadata JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

import numpy as np

from . import __version__
from .experiments import (
    TableRun,
    dft_member,
    run_distinguishability_robustness,
    run_fourier_comparison,
    run_mean_probabilities,
    run_unitary_robustness,
    unitary_table,
)
from .fock import ParticleType, require_invariant
from .permutations import cycle_decompose, eigenstructure
from .scattering import prob_partial, probabilities
from .serialize import (
    EXPERIMENT_KEYS,
    EXPERIMENT_KINDS,
    check_experiment_config,
    experiment_options,
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
from .suppression import EventClass
from .svg import bar_chart, write_verdict_svg
from .unitaries import SymmetryError, UnitarySpec, build_unitary


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract says 1
        raise UsageError(message)


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON: {exc}") from exc


def cmd_decompose(args) -> int:
    perm = parse_permutation(args.permutation, n=args.modes)
    cycles = cycle_decompose(perm)
    structure = eigenstructure(perm)
    print(f"permutation: {perm.cycle_string()}")
    print("one-line:", json.dumps(list(perm.one_line())))
    print("cycles:", " ".join("(" + " ".join(map(str, c)) + ")" for c in cycles))
    print("cycle lengths:", ", ".join(str(len(c)) for c in cycles))
    print("order:", perm.order())
    print("eigenvalues:", ", ".join(str(v) for v in structure.eigenvalues))
    return 0


def cmd_build(args) -> int:
    spec = spec_from_json(_load_json(args.spec))
    built = build_unitary(spec)
    payload = {
        "unitary": matrix_to_json(built.matrix),
        "eigenvalues": [str(v) for v in built.eigenvalues],
        "spec": spec_to_json(spec),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    return 0


def cmd_verdicts(args) -> int:
    spec = spec_from_json(_load_json(args.spec))
    kind = ParticleType.parse(args.type)
    input_state = require_invariant(spec.permutation, parse_occupation(args.input_state),
                                    kind is ParticleType.FERMION)
    built = build_unitary(spec)
    table = unitary_table(built.matrix, built.eigenvalues, spec.permutation, input_state,
                          kind, None)
    if args.out:
        write_verdict_csvs({args.out: table})
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.writelines(verdict_lines(table))
    if args.svg:
        write_verdict_svg(args.svg, table, title=f"{kind.value} events, "
                          f"{spec.permutation.cycle_string()} r={list(input_state)}")
        print(f"wrote {args.svg}", file=sys.stderr)
    counts = np.bincount(table.codes, minlength=len(EventClass)).tolist()
    classes = {event.value: n for event, n in zip(EventClass, counts) if n}
    print("class counts:", json.dumps(classes, sort_keys=True), file=sys.stderr)
    return 0


def cmd_prob(args) -> int:
    payload = _load_json(args.unitary)
    if isinstance(payload, dict) and "unitary" in payload:  # the file ``build --out`` writes
        payload = payload["unitary"]
    u = matrix_from_json(payload)
    r = parse_occupation(args.input_state)
    s = parse_occupation(args.output_state)
    kind = ParticleType.parse(args.type)
    if args.distinguishability:  # the single sum; partial_weights refuses ``dist``
        value = prob_partial(u, r, s, matrix_from_json(_load_json(args.distinguishability)), kind)
    else:
        value = probabilities(u, r, [s], kind)[0]
    print(f"{value:.15f}")
    return 0


def _experiment_unitary(payload):
    """Resolve the unitary + eigenvalue diagonal for robustness configs."""
    if "fourier" in payload:
        return dft_member(*payload["fourier"], payload["input_state"])
    perm = parse_permutation(payload["permutation"], n=len(payload["input_state"]))
    built = build_unitary(UnitarySpec(perm, rotation_seed=payload.get("rotation_seed")))
    return built.matrix, built.eigenvalues, perm


def cmd_experiment(args) -> int:
    """Check a config, with ``--seed`` and ``--bases`` laid over it, run its
    kind's runner and write what the run returns: a table run's verdict
    CSVs and its first table's SVG, or a fit's CSV and bar chart; either
    run's ``metadata`` as its ``meta.json``."""
    payload = _load_json(args.config)
    if isinstance(payload, dict):  # overrides pass the same checks as the config's own keys
        kind = payload.get("kind")
        for key, value in (("seed", args.seed), ("bases", args.bases)):
            if value is not None:
                if kind in EXPERIMENT_KINDS and key not in EXPERIMENT_KEYS[kind]:
                    raise UsageError(f"--{key} does not apply to {kind} configs")
                payload[key] = value
    problems = check_experiment_config(payload)
    if problems:
        raise UsageError("invalid experiment config: " + "; ".join(problems))
    kind = payload["kind"]
    out = args.out or "experiment"
    options = experiment_options(payload)

    if kind == "mean-probabilities":
        perm = parse_permutation(payload["permutation"], n=len(payload["input_state"]))
        run, heading = run_mean_probabilities(perm, **options), "mean probabilities"
    elif kind == "fourier-comparison":
        run = run_fourier_comparison(**options)
        heading = f"fourier comparison n={options['n']} m={options['m']}"
    else:
        unitary, eigenvalues, perm = _experiment_unitary(payload)
        fit = (run_unitary_robustness if kind == "unitary-robustness"
               else run_distinguishability_robustness)
        run = fit(unitary, eigenvalues, permutation=perm, **options)
    write_metadata(f"{out}.meta.json", run.metadata)

    if isinstance(run, TableRun):
        write_verdict_csvs({f"{out}.{particle.value}.csv": table
                            for particle, table in run.tables.items()})
        if args.svg:
            particle, table = next(iter(run.tables.items()))
            write_verdict_svg(args.svg, table, title=f"{heading} ({particle.value})")
        print(f"wrote {out}.*.csv and {out}.meta.json", file=sys.stderr)
        return 0
    write_fit_csv(f"{out}.csv", run)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(bar_chart(run.measured, title=f"mean deviation vs noise ({kind})"))
            fh.write("\n")
    meta = run.metadata
    print(f"exponent={meta['exponent']:.4f} prefactor={meta['prefactor']:.6g} "
          f"predicted={meta['predicted_prefactor']:.6g}", file=sys.stderr)
    print(f"wrote {out}.csv and {out}.meta.json", file=sys.stderr)
    return 0


@cache  # once per process: argparse keeps no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="symfock", description=__doc__)
    parser.add_argument("--version", action="version", version=f"symfock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="cycles, order and exact eigenvalues of a permutation")
    p.add_argument("--permutation", required=True,
                   help='cycle notation "(1 2 3)(4 5)" or one-line JSON array')
    p.add_argument("--modes", type=int, default=None, help="total mode count (pads fixed points)")

    p = sub.add_parser("build", help="construct a symmetry-adapted unitary from a spec JSON")
    p.add_argument("--spec", required=True, help="UnitarySpec JSON file")
    p.add_argument("--out", default=None, help="output JSON path (default: stdout)")

    p = sub.add_parser("verdicts", help="full verdict table for one input state")
    p.add_argument("--spec", required=True, help="UnitarySpec JSON file")
    p.add_argument("--input-state", required=True, help="occupation list, e.g. [1,1,0,0]")
    p.add_argument("--type", default="boson", choices=["boson", "fermion", "dist"])
    p.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    p.add_argument("--svg", default=None, help="optional bar-chart SVG path")

    p = sub.add_parser("prob", help="one transition probability")
    p.add_argument("--unitary", required=True,
                   help="matrix JSON file, or the JSON that build --out writes")
    p.add_argument("--input-state", required=True)
    p.add_argument("--output-state", required=True)
    p.add_argument("--type", default="boson", choices=["boson", "fermion", "dist"])
    p.add_argument("--distinguishability", default=None,
                   help="Gram matrix JSON: partially distinguishable bosons or fermions")

    p = sub.add_parser("experiment", help="run an experiment config JSON")
    p.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    p.add_argument("--out", default=None, help="output path prefix")
    p.add_argument("--svg", default=None, help="optional SVG path")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--bases", type=int, default=None, help="override the eigenbasis count")
    # parsed and ignored (the benchmark's command lines still pass it): one process per run
    p.add_argument("--threads", type=int, default=None, help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a float that overflows or turns NaN is an invariant failure, not a number to print
        with np.errstate(over="raise", invalid="raise"):
            # by name at each call: the parser, built once, pins no command function
            return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:  # bad input, or a path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SymmetryError, ArithmeticError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
