"""File formats: matrix JSON, spec JSON, verdict CSV, experiment configs.

Numbers cross the file boundary losslessly: floats are written with
``repr`` (shortest round-trip form) and eigenvalue phases as exact "k/l"
fractions. Verdict CSVs are semicolon separated because the s and phase
columns contain commas. A verdict CSV is written from a
:class:`suppression.VerdictTable` in row blocks of ``scattering.CHUNK``, one
column at a time within a block, with empty cells for the columns its
particle kind lacks, and reads back into one. No cell costs a Python call of
its own: occupations come from one digit buffer per block, floats from one
``repr`` per distinct bit pattern, flags and classes from lookup tables.
"""

from __future__ import annotations

import json
import sys
from itertools import chain, repeat

import numpy as np

from .fock import ParticleType
from .permutations import Permutation, RootOfUnity
from .scattering import CHUNK
from .suppression import EventClass, VerdictTable
from .unitaries import UnitarySpec

VERDICT_COLUMNS = (
    "s",
    "lambda_phases",
    "boson_suppressed",
    "fermion_suppressed",
    "p_boson",
    "p_fermion",
    "p_dist",
    "class",
)


# --- complex matrices -------------------------------------------------------

def matrix_to_json(matrix) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def matrix_from_json(payload: dict) -> np.ndarray:
    try:
        rows, cols, data = payload["rows"], payload["cols"], payload["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"matrix JSON needs rows/cols/data: {exc}") from exc
    if not (_is_int(rows) and _is_int(cols) and rows >= 0 and cols >= 0):
        raise ValueError(f"matrix JSON rows/cols must be non-negative integers, got {rows!r}/{cols!r}")
    if not isinstance(data, list):
        raise ValueError(f"matrix JSON data must be a list of [re, im] pairs, got {data!r}")
    if len(data) != rows * cols:
        raise ValueError(f"matrix JSON has {len(data)} entries, expected {rows * cols}")
    for index, entry in enumerate(data):
        if not (isinstance(entry, list) and len(entry) == 2 and all(map(_is_number, entry))):
            raise ValueError(f"matrix JSON entry {index} must be a [re, im] pair of numbers, "
                             f"got {entry!r}")
    return np.array([complex(re, im) for re, im in data], dtype=complex).reshape(rows, cols)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A number that converts to a finite float (no NaN, infinity or huge integer)."""
    return _is_number(value) and abs(value) <= sys.float_info.max


# --- occupations and permutations --------------------------------------------

def parse_occupation(text: str) -> tuple[int, ...]:
    """Occupation lists travel as plain JSON integer arrays."""
    try:
        values = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"cannot parse occupation list {text!r}: {exc}") from exc
    if not isinstance(values, list) or not all(map(_is_int, values)):
        raise ValueError(f"occupation list must be a JSON array of integers: {text!r}")
    return tuple(values)


def parse_permutation(value, n: int | None = None) -> Permutation:
    """Accept cycle notation ``"(1 2 3)(4 5)"`` or a 1-based one-line array
    of integers, as a list or as its JSON text."""
    if isinstance(value, str):
        text = value.strip()
        if not text.startswith("["):
            return Permutation.parse(text, n=n)
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"cannot parse one-line permutation {text!r}: {exc}") from exc
    if not (isinstance(value, (list, tuple)) and all(map(_is_int, value))):
        raise ValueError(f"one-line permutation must be an array of integers, got {value!r}")
    if not value:
        raise ValueError("one-line permutation must name at least one mode, got []")
    return Permutation.from_one_line(value)


# --- unitary specs -----------------------------------------------------------

_PHASES = (lambda v: isinstance(v, list) and all(map(_is_finite, v)), "a list of finite numbers")
#: Optional spec keys: the test a non-null value must pass, and what it has to be.
_SPEC_KEYS = {
    "theta": _PHASES,
    "sigma": _PHASES,
    "seed": (lambda v: _is_int(v) and v >= 0, "a non-negative integer or null"),
    "column_order": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
}


def spec_from_json(payload: dict, n: int | None = None) -> UnitarySpec:
    """UnitarySpec from its JSON form.

    Keys: ``permutation`` (required), ``theta``, ``sigma`` (phase angle
    lists), ``seed`` (degenerate-rotation seed), ``column_order`` (1-based).
    The optional keys may be null; otherwise their types are checked here.
    """
    if not isinstance(payload, dict):
        raise ValueError("unitary spec JSON must be an object")
    if "permutation" not in payload:
        raise ValueError("unitary spec JSON needs a 'permutation' key")
    unknown = set(payload) - {"permutation", *_SPEC_KEYS}
    if unknown:
        raise ValueError(f"unknown unitary spec keys: {sorted(unknown)}")
    for key, (valid, what) in _SPEC_KEYS.items():
        if payload.get(key) is not None and not valid(payload[key]):
            raise ValueError(f"unitary spec key {key!r} must be {what}, got {payload[key]!r}")
    lists = {key: None if payload.get(key) is None else tuple(payload[key])
             for key in ("theta", "sigma", "column_order")}
    return UnitarySpec(parse_permutation(payload["permutation"], n=n),
                       theta_phases=lists["theta"], sigma_phases=lists["sigma"],
                       rotation_seed=payload.get("seed"), column_order=lists["column_order"])


def spec_to_json(spec: UnitarySpec) -> dict:
    payload: dict = {"permutation": spec.permutation.cycle_string()}
    if spec.theta_phases is not None:
        payload["theta"] = list(spec.theta_phases)
    if spec.sigma_phases is not None:
        payload["sigma"] = list(spec.sigma_phases)
    if spec.rotation_seed is not None:
        payload["seed"] = spec.rotation_seed
    if spec.column_order is not None:
        payload["column_order"] = list(spec.column_order)
    return payload


# --- verdict tables ---------------------------------------------------------

_FLAG_CELLS = np.array(["false", "true"], dtype=object)
#: Class cells by the member's id: members are singletons, and hashing one runs Python code.
_CLASS_CELLS = {id(event): event.value for event in EventClass}


def _flag_cells(column: np.ndarray) -> list[str]:
    return _FLAG_CELLS[column.astype(np.intp)].tolist()


def _occupation_cells(outputs: np.ndarray) -> list[str]:
    """Each row of a (B, n) integer array as a compact JSON array, "[0,12,1]".

    Every entry takes a sign slot, ``width`` digit slots and its separator
    in one uint8 buffer; a mask drops the unused slots, and the rows, ended
    by newlines, are decoded and split once.
    """
    b, n = outputs.shape
    if b == 0 or n == 0:
        return ["[]"] * b
    magnitude = np.abs(outputs.astype(np.int64))
    width = len(str(int(magnitude.max())))
    power = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    leading = magnitude[..., None] // power  # (B, n, width): the digits and all before them
    chars = np.empty((b, n, width + 2), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    chars[..., 0] = ord("-")
    keep[..., 0] = outputs < 0
    chars[..., 1:-1] = leading % 10 + ord("0")
    keep[..., 1:-2] = leading[..., :-1] > 0  # no leading zeros; the units digit stays
    chars[..., -1] = ord(",")
    chars[:, -1, -1] = ord("]")
    line = np.empty((b, 1 + n * (width + 2) + 1), dtype=np.uint8)
    line[:, 0], line[:, 1:-1], line[:, -1] = ord("["), chars.reshape(b, -1), ord("\n")
    mask = np.ones(line.shape, dtype=bool)
    mask[:, 1:-1] = keep.reshape(b, -1)
    return line[mask].tobytes().decode("ascii").split("\n")[:-1]


def _float_cells(column: np.ndarray) -> list[str]:
    """The ``repr`` of each float, computed once per distinct bit pattern
    (so -0.0 and 0.0 stay apart)."""
    column = np.asarray(column, dtype=np.float64)
    bits, index = np.unique(column.view(np.int64), return_inverse=True)
    cells = list(map(repr, bits.view(np.float64).tolist()))
    return list(map(cells.__getitem__, index.tolist()))


def _verdict_blocks(table: VerdictTable):
    """The lines of a verdict CSV in lists: the header, then one list per
    block of rows (see :func:`verdict_lines`)."""
    parity = table.parity is not None
    yield [";".join(VERDICT_COLUMNS + ("old_fermion_suppressed",) * parity) + "\n"]
    distinct = dict(zip(map(id, table.distributions), table.distributions))
    phases = {key: ",".join(map(str, dist)) for key, dist in distinct.items()}
    empty = repeat("")  # zip stops at the filled columns
    for start in range(0, len(table), CHUNK):
        rows = slice(start, start + CHUNK)
        probs = None if table.kind is ParticleType.DISTINGUISHABLE else _float_cells(table.p[rows])
        columns = [
            _occupation_cells(table.outputs[rows]),
            map(phases.__getitem__, map(id, table.distributions[rows])),
            _flag_cells(table.boson[rows]),
            empty if table.fermion is None else _flag_cells(table.fermion[rows]),
            probs if table.kind is ParticleType.BOSON else empty,
            probs if table.kind is ParticleType.FERMION else empty,
            _float_cells(table.p_dist[rows]),
            map(_CLASS_CELLS.__getitem__, map(id, table.classes[rows].tolist())),
        ]
        if parity:
            columns.append(_flag_cells(table.parity[rows]))
        yield [line + "\n" for line in map(";".join, zip(*columns))]


def verdict_lines(table: VerdictTable):
    """The verdict CSV of a table, line by line: the header, then one line
    per output, with an ``old_fermion_suppressed`` column when the table has
    the parity law.

    The rows go in blocks of ``scattering.CHUNK``, so memory does not grow
    with the table; each block is formatted column by column. Occupations
    come from one digit buffer, floats from one ``repr`` per distinct bit
    pattern, flags and classes from lookups, and each eigenvalue
    distribution is formatted once (rows with equal multisets share one
    tuple, see ``output_laws``, and the table holds every tuple, so no id
    is reused).
    """
    return chain.from_iterable(_verdict_blocks(table))


def write_verdict_csv(path, table: VerdictTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for block in _verdict_blocks(table):
            fh.write("".join(block))


def read_verdict_csv(path) -> VerdictTable:
    """The table of a verdict CSV. Its kind is the one whose probability
    column is filled; a table without rows reads as distinguishable."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = tuple(lines[0].split(";"))
    if header[: len(VERDICT_COLUMNS)] != VERDICT_COLUMNS:
        raise ValueError(f"unexpected verdict CSV header: {header}")
    rows = [line.split(";") for line in lines[1:]]
    for number, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValueError(f"verdict CSV row {number} has {len(row)} cells, expected {len(header)}")
    cells = {name: [row[i] for row in rows] for i, name in enumerate(header)}

    def floats(name):
        return np.array(list(map(float, cells[name])), dtype=float)

    def flags(name):
        return np.array([cell == "true" for cell in cells[name]], dtype=bool)

    kind = (ParticleType.BOSON if any(cells["p_boson"]) else
            ParticleType.FERMION if any(cells["p_fermion"]) else ParticleType.DISTINGUISHABLE)
    parsed = {cell: tuple(RootOfUnity.parse(tok) for tok in cell.split(",") if tok)
              for cell in set(cells["lambda_phases"])}
    return VerdictTable(
        kind=kind,
        outputs=np.array([json.loads(cell) for cell in cells["s"]],
                         dtype=np.int64).reshape(len(rows), -1 if rows else 0),
        distributions=tuple(parsed[cell] for cell in cells["lambda_phases"]),
        boson=flags("boson_suppressed"),
        p=floats({ParticleType.BOSON: "p_boson", ParticleType.FERMION: "p_fermion"}
                 .get(kind, "p_dist")),
        p_dist=floats("p_dist"),
        classes=np.array([EventClass(cell) for cell in cells["class"]], dtype=object),
        fermion=flags("fermion_suppressed") if kind is ParticleType.FERMION else None,
        parity=flags("old_fermion_suppressed") if "old_fermion_suppressed" in header else None,
    )


def write_fit_csv(path, fit) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("value;mean_deviation\n")
        for g, m in zip(fit.grid, fit.measured):
            fh.write(f"{repr(float(g))};{repr(float(m))}\n")


def read_fit_csv(path) -> tuple[tuple[float, ...], tuple[float, ...]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if lines[0] != "value;mean_deviation":
        raise ValueError(f"unexpected fit CSV header: {lines[0]!r}")
    pairs = [tuple(float(cell) for cell in line.split(";")) for line in lines[1:]]
    return tuple(g for g, _ in pairs), tuple(m for _, m in pairs)


def write_metadata(path, metadata: dict) -> None:
    """Indented JSON and a newline, in one write (``json.dump`` writes each
    token on its own, about 1500 calls for a DFT comparison)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(metadata, indent=2) + "\n")


# --- experiment configs ------------------------------------------------------

EXPERIMENT_KINDS = (
    "mean-probabilities",
    "fourier-comparison",
    "unitary-robustness",
    "distinguishability-robustness",
)

_ROBUSTNESS_KEYS = frozenset({
    "kind", "permutation", "fourier", "rotation_seed", "input_state", "target_output",
    "particle", "grid", "samples", "seed",
})
#: Every key the command line reads, per experiment kind; others are refused.
EXPERIMENT_KEYS = {
    "mean-probabilities": frozenset({"kind", "permutation", "input_state", "types", "bases",
                                     "seed"}),
    "fourier-comparison": frozenset({"kind", "modes", "order", "input_state"}),
    "unitary-robustness": _ROBUSTNESS_KEYS | {"delta_distribution"},
    "distinguishability-robustness": _ROBUSTNESS_KEYS | {"ensemble", "eta_scale"},
}

#: Optional keys: the test their value must pass, and what it has to be.
_OPTIONAL_KEYS = {
    "bases": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "samples": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
    "seed": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "rotation_seed": (lambda v: v is None or (_is_int(v) and v >= 0),
                      "a non-negative integer or null"),
    "eta_scale": (lambda v: _is_finite(v) and v >= 0, "a finite non-negative number"),
    "delta_distribution": (lambda v: isinstance(v, str), "a string"),
    "ensemble": (lambda v: isinstance(v, str), "a string"),
}


def check_experiment_config(payload: dict) -> list[str]:
    """Collect every schema problem instead of stopping at the first one."""
    problems = []
    if not isinstance(payload, dict):
        return ["experiment config must be a JSON object"]
    kind = payload.get("kind")
    if kind not in EXPERIMENT_KINDS:
        problems.append(f"'kind' must be one of {EXPERIMENT_KINDS}, got {kind!r}")
        return problems
    unknown = set(payload) - EXPERIMENT_KEYS[kind]
    if unknown:
        problems.append(f"unknown keys for {kind}: {sorted(unknown)}")
    for key, (valid, what) in _OPTIONAL_KEYS.items():
        if key in payload and key in EXPERIMENT_KEYS[kind] and not valid(payload[key]):
            problems.append(f"key {key!r} must be {what}, got {payload[key]!r}")

    def need(key, types):
        if key not in payload:
            problems.append(f"missing key {key!r}")
        elif not isinstance(payload[key], types) or isinstance(payload[key], bool):
            problems.append(f"key {key!r} has wrong type {type(payload[key]).__name__}")

    def occupation_ok(key):
        value = payload.get(key)
        if isinstance(value, list) and not all(_is_int(v) and v >= 0 for v in value):
            problems.append(f"key {key!r} must hold non-negative integers")

    def permutation_ok():
        need("permutation", (str, list))
        value = payload.get("permutation")
        if isinstance(value, list) and not all(map(_is_int, value)):
            problems.append("key 'permutation' must hold integers in one-line form")
        elif value == []:
            problems.append("key 'permutation' must name at least one mode")

    if kind == "mean-probabilities":
        permutation_ok()
        need("input_state", list)
        occupation_ok("input_state")
        if "types" in payload:
            if not isinstance(payload["types"], list) or not payload["types"]:
                problems.append("'types' must be a non-empty list")
            else:
                seen = set()
                for t in payload["types"]:
                    try:
                        particle = ParticleType.parse(t)
                    except (ValueError, TypeError, AttributeError):
                        problems.append(f"unknown particle type {t!r}")
                        continue
                    if particle in seen:
                        problems.append(f"'types' names {particle.value!r} twice")
                    seen.add(particle)
    elif kind == "fourier-comparison":
        need("modes", int)
        need("order", int)
        need("input_state", list)
        occupation_ok("input_state")
    else:
        need("input_state", list)
        need("target_output", list)
        occupation_ok("input_state")
        occupation_ok("target_output")
        need("grid", list)
        if isinstance(payload.get("grid"), list) and not all(
            _is_finite(g) and g > 0 for g in payload["grid"]
        ):
            problems.append("'grid' must hold finite positive numbers")
        if "fourier" in payload:
            if not (
                isinstance(payload["fourier"], list)
                and len(payload["fourier"]) == 2
                and all(_is_int(x) for x in payload["fourier"])
            ):
                problems.append("'fourier' must be [modes, order]")
        elif "permutation" not in payload:
            problems.append("robustness config needs 'permutation' or 'fourier'")
        else:
            permutation_ok()
        if "particle" in payload and payload["particle"] not in ("boson", "fermion"):
            problems.append("'particle' must be 'boson' or 'fermion'")
    return problems
