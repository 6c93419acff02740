"""File formats: matrix JSON, spec JSON, verdict CSV, experiment configs.

Numbers cross the file boundary losslessly: floats are written as ``repr``
writes them (the shortest decimal that reads back to the same double) and
eigenvalue phases as exact "k/l" fractions. Verdict CSVs are semicolon
separated because the s and phase columns contain commas. A verdict CSV is
written from a :class:`suppression.VerdictTable`: the fixed
:data:`VERDICT_COLUMNS`, with empty cells for the columns the table lacks,
then every other law column of the table, by name and in its order;
``tests/oracles.py`` holds a reader.

The CSV is built as bytes, with no Python call per row or per cell. Every
cell is a row of ASCII bytes of its column's width, with NULs in the slots
its text leaves empty. A command writes all its tables with one
:func:`write_verdict_csvs` call, which makes the float and eigenvalue cells
once for all of them: each distinct float through one Schubfach pass in
numpy arithmetic, laid out the way ``repr`` lays it out, and each table's
eigenvalue distributions from its ``root_counts``, the text of each
distinct root written once and gathered into every distribution. Each
table then has one uint8 row buffer of ``scattering.CHUNK`` rows, its
cells at fixed offsets and the separators between them set once. Each
block of rows writes into it its occupations (fixed-width "[d,d,...,d]"
when every count is a single digit, whose brackets and commas stay in the
buffer, a digit loop otherwise) and every other cell, gathered by its
row's index. One pass deletes the NULs, and one write sends the block to
the file.

A run's ``meta.json`` holds the bytes of ``json.dumps(metadata, indent=2)``
and a newline. :func:`write_metadata` makes them with one join per list of
integers and C-level formatting of each other scalar, not with the
pure-Python encoder that an indent selects.

Each key of an experiment config is declared once, in
:data:`EXPERIMENT_KEYS` (kind, then key): whether a config must hold it,
the test its value must pass, the runner argument it sets and how its
value becomes that argument (particle names become ``ParticleType``
members here and nowhere else). The check of a config and
:func:`experiment_options`, the arguments the command line hands the
runners, both read that one table.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .fock import ParticleType
from .permutations import Permutation
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
    of integers, as a list or as its JSON text. Either form takes ``n`` the
    same way: modes past the ones given are fixed points, and an ``n`` below
    them is refused."""
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
    perm = Permutation.from_one_line(value)
    if n is not None and n < perm.n:
        raise ValueError(f"n={n} smaller than one-line permutation length {perm.n}")
    return perm if n is None else Permutation([*perm.image, *range(perm.n, n)])


# --- unitary specs -----------------------------------------------------------

_PHASES = (lambda v: isinstance(v, list) and all(map(_is_finite, v)), "a list of finite numbers")
#: Optional spec keys: the test a non-null value must pass, and what it has to be.
_SPEC_KEYS = {
    "theta": _PHASES,
    "sigma": _PHASES,
    "seed": (lambda v: _is_int(v) and v >= 0, "a non-negative integer or null"),
    "column_order": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
}


def spec_from_json(payload: dict) -> UnitarySpec:
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
    return UnitarySpec(parse_permutation(payload["permutation"]),
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


def _cell_matrix(cells) -> np.ndarray:
    """ASCII cells as the rows of a uint8 matrix, each padded with NUL bytes."""
    fixed = np.array(cells, dtype="S")
    return fixed.view(np.uint8).reshape(len(fixed), fixed.itemsize)


#: Flag cells by the flag, and event class cells by the class's place in ``EventClass``.
_FLAGS = _cell_matrix(["false", "true"])
_EVENTS = _cell_matrix([event.value for event in EventClass])


def _digit_slots(outputs: np.ndarray) -> int:
    """The digit slots of each entry of the occupation cells of a (B, n)
    integer array: 0 when every entry is a single digit (0-9), for the
    fixed-width form, else the digit count of the largest magnitude."""
    if outputs.shape[1] and outputs.min(initial=0) >= 0 and outputs.max(initial=0) <= 9:
        return 0
    return len(str(int(np.abs(outputs.astype(np.int64)).max(initial=0))))


def _occupations(outputs: np.ndarray, digits: int | None = None) -> np.ndarray:
    """Each row of a (B, n) integer array as a compact JSON array, "[0,12,1]",
    in NUL-padded bytes, with ``digits`` slots per entry (default: those of
    :func:`_digit_slots`, which a block of a table takes from the whole table).

    With 0 digit slots each row is "[d,d,...,d]" of fixed width 2n + 1,
    written with strided stores and no NULs. Otherwise every entry has a
    sign slot, ``digits`` digit slots and its separator, and NULs stand for
    the sign of a non-negative entry, leading zeros and the last entry's
    separator.
    """
    b, n = outputs.shape
    width = _digit_slots(outputs) if digits is None else digits
    if not width:
        line = np.empty((b, 2 * n + 1), dtype=np.uint8)
        line[:, 2::2] = ord(",")
        line[:, 0], line[:, -1] = ord("["), ord("]")
        np.add(outputs, ord("0"), out=line[:, 1::2], casting="unsafe")  # every other byte
        return line
    rest = np.abs(outputs.astype(np.int64))
    line = np.zeros((b, n * (width + 2) + 2), dtype=np.uint8)
    line[:, 0], line[:, -1] = ord("["), ord("]")
    chars = line[:, 1:-1].reshape(b, n, width + 2)  # a view: one axis split in two
    chars[..., 0][outputs < 0] = ord("-")
    for place in range(width, 0, -1):  # from the units digit leftwards
        quotient = rest // 10
        digit = rest - quotient * 10 + ord("0")
        chars[..., place] = digit if place == width else np.where(rest > 0, digit, 0)
        rest = quotient
    chars[:, :-1, -1] = ord(",")
    return line


# --- float cells ---------------------------------------------------------------
#
# The shortest decimal that reads back to the same double comes from Schubfach
# (R. Giulietti, "The Schubfach way to render doubles", 2020), in uint64 array
# arithmetic. Two steps differ from the Java original so that the digits are
# Python's: a tiny subnormal keeps one digit (Java widens it to two), and the
# one-digit-shorter candidate is tried whenever there are at least two digits.
# The wrapping products stay arrays: numpy scalars warn on overflow.

_U = np.uint64
_LOW32, _LOW63 = _U(0xFFFFFFFF), _U((1 << 63) - 1)
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
#: Template slots of a cell's source row: the significand digits come first
#: (20 bytes, the leading one at byte 3), then the exponent's four digits
#: (the first is always 0), then single characters; ``_END`` is a NUL byte
#: that ends a cell.
_DIGIT0, _ZERO, _EXPONENT = 3, 20, 21
_DOT, _MINUS, _E, _PLUS, _I, _N, _F, _A, _END = range(24, 33)
_CELL_WIDTH = 25  # "-1.2345678901234567e-308" and its end
#: Layout codes: 0..19 are the fixed form with the decimal point at -3..16;
#: the exponent form is 20 + 2 * (exponent < 0) + (three exponent digits).
_INF, _NAN, _CODES = 24, 25, 26


@lru_cache(maxsize=None)
def _digit_words():
    """Each 4-digit group 0000..9999 as one uint32 of ASCII digits."""
    group = np.arange(10000, dtype=np.uint32)
    chars = np.empty((10000, 4), dtype=np.uint8)
    for place in range(3, -1, -1):
        chars[:, place] = group % 10 + ord("0")
        group //= 10
    return chars.view(np.uint32).ravel()


@lru_cache(maxsize=None)
def _power(k: int) -> tuple[int, int, int]:
    """The 126-bit g = floor(10^-k 2^-r) + 1 with 2^125 <= 10^-k 2^-r < 2^126,
    as its high and low 63 bits, and floor(log2(10^-k)) = r + 125."""
    if k <= 0:
        power = 10 ** -k
        log2 = power.bit_length() - 1
        shift = 125 - log2
        g = (power << shift if shift >= 0 else power >> -shift) + 1
    else:
        log2 = -(10 ** k - 1).bit_length()
        g = (1 << (125 - log2)) // 10 ** k + 1
    return g >> 63, g & ((1 << 63) - 1), log2


def _mul_high(a, b0, b1):
    """The high 64 bits of each 128-bit product a (b1 2^32 + b0), for
    a < 2^63 and b1 < 2^28, from 32-bit limbs (no partial sum can wrap)."""
    a0, a1 = a & _LOW32, a >> _U(32)
    middle = a0 * b1 + a1 * b0 + ((a0 * b0) >> _U(32))
    return a1 * b1 + (middle >> _U(32))


def _shortest(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f 10^k the shortest decimal that rounds to each positive
    finite double, the closest such one, and an even f on a tie."""
    bits = magnitude.view(np.uint64)
    fraction = bits & _U((1 << 52) - 1)
    biased = (bits >> _U(52)).astype(np.int64)
    normal = biased != 0
    c = np.where(normal, fraction | _U(1 << 52), fraction)
    q = np.where(normal, biased - 1075, -1074)  # the double is c 2^q
    # a power of two above the smallest normal has its lower neighbour half as far
    irregular = (fraction == 0) & (biased > 1)
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) when irregular
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    low = int(k.min())
    needed = np.flatnonzero(np.bincount(k - low)) + low
    powers = np.zeros((3, int(k.max()) - low + 1), dtype=np.uint64)
    powers[:, needed - low] = np.array([_power(int(e)) for e in needed.tolist()],
                                       dtype=np.int64).T.view(np.uint64)
    g1, g0, log2 = (row.take(k - low) for row in powers)
    # 4 c and its two rounding bounds, scaled and multiplied by g: 4 v 10^-k
    # rounded to odd, so comparisons of integers decide interval membership
    # (cp < 2^60: 4 c < 2^55, shifted by 2..5)
    cp = np.empty((3, len(c)), dtype=np.uint64)
    cp[0] = c << _U(2)
    cp[1] = cp[0] - _U(2) + irregular
    cp[2] = cp[0] + _U(2)
    cp <<= (q + log2.view(np.int64) + 2).astype(np.uint64)
    cp0, cp1 = cp & _LOW32, cp >> _U(32)
    z = ((g1 * cp) >> _U(1)) + _mul_high(g0, cp0, cp1)
    vb, vbl, vbr = (_mul_high(g1, cp0, cp1) + (z >> _U(63))) | (((z & _LOW63) + _LOW63) >> _U(63))
    out = c & _U(1)  # an odd significand excludes the interval's ends
    s = vb >> _U(2)
    t = s + _U(1)
    # one digit shorter: u' = 10 floor(s / 10) or w' = u' + 10, if exactly one is in
    u10 = s // _U(10) * _U(10)
    u10_in = vbl + out <= u10 << _U(2)
    shorter = (s >= 10) & (u10_in != (((u10 + _U(10)) << _U(2)) + out <= vbr))
    u_in = vbl + out <= s << _U(2)
    w_in = (t << _U(2)) + out <= vbr
    above = vb.view(np.int64) - ((s + t) << _U(1)).view(np.int64)  # v - (s + t) / 2, in quarters
    lower = np.where(u_in != w_in, u_in, (above < 0) | ((above == 0) & (s & _U(1) == 0)))
    return np.where(shorter, np.where(u10_in, u10, u10 + _U(10)), np.where(lower, s, t)), k


@lru_cache(maxsize=None)
def _template(key: int) -> np.ndarray:
    """The source slots of one cell layout, ``key = (sign 17 + digits - 1)
    _CODES + code``, padded with ``_END``."""
    rest, code = divmod(key, _CODES)
    sign, digits = divmod(rest, 17)
    digits += 1
    d = list(range(_DIGIT0, _DIGIT0 + digits))
    if code == _INF:
        body = [_I, _N, _F]
    elif code == _NAN:
        body = [_N, _A, _N]
    elif code >= 20:  # d.ddde-05
        wide = 2 + (code & 1)
        body = (d[:1] + [_DOT] * (digits > 1) + d[1:] + [_E, _MINUS if code >= 22 else _PLUS]
                + list(range(_EXPONENT + 3 - wide, _EXPONENT + 3)))
    elif code <= 3:  # 0.00ddd
        body = [_ZERO, _DOT] + [_ZERO] * (3 - code) + d
    elif code - 3 < digits:  # dd.ddd
        body = d[:code - 3] + [_DOT] + d[code - 3:]
    else:  # ddd00.0
        body = d + [_ZERO] * (code - 3 - digits) + [_DOT, _ZERO]
    cell = [_MINUS] * sign + body
    return np.array(cell + [_END] * (_CELL_WIDTH - len(cell)), dtype=np.intp)


def _float_cells(values) -> np.ndarray:
    """The ``repr`` of each float64 value as a row of ASCII bytes, padded
    with NULs to ``_CELL_WIDTH``: Schubfach digits, laid out the way
    ``repr`` lays them out.

    The exponent form is used when the decimal point falls at or before the
    fourth place left of the first digit or more than 16 places right of it
    (``1e-05``, ``1.5e+16``, ``5e-324``), the fixed form otherwise, with
    ``.0`` on integral values; ``-0.0``, ``inf``, ``-inf`` and ``nan`` as
    ``repr`` writes them. Each value gets a source row of its digits and
    characters and a layout key; one gather through the stacked templates of
    the layouts present (:func:`_template`), each value's found by its key,
    lays out every cell.

    The values go in blocks of 8 ``CHUNK`` (:func:`_lay_out`), so that no
    temporary outgrows about 200 kB, memory the allocator reuses: with
    arrays over all the 10 510 distinct floats of a 12-mode DFT command,
    glibc maps fresh pages for them, about a thousand page faults per call.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    cells = np.empty((len(x), _CELL_WIDTH), dtype=np.uint8)
    block = 8 * CHUNK
    for start in range(0, len(x), block):
        _lay_out(x[start:start + block], cells[start:start + block])
    return cells


def _lay_out(x: np.ndarray, cells: np.ndarray) -> None:
    """Write the cells of :func:`_float_cells` for a non-empty block of
    values into ``cells``."""
    size = len(x)
    magnitude = np.abs(x)
    finite = np.isfinite(magnitude)
    regular = finite & (magnitude != 0)
    f, k = _shortest(np.where(regular, magnitude, 1.0))
    length = np.searchsorted(_POW10, f, side="right")  # f has this many digits
    point = np.where(regular, length + k, 1)  # the decimal point follows this many digits
    zeros = np.zeros(size, dtype=np.int64)
    for places in (16, 8, 4, 2, 1):  # strip f's trailing zeros, halving the step
        power = _POW10[places]
        quotient = f // power
        whole = quotient * power == f
        f = np.where(whole, quotient, f)
        zeros += places * whole
    digits = np.where(regular, length - zeros, 1)
    groups = np.empty((size, 6), dtype=np.intp)  # the digits from the left in 4-digit groups
    rest = f * _POW10[17 - digits]
    for column in range(4, 0, -1):
        quotient = rest // _U(10000)
        groups[:, column] = rest - quotient * _U(10000)
        rest = quotient
    groups[:, 0] = np.where(finite & ~regular, 0, rest)  # a zero's digit
    groups[:, 5] = np.abs(point - 1)  # the exponent of the exponent form
    words = np.empty((size, 9), dtype=np.uint32)
    words[:, :6] = _digit_words().take(groups)
    words[:, 6:] = np.frombuffer(b".-e+infa\0\0\0\0", dtype=np.uint32)
    code = np.where(~finite, np.where(np.isnan(x), _NAN, _INF),
                    np.where((point <= -4) | (point > 16),
                             20 + 2 * (point < 1) + (np.abs(point - 1) >= 100), point + 3))
    sign = (x.view(np.int64) < 0) & (code != _NAN)
    # the templates of the layouts present, stacked, and each value's row
    # among them through a lookup over the keys (all below 2 * 17 * _CODES)
    key = (sign * 17 + digits - 1) * _CODES + code
    present = np.flatnonzero(np.bincount(key))
    lookup = np.zeros(present[-1] + 1, dtype=np.intp)
    lookup[present] = np.arange(len(present))
    row = lookup.take(key)
    templates = np.stack([_template(layout) for layout in present.tolist()])
    source = words.view(np.uint8).ravel()
    stride = words.strides[0]  # the bytes of one value's source row
    for start in range(0, size, CHUNK):  # in blocks: the index is 8 bytes per cell byte
        index = templates.take(row[start:start + CHUNK], axis=0)
        index += np.arange(start, start + len(index))[:, None] * stride
        # "clip" (no index is out of range) writes ``out`` in place; "raise" buffers it
        np.take(source, index, out=cells[start:start + CHUNK], mode="clip")


def _cell_columns(tables) -> tuple[np.ndarray, list]:
    """The float and eigenvalue cells of ``tables``, each distinct value
    formatted once: one NUL-padded cell per distinct float of all the
    tables, and for each table, in order, the phase cell of each of its
    groups and the index among those floats of each of its ``p`` and
    ``p_dist`` values.

    The floats of all tables go through one :func:`_float_cells` call: its
    fixed cost (over a hundred numpy calls, 0.25 ms on a 2-core x86-64 host)
    would exceed what it saves if it ran once per table or per row block, and
    the tables of one command share many values (the census boson and
    distinguishable tables share p_dist). One sort of their bit patterns
    gives the distinct values and each value's index among them. A table's
    phase cells come from its ``root_counts`` in one gather of its roots'
    texts (:func:`_phase_cells`), with no Python step per group or per root.
    """
    tables = tuple(tables)
    patterns = [np.asarray(column, dtype=np.float64).ravel().view(np.int64)
                for table in tables for column in (table.p, table.p_dist)]
    bits = np.concatenate(patterns)
    order = np.argsort(bits)
    ordered = bits[order]
    first = np.ones(len(bits), dtype=bool)  # np.unique hashes on numpy 2, several times slower
    first[1:] = ordered[1:] != ordered[:-1]
    index = np.empty(len(bits), dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    per_column = np.split(index, np.cumsum([len(column) for column in patterns])[:-1])
    laws = [table.laws for table in tables]
    names = {root: str(root) for root in {root for law in laws for root in law.roots}}
    phases = [_phase_cells([names[root] for root in law.roots], law.root_counts) for law in laws]
    return (_float_cells(ordered[first].view(np.float64)),
            list(zip(phases, per_column[::2], per_column[1::2])))


def _phase_cells(texts, root_counts: np.ndarray) -> np.ndarray:
    """The phase cell of each column of a (D, G) ``root_counts``, as NUL
    padded bytes: the texts of the D roots, each repeated by its count and
    joined by commas. Slot j of cell g is the j-th root of multiset g as
    ",k/l" padded to the widest root, or NULs past the multiset's size; the
    cell's first byte, the leading comma, is cleared."""
    d, g = root_counts.shape
    sizes = root_counts.sum(axis=0)
    index = np.full((g, int(sizes.max(initial=0))), d)  # row d of ``slots`` is all NULs
    index[np.arange(index.shape[1]) < sizes[:, None]] = np.tile(np.arange(d), g).repeat(
        root_counts.T.ravel())
    slots = _cell_matrix(["," + text for text in texts] + [""])
    cells = slots[index].reshape(g, index.shape[1] * slots.shape[1])
    cells[:, :1] = 0
    return cells


def _verdict_blocks(table: VerdictTable, floats: np.ndarray, phases: np.ndarray,
                    p: np.ndarray, p_dist: np.ndarray):
    """The verdict CSV of a table as ASCII bytes: the header, then each
    block of rows (see :func:`write_verdict_csvs`), from the table's cells
    of :func:`_cell_columns`.

    The table has one uint8 row buffer of up to ``CHUNK`` rows, each row
    its cells at fixed offsets with the separators between them, set once.
    Each block writes its occupations and then each other column, gathered
    by its rows' indices, into its slices of the buffer; one pass deletes
    the NULs. The columns are :data:`VERDICT_COLUMNS`, then each law column
    of the table that is not among them, in the table's order."""
    laws = table.laws.columns
    header = VERDICT_COLUMNS + tuple(name for name in laws if name not in VERDICT_COLUMNS)
    yield (";".join(header) + "\n").encode()
    # (source cells, each row's index into them) by column name; a column
    # the table lacks stays empty
    named = {name: (_FLAGS, column) for name, column in laws.items()}
    named.update({"lambda_phases": (phases, table.laws.group), "p_dist": (floats, p_dist),
                  "class": (_EVENTS, table.codes)})
    if table.kind is not ParticleType.DISTINGUISHABLE:
        named["p_boson" if table.kind is ParticleType.BOSON else "p_fermion"] = (floats, p)
    columns = [named.get(name) for name in header[1:]]  # after the occupations
    digits = _digit_slots(table.outputs)
    first = _occupations(table.outputs[:CHUNK], digits)  # the first block's cells fix the width
    widths = [first.shape[1]] + [0 if column is None else column[0].shape[1] for column in columns]
    ends = np.cumsum(np.add(widths, 1)).tolist()  # each cell is followed by its separator
    buffer = np.empty((len(first), ends[-1]), dtype=np.uint8)
    buffer[:, np.subtract(ends, 1)] = ord(";")
    buffer[:, -1] = ord("\n")
    buffer[:, :widths[0]] = first
    for start in range(0, len(table), CHUNK):
        rows = slice(start, start + CHUNK)
        outputs = table.outputs[rows]
        block = buffer[:len(outputs)]
        if digits:
            block[:, :widths[0]] = _occupations(outputs, digits)
        else:  # fixed width: every row keeps the first block's brackets and commas
            np.add(outputs, ord("0"), out=block[:, 1:widths[0]:2], casting="unsafe")
        for column, begin, end in zip(columns, ends, ends[1:]):
            if column is not None:
                cells, index = column
                block[:, begin:end - 1] = cells.take(index[rows], axis=0)
        yield block.tobytes().translate(None, b"\0")  # drops the padding


def verdict_lines(table: VerdictTable):
    """The verdict CSV of a table, line by line: the bytes
    :func:`write_verdict_csvs` writes for it, decoded."""
    floats, (columns,) = _cell_columns([table])
    for block in _verdict_blocks(table, floats, *columns):
        yield from block.decode("ascii").splitlines(keepends=True)


def write_verdict_csvs(tables: dict) -> None:
    """Write the verdict CSV of each table of ``{path: table}``: the header,
    then one line per output. The columns are :data:`VERDICT_COLUMNS`, with
    empty cells where the table has no such column, then every other law
    column of the table (``old_fermion_suppressed`` today), in its order.

    The cells of all the tables come from one :func:`_cell_columns` call, so
    a command that writes several tables formats each distinct float and
    eigenvalue once. The rows go in blocks of ``scattering.CHUNK`` through
    one reused row buffer per table (:func:`_verdict_blocks`), so memory does
    not grow with a table. Each block fills the buffer's NUL-padded cells;
    one pass deletes the NULs, and one write sends the rest to the file.
    """
    floats, columns = _cell_columns(tables.values())
    for (path, table), cells in zip(tables.items(), columns):
        with open(path, "wb") as fh:
            fh.writelines(_verdict_blocks(table, floats, *cells))


def write_fit_csv(path, fit) -> None:
    """One line per value of ``fit.metadata["grid"]`` with its mean of
    ``fit.measured``, each float as ``repr`` writes it: for a fit's few
    values one ``repr`` each costs less than a :func:`_float_cells` pass."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("value;mean_deviation\n")
        fh.writelines(f"{float(g)!r};{float(m)!r}\n"
                      for g, m in zip(fit.metadata["grid"], fit.measured))


def _indented_json(value, indent: str = "") -> str:
    """The text of ``json.dumps(value, indent=2)`` for a value nested at
    ``indent``, with no pure-Python encoder pass over its scalars.

    A str goes through json's C string encoder, and an int or a finite float
    is its ``repr``, as json writes them; a non-empty list or tuple of plain
    ints is one join of their ``repr``s. Other non-empty lists, tuples and
    dicts with str keys recurse; every other value (bools, None, NaN and the
    infinities, empty containers, other types) is one ``json.dumps``. A dict
    with a key that is not a str goes to ``json.dumps(indent=2)`` itself,
    which converts the keys its own way; a nested value's text is the
    top-level one with ``indent`` after each newline, since strings hold no
    raw newlines.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int or (kind is float and _is_finite(value)):
        return repr(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)) and value:
        items = (map(repr, value) if set(map(type, value)) == {int}
                 else [_indented_json(item, inner) for item in value])
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict) and value:
        if not all(isinstance(key, str) for key in value):
            return json.dumps(value, indent=2).replace("\n", "\n" + indent)
        items = [f"{encode_basestring_ascii(key)}: {_indented_json(item, inner)}"
                 for key, item in value.items()]
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    return json.dumps(value)


def write_metadata(path, metadata: dict) -> None:
    """Write the bytes of ``json.dumps(metadata, indent=2) + "\\n"`` in one
    write. ``json.dumps`` with an indent runs the pure-Python encoder, one
    call per token (a DFT comparison's 96 witness outputs alone are over a
    thousand integers); :func:`_indented_json` gives the same text with one
    join per list of integers and no encoder pass for the common scalars."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_indented_json(metadata) + "\n")


# --- experiment configs ------------------------------------------------------

class ConfigKey(NamedTuple):
    """One key of one experiment kind: whether a config must hold it, the
    ``(valid, what)`` test its value must pass, the runner argument it sets
    (None where ``cli.cmd_experiment`` reads the key itself), and the
    function that makes the argument of a valid value (None: the value)."""

    required: bool
    test: tuple
    arg: str | None
    parse: Callable | None = None


#: The type only: ``fock`` holds the occupation rules and their messages.
_OCCUPATION = (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers")
_PERMUTATION = (lambda v: isinstance(v, str) or (isinstance(v, list) and len(v) > 0
                                                 and all(map(_is_int, v))),
                "cycle notation or a non-empty one-line list of integers")
_INTEGER = (_is_int, "an integer")
_POSITIVE = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_SEED = (lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_STRING = (lambda v: isinstance(v, str), "a string")
#: The keys both robustness fits read.
_FITS = {
    "permutation": ConfigKey(False, _PERMUTATION, None),
    "fourier": ConfigKey(False, (lambda v: isinstance(v, list) and len(v) == 2
                                 and all(map(_is_int, v)), "[modes, order]"), None),
    "rotation_seed": ConfigKey(False, (lambda v: v is None or (_is_int(v) and v >= 0),
                                       "a non-negative integer or null"), None),
    "input_state": ConfigKey(True, _OCCUPATION, "input_state"),
    "target_output": ConfigKey(True, _OCCUPATION, "target_output"),
    "particle": ConfigKey(False, (lambda v: v in ("boson", "fermion"), "'boson' or 'fermion'"),
                          "particle", ParticleType.parse),
    "grid": ConfigKey(True, (lambda v: isinstance(v, list) and all(_is_finite(g) and g > 0
                                                                   for g in v),
                             "a list of finite positive numbers"), "grid"),
    "samples": ConfigKey(False, _POSITIVE, "samples"),
    "seed": ConfigKey(False, _SEED, "seed"),
}
#: Every key the command line reads, per experiment kind; others are refused.
#: The runners hold the defaults: a key the config leaves out is not passed.
EXPERIMENT_KEYS = {
    "mean-probabilities": {
        "permutation": ConfigKey(True, _PERMUTATION, None),
        "input_state": ConfigKey(True, _OCCUPATION, "input_state", tuple),
        "types": ConfigKey(False, (lambda v: isinstance(v, list) and len(v) > 0,
                                   "a non-empty list"), "types",
                           lambda names: tuple(map(ParticleType.parse, names))),
        "bases": ConfigKey(False, _POSITIVE, "num_bases"),
        "seed": ConfigKey(False, _SEED, "seed"),
    },
    "fourier-comparison": {
        "modes": ConfigKey(True, _INTEGER, "n"),
        "order": ConfigKey(True, _INTEGER, "m"),
        "input_state": ConfigKey(True, _OCCUPATION, "input_state"),
    },
    "unitary-robustness": _FITS | {"delta_distribution": ConfigKey(False, _STRING, "distribution")},
    "distinguishability-robustness": _FITS,
}
EXPERIMENT_KINDS = tuple(EXPERIMENT_KEYS)


def check_experiment_config(payload: dict) -> list[str]:
    """Collect every schema problem instead of stopping at the first one."""
    if not isinstance(payload, dict):
        return ["experiment config must be a JSON object"]
    kind = payload.get("kind")
    if kind not in EXPERIMENT_KINDS:  # a tuple: an unhashable kind is refused too
        return [f"'kind' must be one of {EXPERIMENT_KINDS}, got {kind!r}"]
    keys = EXPERIMENT_KEYS[kind]
    unknown = set(payload) - {"kind", *keys}
    problems = [f"unknown keys for {kind}: {sorted(unknown)}"] if unknown else []
    for key, (required, (valid, what), *_) in keys.items():
        if key not in payload:
            if required:
                problems.append(f"missing key {key!r}")
        elif not valid(payload[key]):
            problems.append(f"key {key!r} must be {what}, got {payload[key]!r}")
    # the two rules that span keys or entries
    if "fourier" in keys:  # a fit names its unitary one way: nothing it would drop
        if ("fourier" in payload) == ("permutation" in payload):
            problems.append("robustness config needs exactly one of 'permutation' and 'fourier'")
        elif "rotation_seed" in payload and "fourier" in payload:
            problems.append("'rotation_seed' goes only with 'permutation', not 'fourier'")
    if "types" in keys and isinstance(payload.get("types"), list):
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
    return problems


def experiment_options(payload: dict) -> dict:
    """The runner arguments of a config that :func:`check_experiment_config`
    passed: each present key with an ``arg`` gives its value, parsed."""
    return {entry.arg: entry.parse(payload[key]) if entry.parse else payload[key]
            for key, entry in EXPERIMENT_KEYS[payload["kind"]].items()
            if entry.arg and key in payload}
