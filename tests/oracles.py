"""Reference implementations that the tests hold the library to.

* :func:`leibniz_determinant`: the determinant as the signed sum over all
  n! permutations, the oracle for the elimination-based determinant.
* :func:`reference_verdict_lines`: the verdict CSV formatted row by row,
  one cell at a time, the way the writer worked before it formatted whole
  columns. Its bytes are the contract of ``serialize.write_verdict_csv``.
* :func:`assert_same_table`: two verdict tables agree in every column.
"""

from __future__ import annotations

import numpy as np

from symfock.fock import ParticleType
from symfock.linalg import permutation_signs, permutation_table
from symfock.serialize import VERDICT_COLUMNS


def leibniz_determinant(matrix) -> complex:
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    terms = np.prod(m[np.arange(n)[None, :], permutation_table(n)], axis=1)
    return complex((terms * permutation_signs(n)).sum())


def _fmt_occupation(s) -> str:
    return "[" + ",".join(map(str, s)) + "]"  # the compact JSON array of the integers


def _fmt_optional_float(value) -> str:
    return "" if value is None else repr(float(value))


def _fmt_optional_bool(value) -> str:
    return "" if value is None else ("true" if value else "false")


def reference_verdict_lines(table) -> list[str]:
    """The verdict CSV of ``table``, one row and one cell at a time."""
    header = list(VERDICT_COLUMNS)
    if table.parity is not None:
        header.append("old_fermion_suppressed")
    lines = [";".join(header) + "\n"]
    for i in range(len(table)):
        p = table.p[i]
        row = [
            _fmt_occupation(tuple(int(x) for x in table.outputs[i])),
            ",".join(str(v) for v in table.distributions[i]),
            _fmt_optional_bool(bool(table.boson[i])),
            _fmt_optional_bool(None if table.fermion is None else bool(table.fermion[i])),
            _fmt_optional_float(p if table.kind is ParticleType.BOSON else None),
            _fmt_optional_float(p if table.kind is ParticleType.FERMION else None),
            _fmt_optional_float(table.p_dist[i]),
            table.classes[i].value,
        ]
        if table.parity is not None:
            row.append(_fmt_optional_bool(bool(table.parity[i])))
        lines.append(";".join(row) + "\n")
    return lines


def assert_same_table(a, b) -> None:
    assert a.kind is b.kind
    assert a.distributions == b.distributions
    for name in ("outputs", "boson", "fermion", "parity", "p", "p_dist", "classes"):
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
        else:
            assert x.shape == y.shape and x.tolist() == y.tolist(), name
