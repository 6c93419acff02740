"""Reference implementations that the tests hold the library to.

* :func:`leibniz_determinant`: the determinant as the signed sum over all
  n! permutations, the oracle for the elimination-based determinant.
* :func:`reference_verdict_lines`: the verdict CSV formatted row by row,
  one cell at a time, the way the writer worked before it formatted whole
  columns. Its bytes are the contract of ``serialize.write_verdict_csv``.
* :func:`assert_same_table`: two verdict tables agree in every column,
  floats to the bit.
* :func:`reference_unitary`: one member of a symmetry class built alone,
  the way ``unitaries.build_unitary`` worked before it became the one-seed
  case of the stacked builder: its own eigenstructure, one Ginibre draw, QR
  and matmul per degenerate block, and both invariant checks. Its bits are
  the contract of ``unitaries.build_unitaries`` for every member of a stack.
* :class:`KahanMean` and :func:`reference_census`: the census as it ran
  before it stacked its eigenbases, one :func:`reference_unitary` and four
  lone ``probabilities`` calls per basis, reduced row by row with a
  streaming compensated mean. Their bits are the contract of
  ``experiments.run_mean_probabilities``.
* :func:`reference_dist_fit`: the distinguishability fit as it ran before it
  computed its weights once per fit, one lone ``prob_partial`` call, N!
  weight permanents included, per sub-stack of Gram matrices. Its bits and
  repair count are the contract of
  ``experiments.run_distinguishability_robustness``.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from symfock import experiments
from symfock.experiments import derive_seed, sample_distinguishability
from symfock.fock import ParticleType, output_array, particle_count
from symfock.linalg import STRUCT_TOL, is_unitary, permutation_signs, permutation_table
from symfock.permutations import eigenstructure, symmetry_residual
from symfock.scattering import prob_partial, probabilities
from symfock.serialize import VERDICT_COLUMNS
from symfock.suppression import verdict_table
from symfock.unitaries import ConstructedUnitary, SymmetryError, UnitarySpec


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
            if x.dtype.kind == "f":  # to the bit: -0.0 is not 0.0
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def reference_unitary(spec) -> ConstructedUnitary:
    """U = Theta A Sigma for one spec, built and checked on its own."""
    p = spec.permutation
    structure = eigenstructure(p)
    basis = structure.eigenvectors.copy()
    values = list(structure.eigenvalues)

    if spec.rotation_seed is not None:
        rng = np.random.default_rng(spec.rotation_seed)
        groups: dict = {}
        for idx, value in enumerate(values):
            groups.setdefault(value, []).append(idx)
        for cols in groups.values():
            q = len(cols)
            z = (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))) / np.sqrt(2.0)
            qmat, rmat = np.linalg.qr(z)
            diag = np.diagonal(rmat).copy()
            diag /= np.abs(diag)
            basis[:, cols] = basis[:, cols] @ (qmat * diag)

    if spec.column_order is not None:
        order = [c - 1 for c in spec.column_order]
        if sorted(order) != list(range(p.n)):
            raise ValueError(f"column_order is not a permutation of 1..{p.n}")
        basis = basis[:, order]
        values = [values[c] for c in order]

    theta = np.exp(1j * spec.phases("theta"))
    sigma = np.exp(1j * spec.phases("sigma"))
    matrix = theta[:, None] * basis * sigma[None, :]

    if not is_unitary(matrix, STRUCT_TOL):
        raise SymmetryError("constructed matrix failed the unitarity check")
    residual = symmetry_residual(p, matrix, theta, values)
    if residual > STRUCT_TOL:
        raise SymmetryError(f"mode-exchange residual {residual} exceeds {STRUCT_TOL}")
    return ConstructedUnitary(matrix, tuple(values), spec)


class KahanMean:
    """Streaming compensated mean/max over equally shaped rows, one row per
    call, in arrival order."""

    def __init__(self, width: int):
        self.total = np.zeros(width)
        self._comp = np.zeros(width)
        self.peak = np.zeros(width)
        self.count = 0

    def add(self, row) -> None:
        y = row - self._comp
        t = self.total + y
        self._comp = (t - self.total) - y
        self.total = t
        np.maximum(self.peak, row, out=self.peak)
        self.count += 1

    def mean(self) -> np.ndarray:
        return self.total / self.count


def reference_census(cfg) -> tuple[dict, dict]:
    """The tables and ``max_suppressed`` of a census config, one basis at a
    time."""
    p, r, types = cfg.permutation, cfg.input_state, cfg.types
    eigenvalues = reference_unitary(UnitarySpec(p)).eigenvalues
    boson_outputs = output_array(p.n, particle_count(r), ParticleType.BOSON)
    fermion_outputs = (output_array(p.n, particle_count(r), ParticleType.FERMION)
                       if ParticleType.FERMION in types else np.zeros((0, p.n), dtype=np.intp))
    acc = {key: KahanMean(len(outputs)) for key, outputs in (
        ("pb", boson_outputs), ("pd", boson_outputs),
        ("pf", fermion_outputs), ("pdf", fermion_outputs))}
    for index in range(cfg.num_bases):
        u = reference_unitary(UnitarySpec(p, theta_phases=cfg.theta_phases,
                                          sigma_phases=cfg.sigma_phases,
                                          rotation_seed=derive_seed(cfg.seed, index))).matrix
        if ParticleType.BOSON in types:
            acc["pb"].add(probabilities(u, r, boson_outputs, ParticleType.BOSON))
        if ParticleType.BOSON in types or ParticleType.DISTINGUISHABLE in types:
            acc["pd"].add(probabilities(u, r, boson_outputs, ParticleType.DISTINGUISHABLE))
        if ParticleType.FERMION in types:
            acc["pf"].add(probabilities(u, r, fermion_outputs, ParticleType.FERMION))
            pdf = probabilities(u, r, fermion_outputs, ParticleType.DISTINGUISHABLE)
            acc["pdf"].add(pdf / pdf.sum())

    tables, max_suppressed = {}, {}
    if ParticleType.BOSON in types:
        table = verdict_table(eigenvalues, boson_outputs, ParticleType.BOSON,
                              acc["pb"].mean(), acc["pd"].mean())
        tables[ParticleType.BOSON] = table
        max_suppressed[ParticleType.BOSON] = float(acc["pb"].peak[table.boson].max(initial=0.0))
    if ParticleType.DISTINGUISHABLE in types:
        mean_pd = acc["pd"].mean()
        tables[ParticleType.DISTINGUISHABLE] = verdict_table(
            eigenvalues, boson_outputs, ParticleType.DISTINGUISHABLE, mean_pd, mean_pd)
    if ParticleType.FERMION in types:
        table = verdict_table(eigenvalues, fermion_outputs, ParticleType.FERMION,
                              acc["pf"].mean(), acc["pdf"].mean(), p, r)
        tables[ParticleType.FERMION] = table
        max_suppressed[ParticleType.FERMION] = float(acc["pf"].peak[table.fermion].max(initial=0.0))
    return tables, max_suppressed


def reference_dist_fit(u, r, s, particle, grid, samples, seed, ensemble="independent",
                       eta_scale=1.0) -> tuple[tuple[float, ...], int]:
    """The measured means and the PSD repair count of a distinguishability
    fit, with one ``prob_partial`` call per sub-stack of
    ``experiments.GRAM_STACK_TERMS`` // N! Gram matrices (read at call time,
    so a patched value applies here too)."""
    stack_size = max(1, experiments.GRAM_STACK_TERMS // factorial(particle_count(r)))
    measured = []
    repairs = 0
    for gi, g in enumerate(grid):
        rng = np.random.default_rng(derive_seed(seed, gi))
        acc = KahanMean(1)
        for start in range(0, samples, stack_size):
            grams, repaired = sample_distinguishability(
                len(u), g, rng, ensemble, eta_scale, count=min(stack_size, samples - start))
            repairs += repaired
            for p in prob_partial(u, r, s, grams, particle):
                acc.add(p)
        measured.append(float(acc.mean()[0]))
    return tuple(measured), repairs
