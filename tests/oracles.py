"""Reference implementations that the tests hold the library to.

* :func:`leibniz_determinant`: the determinant as the signed sum over all
  n! permutations, the oracle for the elimination-based determinant, its
  signs from :func:`reference_permutation_signs`.
* :func:`reference_permutation_signs`: the signature of each row of
  ``linalg.permutation_table`` by walking its cycles, the way
  ``linalg.permutation_signs`` worked before it counted inversions. It
  shares no code with the library's signs.
* :func:`repair_distinguishability`: the finite check and the Hermitian part
  (S + S^H) / 2 of one Gram matrix or a stack, then the PSD repair step
  ``experiments._repair_hermitian``. Formerly in ``scattering``; no library
  code calls it. Its bits and repair flags are the contract of
  ``experiments.sample_distinguishability``, whose ``independent`` draws go
  to the repair step with no symmetrisation.
* :func:`reference_verdict_lines`: the verdict CSV formatted row by row,
  one cell at a time, the way the writer worked before it formatted whole
  columns. Its bytes are the contract of ``serialize.write_verdict_csvs``.
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
* :func:`assignment_to_occupation`, :func:`eigenvalue_sorted_order`,
  :func:`operator_matrix` and :func:`reconstruction_residual`: small helpers
  that only the tests use, kept here with their tests instead of in the
  library.
* :func:`reference_dist_fit`: the distinguishability fit as it ran before it
  computed its weights once per fit, one lone ``prob_partial`` call, N!
  weight permanents included, per grid point, whatever the fit's stacks.
  It draws each Gram matrix over the occupied input modes and hands
  ``prob_partial`` its n x n embedding, :func:`embed_occupied_grams`. Its
  bits and repair count are the contract of
  ``experiments.run_distinguishability_robustness``.
* :func:`reference_partial_sum`: the single sum of
  ``scattering.partial_probabilities`` on a checked Gram stack, evaluated
  the way it was before the sum ran in place, with a fresh array for every
  step. Its bits are the contract of the in-place sum.
* :func:`output_ranks`: the ``fock.enumerate_outputs`` rank of each row of
  an output array by the rank arithmetic of the combinatorial number
  system; no library code needs it.
* :func:`reference_output_laws`: ``suppression.output_laws`` as it was
  before it keyed count rows by one mixed-radix integer: count rows from
  ``s @ onehot``, keyed by :func:`output_ranks` offset past the smaller
  particle numbers. Its columns, groups (by value and order) and group
  indices are the contract of the mixed-radix key.
* :func:`reference_expansion`, :func:`parent_ranks` and :func:`odd_after`:
  ``scattering.expansion`` as it was before it walked the occupied modes
  of the cached lattice only: the outputs of every degree from
  ``fock.enumerate_outputs``, one multiply-add per mode over a dense table
  of parents that :func:`parent_ranks` looks up in a dict of the outputs of
  one particle fewer, with the fermion signs of :func:`odd_after`. It
  shares no code with ``fock.lattice``. Its coefficients equal the slot
  kernel's under ``==``, and the probabilities from them are the slot
  kernel's bit for bit.
* :func:`outputs_up_to`, :func:`is_unitary`, :func:`haar_random_unitary`,
  :func:`perturb_unitary`, :func:`float_reprs` and :func:`read_fit_csv`:
  helpers that only the tests use, moved here from ``fock``, ``linalg``,
  ``scattering`` and ``serialize``.
* :func:`permanent_naive` (from ``linalg``, with :data:`NAIVE_MAX`),
  :func:`final_distribution`, :func:`old_fourier_fermion_suppressed`,
  :func:`classify_event` and :func:`count_roots` (from ``suppression``),
  :func:`parse_root` (``RootOfUnity.parse``) and :func:`read_verdict_csv`
  (from ``serialize``): references that no library code calls. The verdict
  CSV reader lives here: the library writes the CSV and never reads it.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from math import comb, lcm

import numpy as np

from symfock.experiments import (
    PerturbationModel,
    _repair_hermitian,
    derive_seed,
    sample_distinguishability,
)
from symfock.fock import (
    ParticleType,
    _generations,
    check_occupation,
    enumerate_outputs,
    output_array,
    particle_count,
)
from symfock.linalg import (
    STRUCT_TOL,
    as_complex_matrix,
    haar_from_ginibre,
    permutation_table,
    unitarity_residual,
)
from symfock.permutations import (
    EigenStructure,
    Permutation,
    RootOfUnity,
    eigenstructure,
    eigenvalues_to_complex,
    symmetry_residual,
)
from symfock.scattering import prob_partial, probabilities
from symfock.serialize import _CELL_WIDTH, VERDICT_COLUMNS, _float_cells
from symfock.suppression import (
    EigenvalueDistribution,
    EventClass,
    OutputLaws,
    VerdictTable,
    _as_roots,
    _class_codes,
    initial_distribution,
    output_laws,
    verdict_table,
)
from symfock.unitaries import ConstructedUnitary, SymmetryError, UnitarySpec


def leibniz_determinant(matrix) -> complex:
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    terms = np.prod(m[np.arange(n)[None, :], permutation_table(n)], axis=1)
    return complex((terms * reference_permutation_signs(n)).sum())


def reference_permutation_signs(n: int) -> np.ndarray:
    """Signatures (+1/-1) aligned with ``linalg.permutation_table``, each from
    the number of transpositions in the row's cycle decomposition."""
    table = permutation_table(n)
    signs = np.empty(len(table), dtype=np.float64)
    for i, row in enumerate(table):
        seen = [False] * n
        transpositions = 0
        for start in range(n):
            if seen[start]:
                continue
            j = start
            length = 0
            while not seen[j]:
                seen[j] = True
                j = row[j]
                length += 1
            transpositions += length - 1
        signs[i] = -1.0 if transpositions % 2 else 1.0
    return signs


def repair_distinguishability(s_matrix) -> tuple[np.ndarray, bool | np.ndarray]:
    """Project onto the valid set by clipping negative eigenvalues and
    renormalising the diagonal back to one.

    Takes one (n, n) matrix, returning its Hermitian part (repaired or not)
    and whether a repair happened, or a (B, n, n) stack, returning the stack
    of Hermitian parts and a (B,) mask of the repaired matrices. After the
    finite check and (S + S^H) / 2, the whole stack goes to
    ``experiments._repair_hermitian``.
    """
    s = as_complex_matrix(s_matrix, stack=True)
    herm = (s + s.conj().swapaxes(-1, -2)) / 2.0
    repaired, mask = _repair_hermitian(herm if herm.ndim == 3 else herm[None])
    return (repaired, mask) if herm.ndim == 3 else (repaired[0], bool(mask[0]))


def _fmt_occupation(s) -> str:
    return "[" + ",".join(map(str, s)) + "]"  # the compact JSON array of the integers


def _fmt_optional_float(value) -> str:
    return "" if value is None else repr(float(value))


def _fmt_optional_bool(value) -> str:
    return "" if value is None else ("true" if value else "false")


def reference_verdict_lines(table) -> list[str]:
    """The verdict CSV of ``table``, one row and one cell at a time: the
    fixed columns, then the table's other law columns in its order."""
    laws = table.laws.columns
    extra = [name for name in laws if name not in VERDICT_COLUMNS]
    lines = [";".join([*VERDICT_COLUMNS, *extra]) + "\n"]
    groups = reference_groups(table.laws)

    def flag(name, i):
        return _fmt_optional_bool(bool(laws[name][i]) if name in laws else None)

    for i in range(len(table)):
        p = table.p[i]
        row = [
            _fmt_occupation(tuple(int(x) for x in table.outputs[i])),
            ",".join(str(v) for v in groups[table.laws.group[i]]),
            flag("boson_suppressed", i),
            flag("fermion_suppressed", i),
            _fmt_optional_float(p if table.kind is ParticleType.BOSON else None),
            _fmt_optional_float(p if table.kind is ParticleType.FERMION else None),
            _fmt_optional_float(table.p_dist[i]),
            table.classes[i].value,
        ] + [flag(name, i) for name in extra]
        lines.append(";".join(row) + "\n")
    return lines


def row_distributions(laws) -> tuple:
    """Each row's eigenvalue multiset, the :func:`reference_groups` entry
    of its group, of an ``OutputLaws``."""
    groups = reference_groups(laws)
    return tuple(groups[g] for g in laws.group.tolist())


def assert_same_table(a, b) -> None:
    assert a.kind is b.kind
    assert row_distributions(a.laws) == row_distributions(b.laws)
    assert a.codes.dtype == b.codes.dtype == np.int8
    assert list(a.laws.columns) == list(b.laws.columns)  # the same law names, in order
    columns = [(name, getattr(a, name), getattr(b, name))
               for name in ("outputs", "p", "p_dist", "codes")]
    for name, x, y in columns + [(name, column, b.laws.columns[name])
                                 for name, column in a.laws.columns.items()]:
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


def reference_census(permutation, input_state, num_bases, seed, types) -> tuple[dict, dict]:
    """The tables and ``max_suppressed`` of a census with the arguments of
    ``experiments.run_mean_probabilities``, one basis at a time."""
    p, r = permutation, input_state
    eigenvalues = reference_unitary(UnitarySpec(p)).eigenvalues
    boson_outputs = output_array(p.n, particle_count(r), ParticleType.BOSON)
    fermion_outputs = (output_array(p.n, particle_count(r), ParticleType.FERMION)
                       if ParticleType.FERMION in types else np.zeros((0, p.n), dtype=np.intp))
    acc = {key: KahanMean(len(outputs)) for key, outputs in (
        ("pb", boson_outputs), ("pd", boson_outputs),
        ("pf", fermion_outputs), ("pdf", fermion_outputs))}
    for index in range(num_bases):
        u = reference_unitary(UnitarySpec(p, rotation_seed=derive_seed(seed, index))).matrix
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
        table = verdict_table(output_laws(eigenvalues, boson_outputs), boson_outputs,
                              ParticleType.BOSON, acc["pb"].mean(), acc["pd"].mean())
        tables[ParticleType.BOSON] = table
        suppressed = table.laws.columns["boson_suppressed"]
        max_suppressed[ParticleType.BOSON] = float(acc["pb"].peak[suppressed].max(initial=0.0))
    if ParticleType.DISTINGUISHABLE in types:
        mean_pd = acc["pd"].mean()
        tables[ParticleType.DISTINGUISHABLE] = verdict_table(
            output_laws(eigenvalues, boson_outputs), boson_outputs,
            ParticleType.DISTINGUISHABLE, mean_pd, mean_pd)
    if ParticleType.FERMION in types:
        table = verdict_table(output_laws(eigenvalues, fermion_outputs, p, r), fermion_outputs,
                              ParticleType.FERMION, acc["pf"].mean(), acc["pdf"].mean())
        tables[ParticleType.FERMION] = table
        suppressed = table.laws.columns["fermion_suppressed"]
        max_suppressed[ParticleType.FERMION] = float(acc["pf"].peak[suppressed].max(initial=0.0))
    return tables, max_suppressed


def embed_occupied_grams(grams: np.ndarray, r) -> np.ndarray:
    """The n x n Gram matrices, n = len(r), that hold a (B, k, k) stack on the
    k occupied modes of ``r``: unit diagonal, zero off the block elsewhere."""
    occupied = np.flatnonzero(r)
    full = np.tile(np.eye(len(r), dtype=complex), (len(grams), 1, 1))
    full[:, occupied[:, None], occupied[None, :]] = grams
    return full


def reference_dist_fit(u, r, s, particle, grid, samples, seed, ensemble="independent",
                       eta_scale=1.0) -> tuple[tuple[float, ...], int]:
    """The measured means and the PSD repair count of a distinguishability
    fit, with one draw and one ``prob_partial`` call per grid point: its
    Gram matrices drawn over the occupied input modes and embedded into
    n x n. The bits depend on no grouping of the draws or the sums."""
    measured = []
    repairs = 0
    for gi, g in enumerate(grid):
        rng = np.random.default_rng(derive_seed(seed, gi))
        grams, repaired = sample_distinguishability(np.count_nonzero(r), g, rng, ensemble,
                                                    eta_scale, count=samples)
        repairs += repaired
        acc = KahanMean(1)
        for p in prob_partial(u, r, s, embed_occupied_grams(grams, r), particle):
            acc.add(p)
        measured.append(float(acc.mean()[0]))
    return tuple(measured), repairs


def assignment_to_occupation(assignment, n: int) -> tuple[int, ...]:
    """Count particles per mode; inverse of :func:`occupation_to_assignment`."""
    counts = [0] * n
    for mode in assignment:
        if not 1 <= mode <= n:
            raise ValueError(f"mode index {mode} outside 1..{n}")
        counts[mode - 1] += 1
    return tuple(counts)


def eigenvalue_sorted_order(eigenvalues) -> tuple[int, ...]:
    """1-based column order that sorts columns by ascending phase fraction.

    Stable, so columns sharing an eigenvalue keep their relative order.
    """
    return tuple(
        idx + 1 for idx in sorted(range(len(eigenvalues)), key=lambda i: eigenvalues[i])
    )


def operator_matrix(p: Permutation) -> np.ndarray:
    """The 0/1 operator with entry 1 at (j, pi(j)), so (Pv)_j = v_{pi(j)}."""
    m = np.zeros((p.n, p.n), dtype=np.int64)
    for j, k in enumerate(p.image):
        m[j, k] = 1
    return m


def reconstruction_residual(p: Permutation, structure: EigenStructure) -> float:
    """Max-norm of A D A† minus the operator matrix (diagnostic)."""
    a = structure.eigenvectors
    d = eigenvalues_to_complex(structure.eigenvalues)
    return float(np.max(np.abs((a * d[None, :]) @ a.conj().T - operator_matrix(p))))


def reference_partial_sum(terms, grams) -> np.ndarray:
    """The (B,) probabilities of the single sum of ``terms`` (a
    ``scattering.PartialWeights``) on a checked (B, n, n) Gram stack:
    e <- e + factor + e * factor into a new array per particle, then
    indistinguishable + sum_tau w_tau e_tau, clamped at 0."""
    d, perms = terms.rows, terms.perms
    deviation = grams[:, d[:, None], d[None, :]] - 1.0
    e = np.zeros((len(grams), len(perms)), dtype=complex)
    for j in range(len(d)):
        factor = deviation[:, j, perms[:, j]]
        e = e + factor + e * factor
    value = terms.indistinguishable + (e * terms.weights).sum(axis=1)
    if np.any(np.abs(value.imag) > 1e-10):
        raise ArithmeticError("partial probability has an imaginary part")
    probability = value.real / terms.norm
    if np.any(probability < -1e-12):
        raise ArithmeticError("probability below the cancellation floor")
    return np.where(probability < 0.0, 0.0, probability)


def output_ranks(outputs, fermionic: bool = False) -> np.ndarray:
    """The ``fock.enumerate_outputs`` rank of each row of a (K, n) array of
    occupations (0/1 for ``fermionic``) among the outputs of its particle
    number, as a (K,) int64 array: sum_m term(m, R_m, t_m) with R_m the
    particles after mode m, term C(n-2-m+R, R-1) for bosons, and for
    fermions C(n-1-m, R-1) on an empty mode and 0 on an occupied one, one
    output at a time."""
    ranks = []
    for t in np.asarray(outputs).tolist():
        n, rank, after = len(t), 0, sum(t)
        for m, x in enumerate(t):
            after -= x
            if after and not (fermionic and x):
                rank += comb(n - 1 - m, after - 1) if fermionic else comb(n - 2 - m + after, after - 1)
        ranks.append(rank)
    return np.array(ranks, dtype=np.int64)


def reference_output_laws(eigenvalues, outputs, permutation=None, occupation_in=None,
                          w=None) -> OutputLaws:
    """The law verdicts and eigenvalue counts of a (K, n) output array, with
    the count rows keyed by their :func:`output_ranks` (or, past int64, by
    whole rows)."""
    values = _as_roots(eigenvalues)
    n = len(values)
    s = (np.asarray(outputs, dtype=np.int64).reshape(len(outputs), -1) if len(outputs)
         else np.zeros((0, n), dtype=np.int64))
    if (s < 0).any():
        check_occupation(s[(s < 0).any(axis=1)][0])
    if s.shape[1] != n:
        raise ValueError(f"occupation over {s.shape[1]} modes, expected {n}")
    initial: EigenvalueDistribution = ()
    if (permutation is None) != (occupation_in is None):
        raise ValueError("the fermion law needs both the permutation and the input occupation")
    if permutation is not None:
        if permutation.n != n:
            raise ValueError(f"permutation over {permutation.n} modes but {n} eigenvalues")
        if (s > 1).any():
            check_occupation(s[(s > 1).any(axis=1)][0], fermionic=True)
        initial = initial_distribution(permutation, occupation_in)

    turn = lcm(*(v.den for v in values))
    sizes = s.sum(axis=1)
    n_particles = int(sizes.max(initial=0))
    if max(n_particles, 1) * turn >= 1 << 63:
        raise ValueError(f"phase sums overflow int64: {n_particles} particles times "
                         f"lcm of eigenvalue denominators {turn} >= 2^63")
    k = np.array([v.num * (turn // v.den) for v in values], dtype=np.int64)
    phase = (s @ k) % turn
    columns = {"boson_suppressed": phase != 0}

    distinct = sorted(set(values) | set(initial))
    column = {v: c for c, v in enumerate(distinct)}
    onehot = np.zeros((n, len(distinct)), dtype=np.int64)
    onehot[np.arange(n), np.array([column[v] for v in values], dtype=np.intp)] = 1
    counts = s @ onehot
    if permutation is not None:
        initial_counts = [0] * len(distinct)
        for v in initial:
            initial_counts[column[v]] += 1
        columns["fermion_suppressed"] = (counts != np.array(initial_counts,
                                                           dtype=np.int64)).any(axis=1)
    if w is not None:
        target = 0 if w % 2 == 0 else (turn // 2 if turn % 2 == 0 else -1)
        columns["old_fermion_suppressed"] = phase != target

    if comb(len(distinct) + n_particles, n_particles) < 1 << 63:
        offsets = np.array([comb(len(distinct) + size - 1, size - 1) if size else 0
                            for size in range(n_particles + 1)], dtype=np.int64)
        key = (output_ranks(counts) if len(distinct) else 0) + offsets[sizes]
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
    else:
        _, first, group = np.unique(counts, axis=0, return_index=True, return_inverse=True)
    return OutputLaws(tuple(distinct), counts[first].T, group.ravel(), columns)


def reference_groups(laws) -> tuple:
    """The eigenvalue multisets of an ``OutputLaws`` from its ``roots`` and
    ``root_counts``, one group and one root at a time."""
    return tuple(tuple(chain.from_iterable(map(repeat, laws.roots, column)))
                 for column in laws.root_counts.T.tolist())


def outputs_up_to(n: int, particles: int, fermionic: bool = False) -> tuple[np.ndarray, list[int]]:
    """Every output of 1, 2, ..., ``particles`` particles in ``n`` modes as one
    (L, n) array, grouped by particle number, each group as the lattice
    recurrence ``fock._generations`` builds it; with the start of each group
    (and L)."""
    groups = [group for group, *_ in _generations(n, particles, fermionic)]
    starts = np.cumsum([0] + [len(group) for group in groups]).tolist()
    if not groups:
        return np.zeros((0, n), dtype=np.min_scalar_type(particles)), starts
    return np.concatenate(groups), starts


def odd_after(outputs: np.ndarray) -> np.ndarray:
    """(n, K) mask of an odd number of particles after mode k, for a (K, n)
    array of 0/1 outputs: the sign of a fermion's parent in the expansion."""
    after = outputs[:, ::-1].cumsum(axis=1)[:, ::-1] - outputs
    return (after % 2 == 1).T


def parent_ranks(outputs, fermionic: bool = False) -> np.ndarray:
    """(K, n) int64 array whose entry (i, k) is the ``fock.enumerate_outputs``
    rank of s_i - e_k among the outputs of one particle fewer, or -1 where
    mode k of s_i is empty, for a (K, n) array of outputs of one particle
    number N >= 1 (0/1 outputs for ``fermionic``): looked up in a dict from
    each output of N - 1 particles to its index, with no rank arithmetic."""
    s = np.asarray(outputs).tolist()
    n, particles = len(s[0]), sum(s[0])
    kind = ParticleType.FERMION if fermionic else ParticleType.BOSON
    previous = {t: i for i, t in enumerate(enumerate_outputs(n, particles - 1, kind))}
    return np.array([[previous[(*t[:k], t[k] - 1, *t[k + 1:])] if t[k] else -1 for k in range(n)]
                     for t in s], dtype=np.int64)


def reference_expansion(weights, rows, single: bool = False, fermionic: bool = False) -> np.ndarray:
    """The (B, K_N) coefficients of ``scattering.expansion`` by the dense
    recurrence: for every degree, the outputs from ``fock.enumerate_outputs``
    (0/1 outputs when ``single`` or ``fermionic``), the parents t - e_k of
    every mode k from :func:`parent_ranks` (-1, the zero row appended to
    c_d, where t_k = 0), the signs from :func:`odd_after`, and one
    multiply-add per mode k = 0..n-1 in that order."""
    b, n = weights.shape[0], weights.shape[-1]
    single = single or fermionic
    kind = ParticleType.FERMION if single else ParticleType.BOSON
    coeffs = np.ones((1, b), dtype=weights.dtype)
    for d, row in enumerate(rows, start=1):
        t = np.array(list(enumerate_outputs(n, d, kind)), dtype=np.intp).reshape(-1, n)
        padded = np.concatenate([coeffs, np.zeros((1, b), dtype=weights.dtype)])
        terms = padded[parent_ranks(t, single).T]  # (n, K, B)
        terms *= weights[:, row, :].T[:, None, :]
        if fermionic:
            np.negative(terms, out=terms, where=odd_after(t)[:, :, None])
        coeffs = terms[0].copy()
        for k in range(1, n):
            coeffs += terms[k]
    return coeffs.T


def is_unitary(matrix, tol: float = STRUCT_TOL) -> bool:
    """True iff the max-norm of M†M - 1 is within ``tol``. Non-square is False."""
    m = as_complex_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        return False
    return unitarity_residual(m) <= tol


def haar_random_unitary(q: int, rng) -> np.ndarray:
    """Haar-distributed q x q unitary from QR of a complex Ginibre matrix.

    ``rng`` is an integer seed or a ``numpy.random.Generator``; the same seed
    always reproduces the same matrix bit for bit. The matrix is
    ``linalg.haar_from_ginibre`` of the real parts, then the imaginary
    parts, drawn in row-major order.
    """
    if q < 1:
        raise ValueError("dimension must be at least 1")
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    z = (gen.standard_normal((q, q)) + 1j * gen.standard_normal((q, q))) / np.sqrt(2.0)
    return haar_from_ginibre(z)


def perturb_unitary(u, model: PerturbationModel, rng: np.random.Generator) -> np.ndarray:
    """Apply fresh entrywise deviations drawn from ``rng``; the result is
    generally not unitary and is meant only for deviation studies."""
    u = as_complex_matrix(u)
    return u * (1.0 + model.sample(u.shape, rng))


def float_reprs(values) -> list[str]:
    """``list(map(repr, values))`` for float64 values, through the
    vectorised cells of ``serialize._float_cells``."""
    return _float_cells(values).astype(np.uint32).view(f"U{_CELL_WIDTH}").ravel().tolist()


def read_fit_csv(path) -> tuple[tuple[float, ...], tuple[float, ...]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if lines[0] != "value;mean_deviation":
        raise ValueError(f"unexpected fit CSV header: {lines[0]!r}")
    pairs = [tuple(float(cell) for cell in line.split(";")) for line in lines[1:]]
    return tuple(g for g, _ in pairs), tuple(m for _, m in pairs)


NAIVE_MAX = 10


def permanent_naive(matrix) -> complex:
    """Permanent by explicit enumeration of all n! permutations, for one
    square matrix of n <= :data:`NAIVE_MAX`."""
    m = as_complex_matrix(matrix)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n > NAIVE_MAX:
        raise ValueError(f"naive permanent limited to n <= {NAIVE_MAX}, got {n}")
    if n == 0:
        return 1.0 + 0.0j
    return complex(np.prod(m[np.arange(n)[None, :], permutation_table(n)], axis=1).sum())


def final_distribution(eigenvalues, occupation_out) -> EigenvalueDistribution:
    """Eigenvalue multiset picked out by the occupied output modes."""
    laws = output_laws(eigenvalues, [occupation_out])
    return reference_groups(laws)[laws.group[0]]


def old_fourier_fermion_suppressed(eigenvalues, occupation_out, w: int) -> bool:
    """The legacy DFT fermion criterion for one output: the product of its
    eigenvalues differs from (-1)^w."""
    laws = output_laws(eigenvalues, [occupation_out], w=w)
    return bool(laws.columns["old_fermion_suppressed"][0])


def classify_event(law_suppressed, p_particle, p_dist):
    """The :class:`EventClass` of one event, or an object array of them for
    arrays (scalars broadcast), by ``suppression._class_codes``."""
    return np.array(list(EventClass), dtype=object)[_class_codes(law_suppressed, p_particle,
                                                                 p_dist)]


def parse_root(text: str) -> RootOfUnity:
    """The root of unity of a "k/l" cell; "k" alone is k/1."""
    num, _, den = text.partition("/")
    return RootOfUnity(int(num), int(den if den else 1))


def count_roots(groups) -> tuple[tuple[RootOfUnity, ...], np.ndarray]:
    """The ``roots`` and ``root_counts`` of a sequence of eigenvalue
    multisets (see ``suppression.OutputLaws``)."""
    groups = [tuple(group) for group in groups]
    roots = tuple(sorted({root for group in groups for root in group}))
    place = {root: c for c, root in enumerate(roots)}
    root_counts = np.zeros((len(roots), len(groups)), dtype=np.int64)
    np.add.at(root_counts, ([place[root] for group in groups for root in group],
                            [g for g, group in enumerate(groups) for _ in group]), 1)
    return roots, root_counts


def read_verdict_csv(path) -> VerdictTable:
    """The table of a verdict CSV. Its kind is the one whose probability
    column is filled; a table without rows reads as distinguishable. Its
    law columns are ``boson_suppressed``, ``fermion_suppressed`` for a
    fermion table, then every column after ``class``, in the header's
    order."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"verdict CSV {path} is empty: no header")
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
    phases, group = np.unique(np.array(cells["lambda_phases"], dtype=str), return_inverse=True)
    roots, root_counts = count_roots([parse_root(tok) for tok in cell.split(",") if tok]
                                     for cell in phases.tolist())
    codes = {event: code for code, event in enumerate(EventClass)}
    laws = ["boson_suppressed", *["fermion_suppressed"] * (kind is ParticleType.FERMION),
            *header[len(VERDICT_COLUMNS):]]
    return VerdictTable(
        kind=kind,
        outputs=np.array([json.loads(cell) for cell in cells["s"]],
                         dtype=np.int64).reshape(len(rows), -1 if rows else 0),
        laws=OutputLaws(roots, root_counts, group.ravel(), {name: flags(name) for name in laws}),
        p=floats({ParticleType.BOSON: "p_boson", ParticleType.FERMION: "p_fermion"}
                 .get(kind, "p_dist")),
        p_dist=floats("p_dist"),
        codes=np.array([codes[EventClass(cell)] for cell in cells["class"]], dtype=np.int8),
    )
