"""Dense statevector simulator for small qubit registers.

A circuit runs on a (B, F) batch of feature rows, and its states are a
(B, 2**n) complex128 block, one flat statevector per row; no gate is ever
materialized as a 2**n x 2**n matrix.  Qubit 0 is the leftmost (most
significant) bit of the computational basis index, so after
``state.reshape([2] * n)`` axis i addresses qubit i.

Circuits are the ones the quantum networks build: every rotation angle is
an input feature or a trainable parameter, and every observable is Pauli-Z
on one qubit.

Each ``CircuitSpec`` compiles its gate list once into a plan of blocks
that alternate between single-qubit rotations and CNOTs (gate fusion as in
Qulacs, arXiv:2011.13524):

- the rotations before the first CNOT act on a product state, so they run
  on per-qubit 2-vectors and the full state is built from those by
  broadcast outer products;
- each later run of rotations becomes one 2x2 matrix per qubit, the
  product of that qubit's gates in gate order (per row when a feature
  drives one of them), applied by one in-place kernel; the products of
  all of a block's qubits are formed together, one chain position at a
  time;
- each run of CNOTs becomes one basis-index permutation, applied as one
  gather;
- every <Z_q> is read from |psi|^2, computed once.

``readout`` returns weighted expectations alone, for predictions.  When
every feature gate sits in the prefix and the columns that vary over the
batch drive a set V of qubits with 2**|V| below the batch size, the rows'
prefix states lie in the span of V's basis states, so it runs the rest of
the plan on those 2**|V| states instead of on every row and reads each
row from their weighted overlaps.

Gradients come from ``vjp``, one adjoint sweep back through the same
blocks.  ``run_circuit`` returns a ``Run`` that keeps, for each trainable
block, the state at the block's end (the prefix's is rebuilt from its
kets), and every block's partial chain products, so the sweep carries only
the adjoint state lam back: it never un-applies psi or recomputes a gate
matrix or a chain product.  At a trainable block, each qubit's two
off-diagonal overlaps are one contraction each, and the diagonal ones of
all qubits come from one product read through a bit table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

MAX_QUBITS = 12

ROTATION_KINDS = ("rx", "ry", "rz")


@dataclass(frozen=True)
class Gate:
    """One gate: a single-qubit rotation or a CNOT.

    Rotations carry exactly one angle source: an input ``feature`` index
    or a trainable ``param`` index.  CNOT carries none.
    """

    kind: str
    target: int
    control: Optional[int] = None
    feature: Optional[int] = None
    param: Optional[int] = None

    def __post_init__(self):
        if self.kind in ROTATION_KINDS:
            if self.control is not None:
                raise ValueError(f"{self.kind} gate takes no control qubit")
            if (self.feature is None) == (self.param is None):
                raise ValueError(f"{self.kind} gate needs exactly one of feature and param")
        elif self.kind == "cnot":
            if self.control is None:
                raise ValueError("cnot gate needs a control qubit")
            if self.control == self.target:
                raise ValueError("cnot control and target must differ")
            if self.feature is not None or self.param is not None:
                raise ValueError("cnot gate carries no angle source")
        else:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.target < 0 or (self.control is not None and self.control < 0):
            raise ValueError("qubit indices must be non-negative")
        if self.feature is not None and self.feature < 0:
            raise ValueError("feature index must be non-negative")
        if self.param is not None and self.param < 0:
            raise ValueError("param index must be non-negative")


def rx(target: int, **src) -> Gate:
    return Gate("rx", target, **src)


def ry(target: int, **src) -> Gate:
    return Gate("ry", target, **src)


def rz(target: int, **src) -> Gate:
    return Gate("rz", target, **src)


def cnot(control: int, target: int) -> Gate:
    return Gate("cnot", target, control=control)


_EYE = np.eye(2, dtype=np.complex128)
# the generator P of each rotation exp(-i theta P / 2)
_PAULI = {
    "rx": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "ry": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "rz": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _on_qubit(block: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    """View of flat states (..., 2**n) as (..., L, 2, R) with ``qubit`` on
    axis -2: L indexes the qubits above it, R the qubits below."""
    return block.reshape(block.shape[:-1] + (2 ** qubit, 2, 2 ** (n_qubits - qubit - 1)))


# 2x2 matrices keep their matrix axes first: (2, 2) for one matrix, or
# (2, 2, B) for one per feature row, so that products and the kernel
# broadcast the row axis without a per-row loop.

def _rotation_matrices(paulis: np.ndarray, angles) -> np.ndarray:
    """exp(-i a P / 2) = cos(a/2) I - i sin(a/2) P for K gates at once:
    (2, 2, K) generators with (K,) angles give (2, 2, K); with (K, B)
    angles, one per feature row, they give (2, 2, K, B)."""
    half = np.asarray(angles, dtype=np.float64) / 2.0
    paulis = paulis.reshape(paulis.shape + (1,) * (half.ndim - 1))
    eye = _EYE.reshape((2, 2) + (1,) * half.ndim)
    return np.cos(half) * eye - 1j * np.sin(half) * paulis


def _dagger(u: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(u, 0, 1))


def _apply_2x2(psi: np.ndarray, u: np.ndarray) -> None:
    """psi[..., i, :] <- sum_j u[i, j] psi[..., j, :] in place, for a
    (..., L, 2, R) view from ``_on_qubit``; the row axis of a (2, 2, B)
    ``u`` lines up with the axis before L."""
    u = u[..., None, None]
    a0 = psi[..., 0, :]
    a1 = psi[..., 1, :]
    b0 = u[0, 0] * a0
    b0 += u[0, 1] * a1
    a1 *= u[1, 1]
    a1 += u[1, 0] * a0
    a0[...] = b0


def _cnot_permutation(n_qubits: int, cnots: Sequence[Gate]) -> np.ndarray:
    """Basis gather of a CNOT run: after the run, state[..., i] holds what
    was state[..., perm[i]] before it."""
    idx = np.arange(2 ** n_qubits)
    perm = idx
    for gate in cnots:
        control = 1 << (n_qubits - 1 - gate.control)
        target = 1 << (n_qubits - 1 - gate.target)
        perm = perm[np.where(idx & control, idx ^ target, idx)]
    return perm


def _bit_table(n_qubits: int) -> np.ndarray:
    """(n, 2**n): the bit of qubit q in each basis index, as 0.0 or 1.0."""
    idx = np.arange(2 ** n_qubits)
    shifts = n_qubits - 1 - np.arange(n_qubits)
    return ((idx >> shifts[:, None]) & 1).astype(np.float64)


def _z_signs(n_qubits: int, qubits: Sequence[int]) -> np.ndarray:
    """(len(qubits), 2**n): the eigenvalue of Z_q on each basis state."""
    return 1.0 - 2.0 * _bit_table(n_qubits)[list(qubits)]


class _CnotRun(NamedTuple):
    """A run of CNOTs as one basis gather, and the gather that undoes it."""

    perm: np.ndarray
    inverse: np.ndarray


class _Step(NamedTuple):
    """One chain position of a rotation block, counted from the block's
    end, for all of its qubits at once: the matrices of the gates there
    multiply each qubit's W from the right.  Slots number the block's
    qubits in block order."""

    param_slots: np.ndarray
    params: np.ndarray  # the param index of each of those gates
    paulis: np.ndarray  # (2, 2, len(params), 1) their generators
    feature_slots: np.ndarray
    features: np.ndarray  # the feature-stack entry of each of those gates


class _Rotations(NamedTuple):
    qubits: np.ndarray  # the qubits the block touches; slot s is qubits[s]
    steps: Tuple[_Step, ...]


class _Plan(NamedTuple):
    # _Rotations and _CnotRun blocks in turn.  blocks[0] holds the
    # rotations before the first CNOT (the product-state prefix) and may
    # be empty.
    blocks: tuple
    # indices of the blocks that hold a trainable gate
    trainable: Tuple[int, ...]
    param_paulis: np.ndarray  # (2, 2, P) in param-index order
    feature_paulis: np.ndarray  # (2, 2, F)
    feature_cols: np.ndarray  # (F,) feature index of each feature gate
    z_signs: np.ndarray  # (n_observables, 2**n)
    bits: np.ndarray  # (n, 2**n), from _bit_table
    # (F,) target qubit of each feature gate when all of them sit in the
    # prefix, else None: where ``readout`` may take the row-span path
    embed_qubits: Optional[np.ndarray]


def _stack_paulis(gates: Sequence[Gate]) -> np.ndarray:
    paulis = np.array([_PAULI[g.kind] for g in gates], dtype=np.complex128)
    return paulis.reshape(-1, 2, 2).transpose(1, 2, 0)


def _indices(values) -> np.ndarray:
    return np.array(list(values), dtype=np.intp)


def _rotations(run: Sequence[Gate], feature_gates: list) -> _Rotations:
    """One run of rotations as a block; appends its feature gates to the
    feature stack, in gate order."""
    entry = {}
    for i, gate in enumerate(run):
        if gate.param is None:
            entry[i] = len(feature_gates)
            feature_gates.append(gate)
    qubits = sorted({g.target for g in run})
    chains = [[(i, g) for i, g in enumerate(run) if g.target == q][::-1] for q in qubits]
    steps = []
    for t in range(max(map(len, chains), default=0)):
        here = [(s, c[t]) for s, c in enumerate(chains) if t < len(c)]
        params = [(s, g) for s, (_, g) in here if g.param is not None]
        features = [(s, entry[i]) for s, (i, g) in here if g.param is None]
        steps.append(_Step(
            _indices(s for s, _ in params), _indices(g.param for _, g in params),
            _stack_paulis([g for _, g in params])[..., None],
            _indices(s for s, _ in features), _indices(j for _, j in features)))
    return _Rotations(_indices(qubits), tuple(steps))


def _build_plan(n_qubits: int, gates: Sequence[Gate], observables: Sequence[int]) -> _Plan:
    blocks = []
    feature_gates = []
    for is_cnot, run in groupby(gates, key=lambda g: g.kind == "cnot"):
        run = list(run)
        if not is_cnot:
            blocks.append(_rotations(run, feature_gates))
            continue
        if not blocks:
            blocks.append(_rotations([], feature_gates))
        perm = _cnot_permutation(n_qubits, run)
        blocks.append(_CnotRun(perm, np.argsort(perm)))
    if not blocks:
        blocks.append(_rotations([], feature_gates))
    trainable = tuple(i for i, block in enumerate(blocks) if isinstance(block, _Rotations)
                      and any(len(step.params) for step in block.steps))
    param_gates = sorted((g for g in gates if g.param is not None), key=lambda g: g.param)
    in_prefix = sum(len(step.features) for step in blocks[0].steps)
    embed_qubits = (_indices(g.target for g in feature_gates)
                    if in_prefix == len(feature_gates) else None)
    return _Plan(tuple(blocks), trainable,
                 _stack_paulis(param_gates), _stack_paulis(feature_gates),
                 np.array([g.feature for g in feature_gates], dtype=np.intp),
                 _z_signs(n_qubits, observables), _bit_table(n_qubits), embed_qubits)


@dataclass(frozen=True)
class CircuitSpec:
    """Layered gate program with declared observables: the qubits whose
    Pauli-Z expectation ``run_circuit`` returns, one column each.

    Trainable parameter indices must form a contiguous 0..P-1 range with
    each index used by exactly one gate, so that gradient entry k belongs
    to one gate: the adjoint sweep in ``vjp`` writes it at that gate, and
    the two-point shift rule that checks it stays exact (a reused index
    would need a sum over gates and over shifts).

    Construction also compiles the gates into the plan that ``run_circuit``
    and ``vjp`` execute (see the module docstring): a product-state prefix
    of the rotations before the first CNOT, then alternating rotation
    blocks, one fused 2x2 gate per qubit each, and CNOT runs, one
    permutation each.  The plan depends only on the gates, not on angles.
    """

    n_qubits: int
    layers: Tuple[Tuple[Gate, ...], ...]
    observables: Tuple[int, ...] = ()
    n_params: int = field(init=False)
    n_features: int = field(init=False)
    _plan: _Plan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {self.n_qubits}")
        object.__setattr__(self, "layers", tuple(tuple(l) for l in self.layers))
        object.__setattr__(self, "observables", tuple(int(q) for q in self.observables))
        params = []
        n_feat = 0
        for gate in self.gates():
            qubits = (gate.target,) if gate.control is None else (gate.target, gate.control)
            for q in qubits:
                if q >= self.n_qubits:
                    raise ValueError(f"gate qubit {q} out of range for {self.n_qubits} qubits")
            if gate.param is not None:
                params.append(gate.param)
            if gate.feature is not None:
                n_feat = max(n_feat, gate.feature + 1)
        if sorted(params) != list(range(len(params))):
            raise ValueError(
                "trainable param indices must be a contiguous 0..P-1 range, "
                f"each used exactly once; got {sorted(params)}"
            )
        for q in self.observables:
            if not 0 <= q < self.n_qubits:
                raise ValueError(f"observable qubit {q} out of range")
        object.__setattr__(self, "n_params", len(params))
        object.__setattr__(self, "n_features", n_feat)
        object.__setattr__(self, "_plan",
                           _build_plan(self.n_qubits, list(self.gates()), self.observables))

    def gates(self) -> Iterable[Gate]:
        for layer in self.layers:
            yield from layer


class Run(NamedTuple):
    """One forward pass, as ``run_circuit`` returns it and ``vjp`` reads it.

    Besides the final states it keeps what the adjoint sweep needs, all of
    it arrays the forward made anyway.  For each rotation block, the
    partial products W_t of its chains, one (2, 2, Q, 1) or (2, 2, Q, B)
    stack per chain position t from the block's end: W_t is the product of
    the gates after position t, and the last one is the fused matrix the
    block applied.  For each trainable block after the prefix, the state
    at the block's end; the CNOT gather after the block writes a new array,
    so nothing later overwrites it.  The prefix's end state is a product
    state that the sweep rebuilds from the fused matrices: a forward that
    kept it would hold one more state block for every call.
    """

    spec: CircuitSpec
    states: np.ndarray  # (B, 2**n) final states
    # block index -> (state at the block's end or None, [W_0, W_1, ...])
    kept: dict


def _fuse(block: _Rotations, by_param: np.ndarray, by_feature: np.ndarray) -> list:
    """The partial products W_0 = I, W_1, ... of a block's chains, later
    gates to the left, all of its qubits at once.  The stack gains a row
    axis at the first feature gate it takes in."""
    w = np.repeat(_EYE[:, :, None, None], len(block.qubits), axis=2)
    ws = [w]
    for step in block.steps:
        if len(step.features) and w.shape[3] == 1:
            w = np.repeat(w, by_feature.shape[3], axis=3)
        else:
            w = w.copy()
        for slots, mats in ((step.param_slots, by_param[:, :, step.params]),
                            (step.feature_slots, by_feature[:, :, step.features])):
            if len(slots):
                w[:, :, slots] = np.einsum("ijmb,jkmb->ikmb", w[:, :, slots], mats)
        ws.append(w)
    return ws


def _slot(w: np.ndarray, s: int) -> np.ndarray:
    """Slot s of a W stack: (2, 2), or (2, 2, B) when it has a row axis."""
    return w[:, :, s, 0] if w.shape[3] == 1 else w[:, :, s]


def _prefix_kets(block: _Rotations, fused: np.ndarray) -> dict:
    """qubit -> its fused prefix matrix applied to |0>: a (2,) ket, or
    (B, 2) when a feature drives it; the prefix leaves other qubits at |0>."""
    return {q: _slot(fused, s)[:, 0].T for s, q in enumerate(block.qubits)}


def _kron_kets(kets: Sequence[np.ndarray], batch: int) -> np.ndarray:
    """(batch, 2**len(kets)) product states of (2,) or (batch, 2) kets, the
    first ket on the most significant bit."""
    state = np.ones((batch, 1), dtype=np.complex128)
    for ket in kets:
        state = (state[:, :, None] * ket[..., None, :]).reshape(batch, -1)
    return state


def _product_state(block: _Rotations, fused: np.ndarray, batch: int,
                   n_qubits: int) -> np.ndarray:
    """(B, 2**n) state at the prefix's end: the product of each qubit's
    fused matrix applied to |0>, and |0> on the qubits it leaves alone."""
    kets = _prefix_kets(block, fused)
    return _kron_kets([kets.get(q, _EYE[:, 0]) for q in range(n_qubits)], batch)


def _angles(plan: _Plan, params: np.ndarray, features: np.ndarray):
    """The rotation matrices of the param gates, (2, 2, P, 1), and of the
    feature gates for each row, (2, 2, F, B)."""
    return (_rotation_matrices(plan.param_paulis, params)[..., None],
            _rotation_matrices(plan.feature_paulis, features[:, plan.feature_cols].T))


def _evolve(spec: CircuitSpec, state: np.ndarray, by_param: np.ndarray,
            by_feature: np.ndarray, kept: dict) -> np.ndarray:
    """Run the plan's blocks after the prefix on the prefix's end states,
    recording in ``kept`` what ``Run`` keeps of each rotation block."""
    plan = spec._plan
    for i, block in enumerate(plan.blocks[1:], 1):
        if isinstance(block, _CnotRun):
            state = state[:, block.perm]
            continue
        ws = _fuse(block, by_param, by_feature)
        for s, q in enumerate(block.qubits):
            _apply_2x2(_on_qubit(state, spec.n_qubits, q), _slot(ws[-1], s))
        kept[i] = (state if i in plan.trainable else None, ws)
    return state


def _execute(spec: CircuitSpec, params: np.ndarray, features: np.ndarray) -> Run:
    """Run the circuit's plan on a batch of feature rows."""
    plan = spec._plan
    by_param, by_feature = _angles(plan, params, features)
    ws = _fuse(plan.blocks[0], by_param, by_feature)
    kept = {0: (None, ws)}
    # no local holds the prefix state, so the first CNOT gather frees it;
    # one more live state block costs a 181-row q8 forward about 10%
    state = _evolve(spec, _product_state(plan.blocks[0], ws[-1], features.shape[0], spec.n_qubits),
                    by_param, by_feature, kept)
    return Run(spec, state, kept)


def _check_args(spec: CircuitSpec, params, features) -> Tuple[np.ndarray, np.ndarray]:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} params, got shape {params.shape}")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be a 2-D (B, F) batch, got shape {features.shape}")
    if features.shape[1] < spec.n_features:
        raise ValueError(
            f"circuit reads feature index {spec.n_features - 1}, "
            f"got {features.shape[1]} features"
        )
    return params, features


def run_circuit(spec: CircuitSpec, params: Sequence[float], features: np.ndarray):
    """Run all layers from |0...0> on each row of a (B, F) feature batch;
    returns the ``Run`` (its ``states`` are the (B, 2**n) final states)
    and the (B, n_observables) expectations.
    """
    params, feats = _check_args(spec, params, features)
    run = _execute(spec, params, feats)
    probs = run.states.real ** 2 + run.states.imag ** 2
    return run, np.einsum("bi,oi->bo", probs, spec._plan.z_signs)


def readout(spec: CircuitSpec, params: Sequence[float], features: np.ndarray,
            weights: Sequence[float]) -> np.ndarray:
    """(B,) weighted expectations sum_o weights[o] <Z_o> of each row of a
    (B, F) feature batch: ``run_circuit(spec, params, features)[1] @ weights``
    up to rounding, with nothing kept for a gradient.

    When every feature gate sits in the product-state prefix, row b's
    state there is c(b) (x) the same kets on every other qubit, c(b) being
    the product of its prefix kets on the span V: the qubits whose feature
    gates read a column that varies over the batch.  If the r = 2**|V|
    basis states of V are fewer than the rows, the rest of the plan runs on
    r column states Psi_s (basis state s on V, the fixed prefix kets
    elsewhere), and row b reads c(b)^dagger M c(b) with
    M = conj(Psi) diag(d) Psi^T and d = sum_o weights[o] z_o, which is the
    same number.  Otherwise every row runs through the plan and reads
    |psi|^2 . d.
    """
    params, feats = _check_args(spec, params, features)
    plan = spec._plan
    d = np.einsum("o,oi->i", np.asarray(weights, dtype=np.float64), plan.z_signs)
    span = None
    if plan.embed_qubits is not None:
        varies = np.any(feats != feats[:1], axis=0)[plan.feature_cols]
        # not np.unique: its first call imports numpy.ma, 14 ms per process
        span = sorted(set(plan.embed_qubits[varies].tolist()))
    if span is None or 2 ** len(span) >= len(feats):
        states = _execute(spec, params, feats).states
        return np.einsum("bi,i->b", states.real ** 2 + states.imag ** 2, d)
    by_param, by_feature = _angles(plan, params, feats)
    kets = _prefix_kets(plan.blocks[0], _fuse(plan.blocks[0], by_param, by_feature)[-1])
    r = 2 ** len(span)
    # off the span a ket is the same in every row; on it, column s takes
    # the basis ket of each bit of s, span[0] on the most significant one
    columns = [k if k.ndim == 1 else k[0]
               for k in (kets.get(q, _EYE[:, 0]) for q in range(spec.n_qubits))]
    for j, q in enumerate(span):
        columns[q] = _EYE[(np.arange(r) >> (len(span) - 1 - j)) & 1]
    # a CNOT gather leaves the row axis fastest in memory, and so do the
    # row kets; einsum runs about twice as fast on C-ordered operands
    psi = np.ascontiguousarray(_evolve(spec, _kron_kets(columns, r), by_param, by_feature, {}))
    m = np.einsum("si,ti->st", psi.conj(), psi * d)
    c = np.ascontiguousarray(_kron_kets([kets[q] for q in span], feats.shape[0]))
    return np.einsum("bs,bs->b", c.conj(), np.einsum("st,bt->bs", m, c)).real


def _overlaps(lam: np.ndarray, psi: np.ndarray, bits: np.ndarray, qubits: np.ndarray,
              n_qubits: int, per_row: bool) -> np.ndarray:
    """(2, 2, Q, B) overlaps R[i, j, s, b] = sum conj(lam_b) psi_b over the
    basis states with qubit ``qubits[s]`` at i in lam and at j in psi, so
    that <lam_b|M|psi_b> = sum_ij M[i, j] R[i, j, s, b] for any 2x2 M on
    that qubit; with ``per_row`` False, summed over the batch into a last
    axis of length 1.  Each qubit's two off-diagonal terms are one
    contraction each; the diagonal terms of every qubit come from one
    product conj(lam) psi, read through the (n, 2**n) bit table."""
    rows = lam.shape[0] if per_row else 1
    pair = "blr,blr->b" if per_row else "blr,blr->"
    out = np.empty((2, 2, len(qubits), rows), dtype=np.complex128)
    prod = lam.conj()
    for s, q in enumerate(qubits):
        lc = _on_qubit(prod, n_qubits, q)
        ps = _on_qubit(psi, n_qubits, q)
        out[0, 1, s] = np.einsum(pair, lc[:, :, 0, :], ps[:, :, 1, :])
        out[1, 0, s] = np.einsum(pair, lc[:, :, 1, :], ps[:, :, 0, :])
    if per_row:
        prod *= psi
    else:
        prod = np.einsum("bi,bi->i", prod, psi)[None]
    ones = (np.einsum("bi,qi->qb", prod.real, bits)
            + 1j * np.einsum("bi,qi->qb", prod.imag, bits))[qubits]
    out[1, 1] = ones
    out[0, 0] = prod.sum(axis=1) - ones
    return out


def _block_grad(grad: np.ndarray, block: _Rotations, ws: list, lam: np.ndarray,
                psi: np.ndarray, bits: np.ndarray, n_qubits: int) -> None:
    """Write the gradient entries of one trainable block's param gates.

    A gate exp(-i theta P / 2) at chain position t contributes
    Im <lam|W_t P W_t^dagger|psi> at the block's end, W_t being the later
    gates of its chain, so each position forms the generators of all of
    its param gates in one call.  Once W has taken in a feature gate, the
    generators are per row and contract with each row's overlaps; in a
    block with no such generator, they contract with the overlaps summed
    over the batch.
    """
    per_row = any(w.shape[3] > 1 for step, w in zip(block.steps, ws) if len(step.params))
    overlaps = _overlaps(lam, psi, bits, block.qubits, n_qubits, per_row)
    for step, w in zip(block.steps, ws):
        if len(step.params):
            wp = w[:, :, step.param_slots]
            gen = np.einsum("ijmb,jkmb,lkmb->ilmb", wp, step.paulis, wp.conj())
            grad[step.params] = np.einsum("ijmb,ijmb->m", gen,
                                          overlaps[:, :, step.param_slots]).imag


def vjp(run: Run, cotangent) -> np.ndarray:
    """Gradient of sum(cotangent * expectations) over the trainable params.

    Adjoint method (Jones & Gacon, arXiv:2009.02823).  ``run`` is what
    ``run_circuit`` returned for the params and the (B, F) features, and
    the (B, n_observables) ``cotangent`` weights its expectations.  The
    sweep carries lam alone, starting from lam = sum_o c_o Z_o psi, back
    through the plan's blocks: a CNOT run by its inverse gather, a rotation
    block by the conjugate transposes of the fused matrices the forward
    kept.  At a trainable block it pairs lam with the state the forward
    kept at that block's end, so psi is never un-applied, and one overlap
    matrix per qubit serves every gate of that qubit's chain
    (``_block_grad``).  The sweep stops in the earliest trainable block, so
    the gates before it (a feature embedding) are never undone.  Returns
    shape (P,), summed over the batch.
    """
    spec = run.spec
    plan = spec._plan
    n = spec.n_qubits
    batch = run.states.shape[0]
    cot = np.asarray(cotangent, dtype=np.float64)
    if cot.shape != (batch, len(spec.observables)):
        raise ValueError(
            f"expected cotangent shape {(batch, len(spec.observables))}, got {cot.shape}")
    grad = np.zeros(spec.n_params)
    if not plan.trainable:
        return grad
    lam = np.einsum("bo,oi->bi", cot, plan.z_signs) * run.states
    first = plan.trainable[0]
    for i in range(len(plan.blocks) - 1, first - 1, -1):
        block = plan.blocks[i]
        if isinstance(block, _CnotRun):
            lam = lam[:, block.inverse]
            continue
        psi, ws = run.kept[i]
        if i == 0:
            psi = _product_state(block, ws[-1], batch, n)
        if i in plan.trainable:
            _block_grad(grad, block, ws, lam, psi, plan.bits, n)
        if i > first:
            for s, q in enumerate(block.qubits):
                _apply_2x2(_on_qubit(lam, n, q), _dagger(_slot(ws[-1], s)))
    return grad
