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
  drives one of them), applied by one in-place kernel;
- each run of CNOTs becomes one basis-index permutation, applied as one
  gather;
- every <Z_q> is read from |psi|^2, computed once.

Gradients come from ``vjp``, one adjoint sweep back through the same
blocks.
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


def _mul2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij...,jk...->ik...", a, b)


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


def _z_signs(n_qubits: int, qubits: Sequence[int]) -> np.ndarray:
    """(len(qubits), 2**n): the eigenvalue of Z_q on each basis state."""
    idx = np.arange(2 ** n_qubits)
    bits = [(idx >> (n_qubits - 1 - q)) & 1 for q in qubits]
    return 1.0 - 2.0 * np.array(bits, dtype=np.float64).reshape(len(qubits), 2 ** n_qubits)


class _CnotRun(NamedTuple):
    """A run of CNOTs as one basis gather, and the gather that undoes it."""

    perm: np.ndarray
    inverse: np.ndarray


class _Plan(NamedTuple):
    # rotation blocks and _CnotRun blocks in turn.  A rotation block is a
    # tuple of (qubit, chain) pairs, one per qubit it touches, and a chain
    # lists that qubit's gates in gate order as (k, gate), k numbering the
    # circuit's rotations.  blocks[0] holds the rotations before the first
    # CNOT (the product-state prefix) and may be empty.
    blocks: tuple
    # indices of the blocks that hold a trainable gate
    trainable: Tuple[int, ...]
    # slots[k] = (is_feature, j): rotation k's matrix is entry j of the
    # param stack (j is its param index) or of the feature stack
    slots: Tuple[Tuple[bool, int], ...]
    param_paulis: np.ndarray  # (2, 2, P) in param-index order
    feature_paulis: np.ndarray  # (2, 2, F)
    feature_cols: np.ndarray  # (F,) feature index of each feature gate
    z_signs: np.ndarray  # (n_observables, 2**n)


def _stack_paulis(gates: Sequence[Gate]) -> np.ndarray:
    paulis = np.array([_PAULI[g.kind] for g in gates], dtype=np.complex128)
    return paulis.reshape(-1, 2, 2).transpose(1, 2, 0)


def _build_plan(n_qubits: int, gates: Sequence[Gate], observables: Sequence[int]) -> _Plan:
    blocks = []
    slots = []
    feature_gates = []
    for is_cnot, run in groupby(gates, key=lambda g: g.kind == "cnot"):
        run = list(run)
        if is_cnot:
            if not blocks:
                blocks.append(())
            perm = _cnot_permutation(n_qubits, run)
            blocks.append(_CnotRun(perm, np.argsort(perm)))
            continue
        numbered = []
        for gate in run:
            numbered.append((len(slots), gate))
            if gate.param is None:
                slots.append((True, len(feature_gates)))
                feature_gates.append(gate)
            else:
                slots.append((False, gate.param))
        qubits = sorted({g.target for g in run})
        blocks.append(tuple(
            (q, tuple((k, g) for k, g in numbered if g.target == q)) for q in qubits))
    if not blocks:
        blocks.append(())
    trainable = tuple(i for i, block in enumerate(blocks) if not isinstance(block, _CnotRun)
                      and any(g.param is not None for _, chain in block for _, g in chain))
    param_gates = sorted((g for g in gates if g.param is not None), key=lambda g: g.param)
    return _Plan(tuple(blocks), trainable, tuple(slots),
                 _stack_paulis(param_gates), _stack_paulis(feature_gates),
                 np.array([g.feature for g in feature_gates], dtype=np.intp),
                 _z_signs(n_qubits, observables))


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


def _gate_matrices(plan: _Plan, params: np.ndarray, features: np.ndarray) -> list:
    """Each rotation's matrix, numbered as in the plan: (2, 2) for a param
    gate, (2, 2, B) for a feature gate."""
    by_param = _rotation_matrices(plan.param_paulis, params)
    by_feature = _rotation_matrices(plan.feature_paulis, features[:, plan.feature_cols].T)
    return [by_feature[:, :, j] if is_feature else by_param[:, :, j]
            for is_feature, j in plan.slots]


def _fused(chain, mats: list) -> np.ndarray:
    """One qubit's chain multiplied into one matrix, later gates to the left."""
    u = mats[chain[-1][0]]
    for k, _ in reversed(chain[:-1]):
        u = _mul2(u, mats[k])
    return u


def _execute(spec: CircuitSpec, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Run the circuit's plan on a batch of feature rows; returns (B, 2**n) states."""
    plan = spec._plan
    batch = features.shape[0]
    n = spec.n_qubits
    mats = _gate_matrices(plan, params, features)
    prefix, *rest = plan.blocks
    kets = {q: _fused(chain, mats)[:, 0] for q, chain in prefix}
    state = np.ones((batch, 1), dtype=np.complex128)
    for q in range(n):
        ket = kets.get(q, _EYE[:, 0]).T  # (2,), or (B, 2) when a feature drives it
        state = (state[:, :, None] * ket[..., None, :]).reshape(batch, -1)
    for block in rest:
        if isinstance(block, _CnotRun):
            state = state[:, block.perm]
        else:
            for q, chain in block:
                _apply_2x2(_on_qubit(state, n, q), _fused(chain, mats))
    return state


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
    returns the (B, 2**n) states and the (B, n_observables) expectations.
    """
    params, feats = _check_args(spec, params, features)
    states = _execute(spec, params, feats)
    probs = states.real ** 2 + states.imag ** 2
    return states, np.einsum("bi,oi->bo", probs, spec._plan.z_signs)


def _overlap(lam_conj: np.ndarray, psi: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    """(2, 2, B) overlaps R[i, j, b] = sum conj(lam_b) psi_b over the basis
    states with ``qubit`` at i in lam and at j in psi, so that
    <lam_b|M|psi_b> = sum_ij M[i, j] R[i, j, b] for any 2x2 M on that qubit."""
    lc = _on_qubit(lam_conj, n_qubits, qubit)
    ps = _on_qubit(psi, n_qubits, qubit)
    rows = [np.einsum("blr,blr->b", lc[:, :, i, :], ps[:, :, j, :])
            for i in (0, 1) for j in (0, 1)]
    return np.stack(rows).reshape(2, 2, -1)


def vjp(spec: CircuitSpec, params: Sequence[float], features: np.ndarray,
        state: np.ndarray, cotangent) -> np.ndarray:
    """Gradient of sum(cotangent * expectations) over the trainable params.

    Adjoint method (Jones & Gacon, arXiv:2009.02823).  ``state`` is the
    final (B, 2**n) state ``run_circuit`` returned for the same params and
    (B, F) features, and the (B, n_observables) ``cotangent`` weights its
    expectations.  The sweep walks the plan's blocks backward with psi and
    lam = sum_o c_o Z_o psi.  A gate exp(-i theta P / 2) contributes
    Im <lam|P|psi> just after it; at the end of its rotation block that is
    Im <lam|W P W^dagger|psi>, W being the later gates of its qubit's
    chain, so one overlap matrix per qubit (``_overlap``) serves every gate
    of the chain.  The sweep then un-applies
    each fused chain once, and a CNOT run by its inverse gather.  It stops
    in the earliest block with a trainable gate, so the gates before it (a
    feature embedding) are never undone.  Returns shape (P,), summed over
    the batch.
    """
    params, feats = _check_args(spec, params, features)
    batch = feats.shape[0]
    n = spec.n_qubits
    n_obs = len(spec.observables)
    state = np.asarray(state, dtype=np.complex128)
    cot = np.asarray(cotangent, dtype=np.float64)
    if state.shape != (batch, 2 ** n):
        raise ValueError(f"state shape {state.shape} does not match the circuit and features")
    if cot.shape != (batch, n_obs):
        raise ValueError(f"expected cotangent shape {(batch, n_obs)}, got {cot.shape}")
    grad = np.zeros(spec.n_params)
    plan = spec._plan
    if not plan.trainable:
        return grad
    mats = _gate_matrices(plan, params, feats)
    # psi and lam share one block so each step un-applies both in one call
    weights = np.einsum("bo,oi->bi", cot, plan.z_signs)
    pair = np.stack([state, weights * state])
    first = plan.trainable[0]
    for i in range(len(plan.blocks) - 1, first - 1, -1):
        block = plan.blocks[i]
        if isinstance(block, _CnotRun):
            pair = pair[:, :, block.inverse]
            continue
        lam_conj = pair[1].conj() if i in plan.trainable else None
        fused = []
        for q, chain in block:
            w = _EYE  # the chain's gates after the current one
            overlap = None
            for k, gate in reversed(chain):
                if gate.param is not None:
                    if overlap is None:
                        overlap = _overlap(lam_conj, pair[0], n, q)
                    gen = _mul2(_mul2(w, _PAULI[gate.kind]), _dagger(w))
                    grad[gate.param] = np.einsum("ij...,ij...->...", gen, overlap).sum().imag
                w = _mul2(w, mats[k])
            fused.append((q, w))
        if i > first:
            for q, u in fused:
                _apply_2x2(_on_qubit(pair, n, q), _dagger(u))
    return grad

