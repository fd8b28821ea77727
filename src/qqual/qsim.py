"""Dense statevector simulator for small qubit registers.

States are flat complex128 arrays of length 2**n (optionally with one
leading batch axis), updated in place by strided pair operations; no gate
is ever materialized as a 2**n x 2**n matrix.  Qubit 0 is the leftmost
(most significant) bit of the computational basis index, so after
``state.reshape([2] * n)`` axis i addresses qubit i.

Circuits are the ones the quantum networks build: every rotation angle is
an input feature or a trainable parameter, and every observable is Pauli-Z
on one qubit.

Gradients come from ``vjp``, one adjoint sweep back through the circuit;
``parameter_shift_grad`` is the slower exact reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class CircuitSpec:
    """Layered gate program with declared observables: the qubits whose
    Pauli-Z expectation ``run_circuit`` returns, one column each.

    Trainable parameter indices must form a contiguous 0..P-1 range with
    each index used by exactly one gate, so that gradient entry k belongs
    to one gate: the adjoint sweep in ``vjp`` writes it at that gate, and
    the two-point shift rule that checks it stays exact (a reused index
    would need a sum over gates and over shifts).
    """

    n_qubits: int
    layers: Tuple[Tuple[Gate, ...], ...]
    observables: Tuple[int, ...] = ()
    n_params: int = field(init=False)
    n_features: int = field(init=False)

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

    def gates(self) -> Iterable[Gate]:
        for layer in self.layers:
            yield from layer


def zero_state(n_qubits: int, batch: Optional[int] = None) -> np.ndarray:
    """|0...0> as a flat complex array, shape (2**n,) or (batch, 2**n)."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in 1..{MAX_QUBITS}, got {n_qubits}")
    dim = 2 ** n_qubits
    if batch is None:
        state = np.zeros(dim, dtype=np.complex128)
        state[0] = 1.0
    else:
        state = np.zeros((batch, dim), dtype=np.complex128)
        state[:, 0] = 1.0
    return state


def _infer_n_qubits(state: np.ndarray) -> int:
    dim = state.shape[-1]
    n = int(round(np.log2(dim)))
    if 2 ** n != dim:
        raise ValueError(f"state length {dim} is not a power of two")
    return n


def _axis_pair(psi: np.ndarray, axis: int):
    i0 = [slice(None)] * psi.ndim
    i1 = [slice(None)] * psi.ndim
    i0[axis] = 0
    i1[axis] = 1
    return tuple(i0), tuple(i1)


def _apply_rotation(psi: np.ndarray, nbatch: int, kind: str, target: int, angle) -> None:
    i0, i1 = _axis_pair(psi, nbatch + target)
    half = np.asarray(angle, dtype=np.float64) / 2.0
    c = np.cos(half)
    s = np.sin(half)
    if c.ndim:
        # per-sample angles broadcast over the remaining qubit axes
        bshape = (-1,) + (1,) * (psi.ndim - 1 - nbatch)
        c = c.reshape(bshape)
        s = s.reshape(bshape)
    if kind == "rz":
        psi[i0] *= c - 1j * s
        psi[i1] *= c + 1j * s
        return
    a0 = psi[i0].copy()
    a1 = psi[i1]
    if kind == "rx":
        psi[i0] = c * a0 - 1j * s * a1
        psi[i1] = c * a1 - 1j * s * a0
    else:  # ry
        psi[i0] = c * a0 - s * a1
        psi[i1] = s * a0 + c * a1


def _apply_cnot(psi: np.ndarray, nbatch: int, control: int, target: int) -> None:
    idx = [slice(None)] * psi.ndim
    idx[nbatch + control] = 1
    sub = psi[tuple(idx)]  # view of the control=1 subspace; control axis is dropped
    t_axis = nbatch + target - (1 if target > control else 0)
    i0, i1 = _axis_pair(sub, t_axis)
    tmp = sub[i0].copy()
    sub[i0] = sub[i1]
    sub[i1] = tmp


def apply_gate(state: np.ndarray, gate: Gate, angle: Optional[float] = None) -> np.ndarray:
    """Apply one gate to a flat statevector, returning a new state.  A
    rotation needs its resolved ``angle``; a CNOT takes none."""
    n = _infer_n_qubits(state)
    if gate.target >= n or (gate.control is not None and gate.control >= n):
        raise ValueError(f"gate qubit out of range for {n}-qubit state")
    out = np.array(state, dtype=np.complex128)
    psi = out.reshape((2,) * n)
    if gate.kind == "cnot":
        _apply_cnot(psi, 0, gate.control, gate.target)
    elif angle is None:
        raise ValueError("rotation gate needs a resolved angle")
    else:
        _apply_rotation(psi, 0, gate.kind, gate.target, angle)
    return out.reshape(state.shape)


def _expval(psi: np.ndarray, nbatch: int, qubit: int):
    """<Z_qubit>, one value per leading batch index."""
    i0, i1 = _axis_pair(psi, nbatch + qubit)
    a0 = psi[i0]
    a1 = psi[i1]
    reduce_axes = tuple(range(nbatch, a0.ndim))
    return (a0.real ** 2 + a0.imag ** 2 - a1.real ** 2 - a1.imag ** 2).sum(axis=reduce_axes)


def expectation(state: np.ndarray, qubit: int) -> float:
    """<psi| Z(qubit) |psi>; real, in [-1, 1]."""
    n = _infer_n_qubits(state)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n}-qubit state")
    psi = np.asarray(state, dtype=np.complex128).reshape((2,) * n)
    return float(_expval(psi, 0, qubit))


def _resolve_angle(gate: Gate, params: np.ndarray, features: np.ndarray):
    if gate.param is not None:
        return params[gate.param]
    # feature column: scalar for a single sample, (B,) for a batch
    return features[..., gate.feature]


def _execute(spec: CircuitSpec, params: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Run the circuit on a batch of feature rows; returns (B, 2**n) states."""
    batch = features.shape[0]
    state = zero_state(spec.n_qubits, batch=batch)
    psi = state.reshape((batch,) + (2,) * spec.n_qubits)
    for gate in spec.gates():
        if gate.kind == "cnot":
            _apply_cnot(psi, 1, gate.control, gate.target)
        else:
            _apply_rotation(psi, 1, gate.kind, gate.target, _resolve_angle(gate, params, features))
    return state


def _check_args(spec: CircuitSpec, params, features) -> Tuple[np.ndarray, np.ndarray, bool]:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec.n_params,):
        raise ValueError(f"expected {spec.n_params} params, got shape {params.shape}")
    features = np.asarray(features, dtype=np.float64)
    single = features.ndim <= 1
    if features.ndim == 0:
        features = features.reshape(1, 1)
    elif features.ndim == 1:
        features = features.reshape(1, -1)
    elif features.ndim != 2:
        raise ValueError("features must be a vector or a 2-D batch")
    if features.shape[1] < spec.n_features:
        raise ValueError(
            f"circuit reads feature index {spec.n_features - 1}, "
            f"got {features.shape[1]} features"
        )
    return params, features, single


def run_circuit(spec: CircuitSpec, params: Sequence[float] = (), features: Sequence[float] = ()):
    """Run all layers from |0...0>; returns (state, expectation values).

    ``features`` may be one row or a (B, F) batch; the batch form returns
    a (B, 2**n) state block and (B, n_observables) expectations.
    """
    params, feats, single = _check_args(spec, params, features)
    states = _execute(spec, params, feats)
    psi = states.reshape((feats.shape[0],) + (2,) * spec.n_qubits)
    if spec.observables:
        vals = np.stack([_expval(psi, 1, q) for q in spec.observables], axis=-1)
    else:
        vals = np.zeros((feats.shape[0], 0))
    if single:
        return states[0], vals[0]
    return states, vals


def _seed_cotangent(lam: np.ndarray, psi: np.ndarray, observables, cot: np.ndarray) -> None:
    """lam += sum_o cot[:, o] * Z_o psi for (B, 2, ..., 2) state blocks."""
    bshape = (-1,) + (1,) * (psi.ndim - 2)
    for qubit, w in zip(observables, cot.T):
        i0, i1 = _axis_pair(psi, 1 + qubit)
        w = w.reshape(bshape)
        lam[i0] += w * psi[i0]
        lam[i1] -= w * psi[i1]


def _im_overlap(lam: np.ndarray, psi: np.ndarray, qubit: int, axis: str) -> float:
    """Im <lam| P_axis(qubit) |psi>, summed over the batch axis; the axis
    is the generator of the rotation being differentiated."""
    i0, i1 = _axis_pair(psi, 1 + qubit)
    l0, l1, a0, a1 = lam[i0], lam[i1], psi[i0], psi[i1]
    if axis == "z":
        return np.vdot(l0, a0).imag - np.vdot(l1, a1).imag
    if axis == "x":
        return (np.vdot(l0, a1) + np.vdot(l1, a0)).imag
    return (np.vdot(l1, a0) - np.vdot(l0, a1)).real  # y


def vjp(spec: CircuitSpec, params: Sequence[float], features: Sequence[float],
        state: np.ndarray, cotangent) -> np.ndarray:
    """Gradient of sum(cotangent * expectations) over the trainable params.

    Adjoint method (Jones & Gacon, arXiv:2009.02823).  ``state`` is the
    final state ``run_circuit`` returned for the same params and features,
    and ``cotangent`` weights its expectations: shape (n_observables,) for
    one feature row, (B, n_observables) for a batch.  One backward sweep
    un-applies each gate to both psi and lam = sum_o c_o Z_o psi; a gate
    exp(-i theta P / 2) contributes Im <lam|P|psi>.  The sweep stops at the
    earliest trainable gate, so the gates before it (a feature embedding)
    are never undone.  Returns shape (P,), summed over the batch.
    """
    params, feats, single = _check_args(spec, params, features)
    batch = feats.shape[0]
    n_obs = len(spec.observables)
    state = np.asarray(state, dtype=np.complex128)
    cot = np.asarray(cotangent, dtype=np.float64)
    lead = () if single else (batch,)
    if state.shape != lead + (2 ** spec.n_qubits,):
        raise ValueError(f"state shape {state.shape} does not match the circuit and features")
    if cot.shape != lead + (n_obs,):
        raise ValueError(f"expected cotangent shape {lead + (n_obs,)}, got {cot.shape}")
    grad = np.zeros(spec.n_params)
    gates = list(spec.gates())
    trainable = [i for i, g in enumerate(gates) if g.param is not None]
    if not trainable:
        return grad
    # psi and lam share one block so each gate is un-applied in one call
    pair = np.zeros((2, batch) + (2,) * spec.n_qubits, dtype=np.complex128)
    psi, lam = pair
    psi[...] = state.reshape(psi.shape)
    _seed_cotangent(lam, psi, spec.observables, cot.reshape(batch, n_obs))
    for i in range(len(gates) - 1, trainable[0] - 1, -1):
        gate = gates[i]
        if gate.param is not None:
            grad[gate.param] = _im_overlap(lam, psi, gate.target, gate.kind[1])
            if i == trainable[0]:
                break
        if gate.kind == "cnot":
            _apply_cnot(pair, 2, gate.control, gate.target)
        else:
            _apply_rotation(pair, 2, gate.kind, gate.target,
                            -_resolve_angle(gate, params, feats))
    return grad


def parameter_shift_grad(
    spec: CircuitSpec,
    params: Sequence[float],
    features: Sequence[float] = (),
    observable_index: int = 0,
) -> np.ndarray:
    """Exact gradient of one observable via the two-point shift rule.

    grad[k] = (f(theta_k + pi/2) - f(theta_k - pi/2)) / 2.  Single feature
    row -> shape (P,); feature batch -> shape (B, P).  It makes 2P circuit
    runs and is kept as the reference that ``vjp`` is tested against.
    """
    if not spec.observables:
        raise ValueError("circuit declares no observables")
    if not 0 <= observable_index < len(spec.observables):
        raise ValueError(f"observable index {observable_index} out of range")
    params, feats, single = _check_args(spec, params, features)
    grad = np.zeros((feats.shape[0], spec.n_params))
    shifted = params.copy()
    for k in range(spec.n_params):
        theta = params[k]
        shifted[k] = theta + np.pi / 2
        plus = run_circuit(spec, shifted, feats)[1][:, observable_index]
        shifted[k] = theta - np.pi / 2
        minus = run_circuit(spec, shifted, feats)[1][:, observable_index]
        shifted[k] = theta
        grad[:, k] = 0.5 * (plus - minus)
    if single:
        return grad[0]
    return grad
