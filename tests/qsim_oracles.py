"""Reference implementations that the simulator's tests compare against.

``apply_gate`` runs qsim's kernels one gate at a time, so it is the
sequential reference for the fused plan; ``expectation`` reads Pauli-Z on
a hand-built state; ``parameter_shift_grad`` is the exact two-point shift
rule that the adjoint gradient ``qsim.vjp`` is checked against;
``row_path_expectations`` runs each row alone, on the row path that a
batch on the span path is checked against.
"""

from typing import Optional, Sequence

import numpy as np

from qqual import qsim
from qqual.qsim import (_PAULI, _apply_2x2, _check_args, _cnot_permutation, _on_qubit,
                        _rotation_matrices, _z_signs)


def _infer_n_qubits(state: np.ndarray) -> int:
    dim = state.shape[-1]
    n = int(round(np.log2(dim)))
    if 2 ** n != dim:
        raise ValueError(f"state length {dim} is not a power of two")
    return n


def apply_gate(state: np.ndarray, gate: qsim.Gate, angle: Optional[float] = None) -> np.ndarray:
    """Apply one gate to a flat statevector, returning a new state.  A
    rotation needs its resolved ``angle``; a CNOT takes none."""
    n = _infer_n_qubits(state)
    if gate.target >= n or (gate.control is not None and gate.control >= n):
        raise ValueError(f"gate qubit out of range for {n}-qubit state")
    out = np.array(state, dtype=np.complex128)
    if gate.kind == "cnot":
        return out[..., _cnot_permutation(n, [gate])]
    if angle is None:
        raise ValueError("rotation gate needs a resolved angle")
    u = _rotation_matrices(_PAULI[gate.kind][:, :, None], [angle])[:, :, 0]
    _apply_2x2(_on_qubit(out, n, gate.target), u)
    return out


def expectation(state: np.ndarray, qubit: int) -> float:
    """<psi| Z(qubit) |psi>; real, in [-1, 1]."""
    n = _infer_n_qubits(state)
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for {n}-qubit state")
    psi = np.asarray(state, dtype=np.complex128)
    return float(np.einsum("i,i->", psi.real ** 2 + psi.imag ** 2, _z_signs(n, [qubit])[0]))


def parameter_shift_grad(spec: qsim.CircuitSpec, params: Sequence[float],
                         features: np.ndarray, observable_index: int = 0) -> np.ndarray:
    """Exact gradient of one observable via the two-point shift rule, per
    row of a (B, F) feature batch: shape (B, P).

    grad[:, k] = (f(theta_k + pi/2) - f(theta_k - pi/2)) / 2, from 2P
    circuit runs per row.  Each row runs as a batch of one, which always
    takes the row path, so the oracle never reads the span path that a
    batch of it may take.
    """
    if not spec.observables:
        raise ValueError("circuit declares no observables")
    if not 0 <= observable_index < len(spec.observables):
        raise ValueError(f"observable index {observable_index} out of range")
    params, feats = _check_args(spec, params, features)
    grad = np.zeros((feats.shape[0], spec.n_params))
    shifted = params.copy()
    for k in range(spec.n_params):
        theta = params[k]
        shifted[k] = theta + np.pi / 2
        plus = row_path_expectations(spec, shifted, feats)[:, observable_index]
        shifted[k] = theta - np.pi / 2
        minus = row_path_expectations(spec, shifted, feats)[:, observable_index]
        shifted[k] = theta
        grad[:, k] = 0.5 * (plus - minus)
    return grad


def row_path_expectations(spec: qsim.CircuitSpec, params, feats: np.ndarray) -> np.ndarray:
    """(B, n_observables) expectations of each row run as a batch of one,
    which always takes the row path."""
    return np.concatenate([qsim.run_circuit(spec, params, row[None])[1] for row in feats])
