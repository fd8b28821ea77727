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

The span path.  When every feature gate sits in the prefix, before the
param gates of its qubit, row b's state after those feature gates is a
product of per-qubit kets k_q(b).  Qubits whose kets are equal in every
row form a group (bench-reg repeats one x on every qubit); a group of g
qubits with ket (k0, k1) holds sum_m k0**(g-m) k1**m S_m, S_m being the
sum of the basis states with m ones on the group.  So every row is a
combination sum_s c_bs Psi_s of r = prod(g + 1) column states Psi_s, and
when the batch holds at least SPAN_ROWS_PER_STATE rows per column state
and r**2 <= 2**n, the plan runs on the r columns instead of the B rows:
the prefix's param gates become an ordinary trainable block with shared
matrices, and the columns at its end are built one qubit at a time.  Row b
reads <Z_o> = c_b^dagger M_o c_b with M_o = conj(Phi) diag(z_o) Phi^T for
the final columns Phi, and the adjoint sweep starts from
lam_t = sum_o z_o * sum_s Q_ts Phi_s with Q_ts = sum_b cot_bo conj(c_bt) c_bs,
an exact identity.  The span of a batch is built once per circuit and
batch.  ``readout`` returns weighted expectations alone, for predictions,
on the same two paths.

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

# the span path runs when the batch holds at least this many rows per
# column state.  Measured on 8 qubits (2 vCPU), a gradient step on the
# span of r = 4 to 16 states beat the one on the rows from B = 2.5r to 4r
# on; at r = 32, whose r x r forms outgrow a 2**8 state, it lost at 5.7r
SPAN_ROWS_PER_STATE = 4
# spans kept per circuit: a training batch and a probe grid alternate
SPAN_CACHE = 2

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
    # when every feature gate sits in blocks[0] before its qubit's param
    # gates, the span path's blocks: blocks[0]'s feature gates alone, and
    # the plan with blocks[0] cut to its param gates; else None
    span_embed: Optional[_Rotations]
    span_blocks: Optional[tuple]


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
    prefix = []  # the gates of blocks[0]
    for is_cnot, run in groupby(gates, key=lambda g: g.kind == "cnot"):
        run = list(run)
        if not is_cnot:
            if not blocks:
                prefix = run
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
    embed = [g for g in prefix if g.param is None]
    trained = set()
    splits = len(embed) == len(feature_gates)
    for gate in prefix:
        if gate.param is not None:
            trained.add(gate.target)
        elif gate.target in trained:
            splits = False
    span_embed = span_blocks = None
    if splits:
        # the prefix's feature gates are the whole feature stack, in order
        span_embed = _rotations(embed, [])
        span_blocks = (_rotations([g for g in prefix if g.param is not None], []),
                       *blocks[1:])
    return _Plan(tuple(blocks), trainable,
                 _stack_paulis(param_gates), _stack_paulis(feature_gates),
                 np.array([g.feature for g in feature_gates], dtype=np.intp),
                 _z_signs(n_qubits, observables), _bit_table(n_qubits),
                 span_embed, span_blocks)


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
    # feature batch -> its _Span or None, the last SPAN_CACHE batches
    _spans: dict = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_spans", {})

    def gates(self) -> Iterable[Gate]:
        for layer in self.layers:
            yield from layer


class _Span(NamedTuple):
    """A batch's rows as combinations of r column states (module docstring)."""

    coeffs: np.ndarray  # (B, r): row b's state is sum_s coeffs[b, s] Psi_s
    upper: Tuple[np.ndarray, np.ndarray]  # (s, t) of the column pairs with s <= t
    # (2, B, pairs): the real and imaginary parts of conj(c_bs) c_bt, off
    # the diagonal twice over, as a Hermitian form reads them
    pairs: np.ndarray
    radices: Tuple[int, ...]  # g + 1 for each group
    # per qubit: the index of its group, or its ket in every row
    roles: tuple


class Run(NamedTuple):
    """One forward pass, as ``run_circuit`` returns it and ``vjp`` reads it.

    Besides the final states it keeps what the adjoint sweep needs, all of
    it arrays the forward made anyway.  For each rotation block, the
    partial products W_t of its chains, one (2, 2, Q, 1) or (2, 2, Q, B)
    stack per chain position t from the block's end: W_t is the product of
    the gates after position t, and the last one is the fused matrix the
    block applied.  For each trainable block after the prefix, the state
    at the block's end; the CNOT gather after the block writes a new array,
    so nothing later overwrites it.  On the row path the prefix's end state
    is a product state that the sweep rebuilds from the fused matrices: a
    forward that kept it would hold one more state block for every call.
    On the span path, ``states`` are the r final column states, row b's
    final state is ``span.coeffs[b] @ states``, and the blocks are the
    plan's ``span_blocks``, whose prefix keeps its end state like any other.
    """

    spec: CircuitSpec
    states: np.ndarray  # (B, 2**n) final states, or (r, 2**n) on the span path
    # block index -> (state at the block's end or None, [W_0, W_1, ...])
    kept: dict
    span: Optional[_Span] = None


# the (2, 2, 0, 1) stack of no gate, for a block that has one angle source
_NO_GATES = np.zeros((2, 2, 0, 1), dtype=np.complex128)


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


def _powers(k: np.ndarray, g: int) -> np.ndarray:
    """(B, g + 1) powers 1, k, ..., k**g of a (B,) column, by repeated
    multiplication."""
    return np.cumprod(np.column_stack([np.ones(len(k))] + [k] * g), axis=1)


def _build_span(spec: CircuitSpec, feats: np.ndarray) -> Optional[_Span]:
    """The span of a batch's rows after the feature gates, or None for the
    row path: when the batch holds fewer than SPAN_ROWS_PER_STATE rows per
    column state, or r**2 > 2**n, where the r x r forms read per row cost
    more than the row's own state.

    Qubits whose kets vary over the batch form groups of equal kets, in
    order of their first qubit; a qubit whose ket is the same in every row
    keeps it, and one with no feature gate keeps |0>.  Column s has the
    digit m_j of group j at place j, the first group the most significant:
    the sum of the basis states with m_j ones on each group j, times the
    kept kets elsewhere."""
    plan = spec._plan
    batch = len(feats)
    if batch < SPAN_ROWS_PER_STATE:
        return None
    by_feature = _rotation_matrices(plan.feature_paulis, feats[:, plan.feature_cols].T)
    kets = _prefix_kets(plan.span_embed, _fuse(plan.span_embed, _NO_GATES, by_feature)[-1])
    roles = [_EYE[:, 0]] * spec.n_qubits
    groups = {}  # ket bytes -> the qubits of one group
    for q, ket in kets.items():
        if np.all(ket == ket[0]):
            roles[q] = ket[0]
        else:
            groups.setdefault(ket.tobytes(), []).append(q)
    for j, group in enumerate(groups.values()):
        for q in group:
            roles[q] = j
    radices = tuple(len(g) + 1 for g in groups.values())
    r = int(np.prod(radices))
    if SPAN_ROWS_PER_STATE * r > batch or r * r > 2 ** spec.n_qubits:
        return None
    coeffs = _kron_kets([_powers(kets[g[0]][:, 0], len(g))[:, ::-1]
                         * _powers(kets[g[0]][:, 1], len(g)) for g in groups.values()], batch)
    s, t = np.triu_indices(r)
    pairs = np.where(s == t, 1.0, 2.0) * coeffs.conj()[:, s] * coeffs[:, t]
    return _Span(coeffs, (s, t), np.stack([pairs.real, pairs.imag]), radices, tuple(roles))


def _span_columns(span: _Span, block: _Rotations, fused: np.ndarray) -> np.ndarray:
    """(r, 2**n) column states at the end of the span path's prefix block,
    built one qubit at a time as ``_kron_kets`` builds a product state: a
    qubit of group j maps digit m_j to m_j (its |0> ket) and to m_j + 1
    (its |1> ket), a qubit of no group multiplies in its ket."""
    mats = {q: _slot(fused, s) for s, q in enumerate(block.qubits)}
    state = np.zeros(span.radices + (1,), dtype=np.complex128)
    state[(0,) * state.ndim] = 1.0
    for q, role in enumerate(span.roles):
        u = mats.get(q, _EYE)
        if isinstance(role, int):
            below = (slice(None),) * role + (slice(None, -1),)
            above = (slice(None),) * role + (slice(1, None),)
            new = state[..., None] * u[:, 0]
            new[above] += state[below][..., None] * u[:, 1]
        else:
            new = state[..., None] * (u[:, 0] * role[0] + u[:, 1] * role[1])
        state = new.reshape(span.radices + (-1,))
    return state.reshape(-1, state.shape[-1])


def _span(spec: CircuitSpec, feats: np.ndarray) -> Optional[_Span]:
    """The batch's span, or None for the row path; built once per circuit
    and batch (``optim.fit`` passes one batch at every epoch)."""
    if spec._plan.span_blocks is None:
        return None
    spans = spec._spans
    key = (feats.shape, feats.tobytes())
    if key not in spans:
        if len(spans) == SPAN_CACHE:
            del spans[next(iter(spans))]
        spans[key] = _build_span(spec, feats)
    return spans[key]


def _evolve(spec: CircuitSpec, state: np.ndarray, blocks: tuple, start: int,
            by_param: np.ndarray, by_feature: np.ndarray, kept: dict) -> np.ndarray:
    """Run blocks[start:] on the states, recording in ``kept`` what ``Run``
    keeps of each rotation block."""
    trainable = spec._plan.trainable
    for i in range(start, len(blocks)):
        block = blocks[i]
        if isinstance(block, _CnotRun):
            state = state[:, block.perm]
            continue
        ws = _fuse(block, by_param, by_feature)
        for s, q in enumerate(block.qubits):
            _apply_2x2(_on_qubit(state, spec.n_qubits, q), _slot(ws[-1], s))
        kept[i] = (state if i in trainable else None, ws)
    return state


def _execute(spec: CircuitSpec, params: np.ndarray, features: np.ndarray) -> Run:
    """Run the circuit's plan on a batch of feature rows, or on their span."""
    plan = spec._plan
    by_param = _rotation_matrices(plan.param_paulis, params)[..., None]
    span = _span(spec, features)
    if span is not None:
        prefix = plan.span_blocks[0]
        ws = _fuse(prefix, by_param, _NO_GATES)
        state = _span_columns(span, prefix, ws[-1])
        kept = {0: (state if 0 in plan.trainable else None, ws)}
        state = _evolve(spec, state, plan.span_blocks, 1, by_param, _NO_GATES, kept)
        return Run(spec, state, kept, span)
    by_feature = _rotation_matrices(plan.feature_paulis, features[:, plan.feature_cols].T)
    ws = _fuse(plan.blocks[0], by_param, by_feature)
    kept = {0: (None, ws)}
    # no local holds the prefix state, so the first CNOT gather frees it;
    # one more live state block costs a 181-row q8 forward about 10%
    state = _evolve(spec, _product_state(plan.blocks[0], ws[-1], features.shape[0], spec.n_qubits),
                    plan.blocks, 1, by_param, by_feature, kept)
    return Run(spec, state, kept)


def _quadratic(span: _Span, m: np.ndarray) -> np.ndarray:
    """(B, K) values c_b^dagger M_k c_b of the rows of a span for K
    Hermitian forms M_k, given on the upper pairs as (K, pairs)."""
    return (np.einsum("bx,kx->bk", span.pairs[0], np.ascontiguousarray(m.real))
            - np.einsum("bx,kx->bk", span.pairs[1], np.ascontiguousarray(m.imag)))


def _column_products(run: Run) -> np.ndarray:
    """(pairs, 2**n) products conj(Phi_s) Phi_t of the final columns on the
    upper pairs.  A CNOT gather leaves the column axis fastest in memory;
    the products run faster on C-ordered columns."""
    psi = np.ascontiguousarray(run.states)
    s, t = run.span.upper
    return psi.conj()[s] * psi[t]


def _one_halves(prod: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(n, K) sums of each of K rows of a (K, 2**n) block over the basis
    states with qubit q at 1, for every q, and the (K,) full sums, by
    summing out one qubit at a time from the least significant."""
    halves = []
    for k in range(int(np.log2(prod.shape[1])) - 1, -1, -1):
        pair = prod.reshape(len(prod), 2 ** k, 2)
        halves.append(pair[:, :, 1].sum(axis=1))
        prod = pair[:, :, 0] + pair[:, :, 1]
    return np.array(halves[::-1]), prod[:, 0]


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
    returns the ``Run`` and the (B, n_observables) expectations.  The
    ``Run``'s states are the (B, 2**n) final states on the row path and
    the span's final column states on the span path (module docstring).
    """
    params, feats = _check_args(spec, params, features)
    run = _execute(spec, params, feats)
    if run.span is None:
        probs = run.states.real ** 2 + run.states.imag ** 2
        return run, np.einsum("bi,oi->bo", probs, spec._plan.z_signs)
    # <Phi_s|Z_q|Phi_t> is their overlap less twice its part on qubit q's |1> half
    ones, total = _one_halves(_column_products(run))
    return run, _quadratic(run.span, total - 2 * ones[list(spec.observables)])


def readout(spec: CircuitSpec, params: Sequence[float], features: np.ndarray,
            weights: Sequence[float]) -> np.ndarray:
    """(B,) weighted expectations sum_o weights[o] <Z_o> of each row of a
    (B, F) feature batch: ``run_circuit(spec, params, features)[1] @ weights``
    up to rounding, reading the one observable sum_o weights[o] Z_o."""
    params, feats = _check_args(spec, params, features)
    d = np.einsum("o,oi->i", np.asarray(weights, dtype=np.float64), spec._plan.z_signs)
    run = _execute(spec, params, feats)
    if run.span is not None:
        psi = np.ascontiguousarray(run.states)
        m = np.einsum("si,ti->st", psi.conj(), psi * d)
        return _quadratic(run.span, m[run.span.upper][None])[:, 0]
    # drop the states kept for a gradient first: reading |psi|^2 while
    # they live makes a 181-row forward about 10% slower
    states = run.states
    del run
    return np.einsum("bi,i->b", states.real ** 2 + states.imag ** 2, d)


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


def _span_adjoint(run: Run, cot: np.ndarray, z_signs: np.ndarray) -> np.ndarray:
    """lam_t = sum_o z_o * sum_s Q_ts Phi_s with Q_ts = sum_b cot_bo conj(c_bt)
    c_bs, the adjoint states of the span's columns: sum_t <lam_t|X|Phi_t> is
    sum_b <D_b psi_b|X|psi_b> for any X, with D_b = sum_o cot_bo Z_o.
    Observables whose cotangent columns are equal share one Q."""
    c = run.span.coeffs
    lam = np.zeros_like(run.states)
    shared = {}
    for o in range(cot.shape[1]):
        shared.setdefault(cot[:, o].tobytes(), []).append(o)
    for obs in shared.values():
        q = np.einsum("b,bt,bs->ts", cot[:, obs[0]], c.conj(), c)
        lam += z_signs[obs].sum(axis=0) * np.einsum("ts,si->ti", q, run.states)
    return lam


def vjp(run: Run, cotangent) -> np.ndarray:
    """Gradient of sum(cotangent * expectations) over the trainable params.

    Adjoint method (Jones & Gacon, arXiv:2009.02823).  ``run`` is what
    ``run_circuit`` returned for the params and the (B, F) features, and
    the (B, n_observables) ``cotangent`` weights its expectations.  The
    sweep carries lam alone, starting from lam = sum_o c_o Z_o psi (on the
    span path, from ``_span_adjoint``), back through the blocks the forward
    ran: a CNOT run by its inverse gather, a rotation block by the
    conjugate transposes of the fused matrices the forward kept.  At a
    trainable block it pairs lam with the state the forward kept at that
    block's end, so psi is never un-applied, and one overlap matrix per
    qubit serves every gate of that qubit's chain (``_block_grad``).  The
    sweep stops in the earliest trainable block, so the gates before it
    (a feature embedding) are never undone.  Returns shape (P,), summed
    over the batch.
    """
    spec = run.spec
    plan = spec._plan
    n = spec.n_qubits
    batch = len(run.states if run.span is None else run.span.coeffs)
    cot = np.asarray(cotangent, dtype=np.float64)
    if cot.shape != (batch, len(spec.observables)):
        raise ValueError(
            f"expected cotangent shape {(batch, len(spec.observables))}, got {cot.shape}")
    grad = np.zeros(spec.n_params)
    if not plan.trainable:
        return grad
    if run.span is None:
        blocks = plan.blocks
        lam = np.einsum("bo,oi->bi", cot, plan.z_signs) * run.states
    else:
        blocks = plan.span_blocks
        lam = _span_adjoint(run, cot, plan.z_signs)
    first = plan.trainable[0]
    for i in range(len(blocks) - 1, first - 1, -1):
        block = blocks[i]
        if isinstance(block, _CnotRun):
            lam = lam[:, block.inverse]
            continue
        psi, ws = run.kept[i]
        if i in plan.trainable:
            if psi is None:  # the row path's prefix, a product state
                psi = _product_state(block, ws[-1], batch, n)
            _block_grad(grad, block, ws, lam, psi, plan.bits, n)
        if i > first:
            for s, q in enumerate(block.qubits):
                _apply_2x2(_on_qubit(lam, n, q), _dagger(_slot(ws[-1], s)))
    return grad
