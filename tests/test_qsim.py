import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qqual import qdnn, qsim
from qsim_oracles import apply_gate, expectation, parameter_shift_grad, row_path_expectations

# the (1, 0) batch of a circuit that reads no feature
NO_FEATURES = np.zeros((1, 0))


def zero_state(n):
    s = np.zeros(2 ** n, dtype=complex)
    s[0] = 1.0
    return s


def rand_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return v / np.linalg.norm(v)


def random_circuit(rng, n_qubits, n_layers, observables=None):
    layers = []
    p = 0
    for _ in range(n_layers):
        layer = []
        for q in range(n_qubits):
            kind = rng.choice(["rx", "ry", "rz"])
            layer.append(qsim.Gate(kind, q, param=p))
            p += 1
        if n_qubits > 1:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            layer.append(qsim.cnot(int(a), int(b)))
        layers.append(layer)
    if observables is None:
        observables = [int(rng.integers(n_qubits))]
    return qsim.CircuitSpec(n_qubits, layers, observables), p


def rotate(state, kind, qubit, angle):
    return apply_gate(state, qsim.Gate(kind, qubit, param=0), angle)


class TestApplyGate:
    def test_zero_angle_rotation_is_identity(self):
        s = rand_state(3, 0)
        for kind in ("rx", "ry", "rz"):
            out = rotate(s, kind, 1, 0.0)
            assert np.allclose(out, s, atol=1e-14)

    def test_rx_pi_on_zero_state(self):
        out = rotate(zero_state(1), "rx", 0, np.pi)
        assert np.allclose(out, [0.0, -1.0j], atol=1e-12)

    def test_cnot_truth_table(self):
        # qubit 0 is the most significant bit: |10> is index 2
        for src, dst in [(0, 0), (1, 1), (2, 3), (3, 2)]:
            s = np.zeros(4, dtype=complex)
            s[src] = 1.0
            out = apply_gate(s, qsim.cnot(0, 1))
            assert abs(out[dst] - 1.0) < 1e-14

    def test_cnot_reversed_roles(self):
        # control on qubit 1: |01> -> |11>
        s = np.zeros(4, dtype=complex)
        s[1] = 1.0
        out = apply_gate(s, qsim.cnot(1, 0))
        assert abs(out[3] - 1.0) < 1e-14

    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError):
            qsim.cnot(1, 1)

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            rotate(zero_state(2), "rx", 5, 0.3)

    def test_rotation_needs_angle_source(self):
        with pytest.raises(ValueError):
            qsim.Gate("rx", 0)
        with pytest.raises(ValueError):
            qsim.Gate("rx", 0, feature=1, param=0)
        with pytest.raises(ValueError, match="angle"):
            apply_gate(zero_state(1), qsim.rx(0, param=0))

    def test_unitarity_round_trip(self):
        s = rand_state(4, 7)
        for kind in ("rx", "ry", "rz"):
            fwd = rotate(s, kind, 2, 0.813)
            back = rotate(fwd, kind, 2, -0.813)
            assert np.allclose(back, s, atol=1e-12)


def expect_x(state, qubit):
    # RY(-pi/2) turns the X axis onto Z
    return expectation(rotate(state, "ry", qubit, -np.pi / 2), qubit)


def expect_y(state, qubit):
    # RX(pi/2) turns the Y axis onto Z
    return expectation(rotate(state, "rx", qubit, np.pi / 2), qubit)


class TestExpectation:
    def test_z_basis_states(self):
        one = np.array([0.0, 1.0], dtype=complex)
        assert expectation(one, 0) == pytest.approx(-1.0)
        assert expectation(zero_state(1), 0) == pytest.approx(1.0)

    def test_plus_state(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        assert expectation(plus, 0) == pytest.approx(0.0, abs=1e-14)
        assert expect_x(plus, 0) == pytest.approx(1.0)

    def test_y_after_rx(self):
        # RX(theta)|0> has <Y> = -sin(theta)
        for theta in (0.3, 1.2, 2.5):
            s = rotate(zero_state(1), "rx", 0, theta)
            assert expect_y(s, 0) == pytest.approx(-np.sin(theta), abs=1e-12)

    def test_bounds_on_random_states(self):
        for seed in range(20):
            s = rand_state(3, seed)
            for q in range(3):
                for v in (expect_x(s, q), expect_y(s, q), expectation(s, q)):
                    assert -1.0 - 1e-12 <= v <= 1.0 + 1e-12


class TestCircuitSpec:
    def test_param_indices_must_be_contiguous(self):
        with pytest.raises(ValueError):
            qsim.CircuitSpec(1, [[qsim.rx(0, param=1)]])

    def test_param_index_reuse_rejected(self):
        with pytest.raises(ValueError):
            qsim.CircuitSpec(2, [[qsim.rx(0, param=0), qsim.ry(1, param=0)]])

    def test_qubit_cap(self):
        with pytest.raises(ValueError):
            qsim.CircuitSpec(13, [])

    def test_feature_gates_must_form_an_embedding(self):
        # a feature gate may follow a feature gate on its qubit and a param
        # gate on another, but no CNOT and no param gate on its own qubit
        spec = qsim.CircuitSpec(2, [[qsim.ry(1, param=0), qsim.rx(0, feature=0),
                                     qsim.rz(0, feature=1)], [qsim.cnot(0, 1)]], [0])
        assert spec.n_features == 2
        for gates, named in (
                ([qsim.cnot(0, 1), qsim.rx(1, feature=0)], "rx gate on qubit 1 reading feature 0"),
                ([qsim.rx(0, feature=0), qsim.ry(0, param=0), qsim.rz(0, feature=2)],
                 "rz gate on qubit 0 reading feature 2")):
            with pytest.raises(ValueError, match=named):
                qsim.CircuitSpec(2, [gates], [0])

    def test_counts(self):
        spec = qsim.CircuitSpec(
            2, [[qsim.rx(0, feature=3), qsim.ry(1, param=0)], [qsim.cnot(0, 1)]], [0]
        )
        assert spec.n_params == 1
        assert spec.n_features == 4


class TestRunCircuit:
    def test_empty_circuit_z_expectation(self):
        spec = qsim.CircuitSpec(2, [], [0])
        _, vals = qsim.run_circuit(spec, [], NO_FEATURES)
        assert vals[0, 0] == pytest.approx(1.0)

    def test_ry_half_pi(self):
        spec = qsim.CircuitSpec(1, [[qsim.ry(0, param=0)]], [0])
        _, vals = qsim.run_circuit(spec, [np.pi / 2], NO_FEATURES)
        assert abs(vals[0, 0]) < 1e-12

    def test_rx_feature_gives_cos(self):
        spec = qsim.CircuitSpec(1, [[qsim.rx(0, feature=0)]], [0])
        for x in (0.3, 1.1, 2.0):
            _, vals = qsim.run_circuit(spec, [], [[x]])
            assert vals[0, 0] == pytest.approx(np.cos(x), abs=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        spec, p = random_circuit(rng, 3, 2, observables=[0, 2])
        # add a feature-driven embedding layer in front
        layers = [[qsim.rx(q, feature=q) for q in range(3)]] + list(spec.layers)
        spec = qsim.CircuitSpec(3, layers, spec.observables)
        params = rng.normal(size=p)
        X = rng.normal(size=(6, 3))
        run, vals = qsim.run_circuit(spec, params, X)
        for i in range(6):
            r_i, v_i = qsim.run_circuit(spec, params, X[i:i + 1])
            assert np.allclose(r_i.states[0], run.states[i], atol=1e-13)
            assert np.allclose(v_i[0], vals[i], atol=1e-13)

    def test_no_observables_gives_empty_values(self):
        spec = qsim.CircuitSpec(2, [[qsim.ry(0, param=0), qsim.cnot(0, 1)]])
        run, vals = qsim.run_circuit(spec, [0.4], np.zeros((3, 0)))
        assert run.states.shape == (3, 4) and vals.shape == (3, 0)

    def test_param_count_checked(self):
        spec = qsim.CircuitSpec(1, [[qsim.ry(0, param=0)]], [0])
        with pytest.raises(ValueError):
            qsim.run_circuit(spec, [], NO_FEATURES)

    def test_missing_feature_rejected(self):
        spec = qsim.CircuitSpec(1, [[qsim.rx(0, feature=2)]], [0])
        with pytest.raises(ValueError):
            qsim.run_circuit(spec, [], [[0.1, 0.2]])

    def test_features_must_be_a_batch(self):
        spec = qsim.CircuitSpec(1, [[qsim.rx(0, feature=0)]], [0])
        for features in (0.1, [0.1], np.zeros((1, 1, 1))):
            with pytest.raises(ValueError, match="2-D"):
                qsim.run_circuit(spec, [], features)


class TestParameterShift:
    def test_extremum_gives_zero(self):
        spec = qsim.CircuitSpec(1, [[qsim.ry(0, param=0)]], [0])
        g = parameter_shift_grad(spec, [0.0], NO_FEATURES)
        assert abs(g[0, 0]) < 1e-14

    def test_matches_analytic_derivative(self):
        spec = qsim.CircuitSpec(1, [[qsim.ry(0, param=0)]], [0])
        g = parameter_shift_grad(spec, [np.pi / 2], NO_FEATURES)
        assert g[0, 0] == pytest.approx(-1.0, abs=1e-10)

    def test_matches_finite_differences(self):
        h = 1e-5
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 5))
            spec, p = random_circuit(rng, n, int(rng.integers(1, 4)))
            params = rng.uniform(-np.pi, np.pi, size=p)
            x = NO_FEATURES
            g = parameter_shift_grad(spec, params, x)[0]
            for k in range(p):
                up = params.copy()
                up[k] += h
                dn = params.copy()
                dn[k] -= h
                fd = (qsim.run_circuit(spec, up, x)[1][0, 0]
                      - qsim.run_circuit(spec, dn, x)[1][0, 0]) / (2 * h)
                assert g[k] == pytest.approx(fd, abs=1e-6)

    def test_batched_gradient_shape(self):
        rng = np.random.default_rng(3)
        layers = [[qsim.rx(0, feature=0)], [qsim.ry(0, param=0)]]
        spec = qsim.CircuitSpec(1, layers, [0])
        X = rng.normal(size=(5, 1))
        g = parameter_shift_grad(spec, [0.4], X)
        assert g.shape == (5, 1)
        for i in range(5):
            gi = parameter_shift_grad(spec, [0.4], X[i:i + 1])
            assert np.allclose(gi[0], g[i], atol=1e-13)


def random_mixed_circuit(rng, n_qubits, n_gates, n_features):
    """An embedding of 0-2 feature gates of random kinds on each qubit, then
    n_gates param rotations of every kind and CNOTs in random order; params
    0..P-1."""
    gates = [qsim.Gate(str(rng.choice(qsim.ROTATION_KINDS)), q,
                       feature=int(rng.integers(n_features)))
             for q in range(n_qubits) for _ in range(int(rng.integers(3)))]
    p = 0
    for _ in range(n_gates):
        if n_qubits > 1 and rng.random() < 0.25:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            gates.append(qsim.cnot(int(a), int(b)))
            continue
        kind = str(rng.choice(qsim.ROTATION_KINDS))
        gates.append(qsim.Gate(kind, int(rng.integers(n_qubits)), param=p))
        p += 1
    n_obs = int(rng.integers(1, 4))
    observables = [int(rng.integers(n_qubits)) for _ in range(n_obs)]
    return qsim.CircuitSpec(n_qubits, [gates], observables)


def gate_tags(spec):
    tags = set()
    for g in spec.gates():
        if g.kind == "cnot":
            tags.add(("cnot", "control above" if g.control < g.target else "control below"))
        else:
            tags.add((g.kind, "param" if g.param is not None else "feature"))
    return tags


def sequential_run(spec, params, x):
    """The circuit gate by gate through the apply_gate oracle, for one feature row."""
    state = zero_state(spec.n_qubits)
    for g in spec.gates():
        if g.kind == "cnot":
            state = apply_gate(state, g)
        else:
            angle = params[g.param] if g.param is not None else x[g.feature]
            state = apply_gate(state, g, angle)
    return state, np.array([expectation(state, q) for q in spec.observables])


def gate_runs(spec):
    """The gates as alternating rotation and CNOT runs, starting with
    rotations (an empty first run when the circuit starts with a CNOT)."""
    runs = [[]]
    for g in spec.gates():
        if (g.kind == "cnot") != (len(runs) % 2 == 0):
            runs.append([])
        runs[-1].append(g)
    return runs


def plan_tags(spec):
    """Which paths of the fused plan a circuit exercises, read from its gates."""
    tags = {("qubits", spec.n_qubits)}
    runs = gate_runs(spec)
    if len(runs) == 1:
        tags.add("no cnot")
    prefix = runs[0]
    if {g.param is None for g in prefix} == {True, False}:
        tags.add("prefix with param and feature gates")
    for i, run in enumerate(runs):
        if i % 2 == 0:
            targets = [g.target for g in run]
            if len(set(targets)) < len(targets):
                where = "in the prefix" if i == 0 else "after a cnot"
                tags.add(f"several gates on one qubit {where}")
        elif len(run) >= 2:
            tags |= {("cnot run", "control above" if g.control < g.target else "control below")
                     for g in run}
    return tags


def sweep_tags(spec):
    """Which branches of the adjoint sweep a circuit exercises, read from its gates."""
    tags = {("qubits", spec.n_qubits)}
    runs = gate_runs(spec)
    embedded = [g.target for g in runs[0] if g.feature is not None]
    if len(set(embedded)) < len(embedded):
        tags.add("two feature gates on one qubit")
    if {g.target for g in runs[0] if g.param is not None} - set(embedded):
        tags.add("prefix qubit with no feature gate")
    trainable = [i for i in range(0, len(runs), 2) if any(g.param is not None for g in runs[i])]
    for i in trainable:
        if len({g.target for g in runs[i]}) < spec.n_qubits:
            tags.add("trainable block on some of the qubits")
    if trainable and trainable[-1] == len(runs) - 1 > 0:
        tags.add("trainable last block after a cnot")
    if any(b - a == 2 for a, b in zip(trainable, trainable[1:])):
        tags.add("cnot run between trainable blocks")
    return tags


class TestFusedPlan:
    def test_matches_gate_by_gate_application(self):
        seen = set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = {7: 1, 17: 12, 37: 12}.get(seed, int(rng.integers(1, 6)))
            n_feat = int(rng.integers(1, 4))
            spec = random_mixed_circuit(rng, n, int(rng.integers(4, 24)), n_feat)
            params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
            batched = seed % 2 == 1
            X = rng.normal(size=(int(rng.integers(2, 5)) if batched else 1, n_feat))
            run, vals = qsim.run_circuit(spec, params, X)
            # a span-path run keeps the span's column states
            states = run.states if run.span is None else run.span.coeffs @ run.states
            for b, x in enumerate(X):
                ref_state, ref_vals = sequential_run(spec, params, x)
                assert np.max(np.abs(states[b] - ref_state)) <= 1e-12
                assert np.max(np.abs(vals[b] - ref_vals)) <= 1e-12
            seen |= plan_tags(spec) | {"batch" if batched else "batch of one",
                                       "row path" if run.span is None else "span path"}
        assert seen >= {
            "prefix with param and feature gates", "several gates on one qubit in the prefix",
            "several gates on one qubit after a cnot",
            ("cnot run", "control above"), ("cnot run", "control below"), "no cnot",
            ("qubits", 1), ("qubits", 12), "batch of one", "batch", "row path", "span path"}


def embedded_circuit(rng, n_qubits, n_feat):
    """Feature gates of random kinds before the first CNOT, one or two on a
    qubit (the paired embedding puts an RX and an RZ on one), then random
    trainable layers whose first rotations join the prefix."""
    embed = [qsim.Gate(str(rng.choice(qsim.ROTATION_KINDS)), int(q), feature=int(f))
             for q, f in zip(rng.integers(n_qubits, size=int(rng.integers(1, 2 * n_qubits + 1))),
                             rng.integers(n_feat, size=2 * n_qubits))]
    body, _ = random_circuit(rng, n_qubits, int(rng.integers(1, 4)))
    observables = sorted({int(q) for q in rng.integers(n_qubits, size=int(rng.integers(1, 4)))})
    return qsim.CircuitSpec(n_qubits, [embed] + list(body.layers), observables)


def embedding_kets(spec, X):
    """qubit -> (B, 2) kets of each row after the qubit's feature gates,
    applied to |0> one gate at a time by the apply_gate oracle."""
    kets = {}
    for g in spec.gates():
        if g.feature is not None:
            gate = qsim.Gate(g.kind, 0, feature=g.feature)
            start = kets.get(g.target, [zero_state(1)] * len(X))
            kets[g.target] = np.array([apply_gate(k, gate, x[g.feature])
                                       for k, x in zip(start, X)])
    return kets


def span_rule(spec, X):
    """(path, groups) that a batch takes, read from the gates and the batch.

    Qubits whose kets after the embedding are equal in every row form a
    group (a dict value): the same feature columns under the same gate
    kinds, or under gates that commute; qubits whose kets are constant over
    the batch form none.  The span path needs r = prod(g + 1) column states
    with 4r <= B and r**2 <= 2**n; else the batch takes the row path."""
    groups = {}
    for q, kets in embedding_kets(spec, X).items():
        if np.any(kets != kets[0]):
            groups.setdefault(kets.tobytes(), []).append(q)
    r = int(np.prod([len(g) + 1 for g in groups.values()]))
    if 4 * r > len(X):
        return "4r > B", groups
    if r * r > 2 ** spec.n_qubits:
        return "r**2 > 2**n", groups
    return "span", groups


def readout_tags(spec, X, weights):
    """Which path of ``readout`` a batch takes and what it exercises, read
    from the gates, the batch and the kind of weights."""
    tags = {("qubits", spec.n_qubits)}
    if len(X) == 1:
        tags.add("batch of one")
    path, groups = span_rule(spec, X)
    tags.add(path)
    if path == "span":
        # 0: every row is one state; 3: several digits order the columns
        tags |= {("span groups", min(len(groups), 3)), ("span", weights)}
        if any(len(g) > 1 for g in groups.values()):
            tags.add("a group of several qubits")
        varying = {q for g in groups.values() for q in g}
        constant = {j for j in range(X.shape[1]) if np.all(X[:, j] == X[0, j])}
        if any(g.target in varying and g.feature in constant for g in gate_runs(spec)[0]
               if g.feature is not None):
            tags.add("constant and varying feature on one qubit")
    if not any(g.feature is not None for g in spec.gates()) and len(X) > 1:
        tags.add("no feature gate")
    return tags


class TestReadout:
    def test_matches_weighted_expectations_on_random_circuits(self):
        seen = set()
        for seed in range(80):
            rng = np.random.default_rng(seed)
            n = 8 if seed % 10 in (5, 7) else int(rng.integers(1, 6))
            n_feat = int(rng.integers(1, n + 2))
            if seed % 4 == 0:
                spec = random_mixed_circuit(rng, n, int(rng.integers(4, 16)), n_feat)
            elif seed % 4 == 1:
                spec, _ = random_circuit(rng, n, int(rng.integers(1, 4)))
            else:
                spec = embedded_circuit(rng, n, n_feat)
            params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
            X = rng.normal(size=(int(rng.choice([1, 2, 5, 40, 100])), n_feat))
            # equal columns, as bench-reg repeats x, and constant ones
            X[:, rng.random(n_feat) < 0.3] = X[:, :1]
            X[:, rng.random(n_feat) < 0.3] = rng.normal()
            n_obs = len(spec.observables)
            # classification reads one observable, regression the mean
            kind = ("one observable", "mean", "random")[seed // 3 % 3]
            weights = {"one observable": np.eye(n_obs)[0], "mean": np.full(n_obs, 1.0 / n_obs),
                       "random": rng.normal(size=n_obs)}[kind]
            got = qsim.readout(spec, params, X, weights)
            want = row_path_expectations(spec, params, X) @ weights
            assert got.shape == (len(X),)
            assert np.max(np.abs(got - want)) <= 1e-14
            assert (qsim._span(spec, X) is not None) == (span_rule(spec, X)[0] == "span")
            seen |= readout_tags(spec, X, kind)
        assert seen >= {
            ("span groups", 0), ("span groups", 3), "a group of several qubits",
            ("span", "one observable"), ("span", "mean"), ("span", "random"),
            "4r > B", "r**2 > 2**n", "batch of one",
            "constant and varying feature on one qubit", "no feature gate", ("qubits", 8)}


def row_path_grad(spec, params, X, cot):
    """vjp summed over the rows, each run as a batch of one: the row path."""
    return sum(qsim.vjp(qsim.run_circuit(spec, params, x[None])[0], c[None])
               for x, c in zip(X, cot))


def shift_rule_grad(spec, params, X, cot):
    """Gradient of sum(cot * expectations) by the two-point shift rule, on
    the row path."""
    grad = np.zeros(spec.n_params)
    for k in range(spec.n_params):
        for sign in (1.0, -1.0):
            shifted = np.array(params, dtype=np.float64)
            shifted[k] += sign * np.pi / 2
            grad[k] += sign * 0.5 * np.sum(cot * row_path_expectations(spec, shifted, X))
    return grad


def ring_circuit(n_qubits, embed, n_layers=2):
    return qsim.CircuitSpec(n_qubits, [embed] + qdnn._ring_layers(n_qubits, n_layers),
                            range(n_qubits))


def span_shape(name, rng):
    """(circuit, batch, radices of the span it must take) of one named shape."""
    if name == "8 equal columns":  # bench-reg: one x on every qubit
        X = np.repeat(rng.uniform(-2, 4, (36, 1)), 8, axis=1)
        return qdnn.build_default_qdnn(8).circuit, X, (9,)
    if name == "4 varying and 4 constant columns":  # a dvcs grid
        X = np.column_stack([np.full((64, 4), rng.normal(size=4)), rng.normal(size=(64, 4))])
        return qdnn.build_default_qdnn(8).circuit, X, (2, 2, 2, 2)
    if name == "two groups and a singleton":  # groups {0, 3} and {1, 5}, then {7}
        X = np.full((72, 9), 0.4)
        X[:, [0, 3]] = rng.normal(size=(72, 1))
        X[:, [1, 5]] = rng.normal(size=(72, 1))
        X[:, 7] = rng.normal(size=72)
        return ring_circuit(9, [qsim.rx(q, feature=q) for q in range(9)], 1), X, (3, 3, 2)
    # the paired embedding, RX(a) then RZ(b) on every qubit, a and b varying
    ab = rng.normal(size=(36, 2))
    X = np.repeat(ab, 8, axis=1)
    return qdnn.build_paired_feature_qdnn(16).circuit, X, (9,)


class TestSpanPath:
    @pytest.mark.parametrize("name", ["8 equal columns", "4 varying and 4 constant columns",
                                      "two groups and a singleton", "paired embedding"])
    def test_matches_row_path_and_shift_rule(self, name):
        rng = np.random.default_rng(23)
        spec, X, radices = span_shape(name, rng)
        assert qsim._span(spec, X).radices == radices
        params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
        n_obs = len(spec.observables)
        run, vals = qsim.run_circuit(spec, params, X)
        assert run.states.shape[0] == np.prod(radices)
        want = row_path_expectations(spec, params, X)
        assert np.max(np.abs(vals - want)) <= 1e-12 * np.max(np.abs(want))
        weights = rng.normal(size=n_obs)
        assert np.max(np.abs(qsim.readout(spec, params, X, weights) - want @ weights)) <= 1e-12
        # a random cotangent, and one whose columns are equal, as the QDNN's mean passes
        cots = [rng.normal(size=(len(X), n_obs)), np.repeat(rng.normal(size=(len(X), 1)), n_obs, 1)]
        for cot in cots:
            got = qsim.vjp(run, cot)
            row = row_path_grad(spec, params, X, cot)
            assert np.max(np.abs(got - row)) <= 1e-12 * np.max(np.abs(row))
        oracle = shift_rule_grad(spec, params, X, cots[0])
        assert np.max(np.abs(qsim.vjp(run, cots[0]) - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_equal_columns_under_different_gates_are_not_grouped(self):
        # RX(x) and RY(x) make different kets: one column under two kinds is two groups
        rng = np.random.default_rng(3)
        X = np.repeat(rng.normal(size=(100, 1)), 8, axis=1)
        kinds = [qsim.rx, qsim.ry]
        # two groups of four: r = 25, and 25**2 > 2**8 keeps it on the row path
        spec = ring_circuit(8, [kinds[q // 4](q, feature=q) for q in range(8)])
        assert qsim._span(spec, X) is None
        # two groups of two beside four constant columns
        X[:, 4:] = 0.3
        spec = ring_circuit(8, [kinds[q // 2 % 2](q, feature=q) for q in range(8)])
        assert qsim._span(spec, X).radices == (3, 3)
        params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
        cot = rng.normal(size=(100, 8))
        row = row_path_grad(spec, params, X, cot)
        got = qsim.vjp(qsim.run_circuit(spec, params, X)[0], cot)
        assert np.max(np.abs(got - row)) <= 1e-12 * np.max(np.abs(row))

    def test_fewer_than_four_rows_per_column_state_take_the_row_path(self):
        spec = qdnn.build_default_qdnn(8).circuit
        X = np.repeat(np.random.default_rng(4).normal(size=(36, 1)), 8, axis=1)
        assert qsim._span(spec, X[:35]) is None
        assert qsim._span(spec, X).radices == (9,)


class TestAdjointGradient:
    def test_matches_parameter_shift_on_random_circuits(self):
        seen_gates, seen_obs_counts, seen_sweep = set(), set(), set()
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = 8 if seed in (11, 40) else int(rng.integers(1, 5))
            n_feat = int(rng.integers(1, 4))
            spec = random_mixed_circuit(rng, n, int(rng.integers(4, 16)), n_feat)
            params = rng.uniform(-np.pi, np.pi, size=spec.n_params)
            n_obs = len(spec.observables)
            batched = seed % 2 == 1
            X = rng.normal(size=(int(rng.integers(2, 6)) if batched else 1, n_feat))
            cot = rng.normal(size=(len(X), n_obs))
            run, _ = qsim.run_circuit(spec, params, X)
            got = qsim.vjp(run, cot)
            oracle = np.zeros(spec.n_params)
            for o in range(n_obs):
                g = parameter_shift_grad(spec, params, X, observable_index=o)
                oracle += (cot[:, o, None] * g).sum(axis=0)
            assert got.shape == (spec.n_params,)
            assert np.max(np.abs(got - oracle), initial=0.0) <= 1e-12
            seen_gates |= gate_tags(spec)
            seen_obs_counts.add(min(n_obs, 2))
            seen_sweep |= {(tag, "batch" if batched else "batch of one")
                           for tag in sweep_tags(spec)}
        kinds = [(k, src) for k in qsim.ROTATION_KINDS for src in ("feature", "param")]
        assert seen_gates >= set(kinds) | {("cnot", "control above"), ("cnot", "control below")}
        assert seen_obs_counts == {1, 2}
        assert seen_sweep >= {
            ("two feature gates on one qubit", "batch"),
            ("prefix qubit with no feature gate", "batch"),
            ("trainable last block after a cnot", "batch"),
            ("cnot run between trainable blocks", "batch"),
            ("trainable block on some of the qubits", "batch"),
            (("qubits", 8), "batch"), (("qubits", 8), "batch of one")}

    def test_no_trainable_gate_gives_empty_gradient(self):
        spec = qsim.CircuitSpec(1, [[qsim.rx(0, feature=0)]], [0])
        run, _ = qsim.run_circuit(spec, [], [[0.3]])
        assert qsim.vjp(run, [[1.0]]).shape == (0,)

    def test_shape_mismatches_rejected(self):
        spec = qsim.CircuitSpec(2, [[qsim.rx(0, feature=0), qsim.ry(1, param=0)]],
                                [0, 1])
        X = np.zeros((3, 1))
        run, _ = qsim.run_circuit(spec, [0.2], X)
        with pytest.raises(ValueError, match="cotangent"):
            qsim.vjp(run, np.ones((3, 1)))
        with pytest.raises(ValueError, match="cotangent"):
            qsim.vjp(run, np.ones((2, 2)))


class TestNormPreservation:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_random_sequences_keep_norm(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        spec, p = random_circuit(rng, n, int(rng.integers(1, 5)))
        params = rng.uniform(-2 * np.pi, 2 * np.pi, size=p)
        run, _ = qsim.run_circuit(spec, params, NO_FEATURES)
        assert abs(np.vdot(run.states[0], run.states[0]).real - 1.0) < 1e-10


# numpy functions that hand their reduction to BLAS
BLAS_CALLS = {"dot", "matmul", "vdot", "inner", "tensordot"}


def blas_uses(source):
    """(line, what) for each BLAS entry point in ``source``: ``@``, a call
    of dot/matmul/vdot/inner/tensordot (as an np function or an array
    method) or of anything under np.linalg, and an np.einsum given an
    ``optimize`` argument (which may route its contractions through
    tensordot)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name = ast.unparse(node.func)
        if (node.func.attr in BLAS_CALLS or name.startswith("np.linalg.")
                or name == "np.einsum" and any(k.arg == "optimize" for k in node.keywords)):
            found.append((node.lineno, name))
    return sorted(found)


def test_simulator_makes_no_blas_call():
    # a BLAS reduction would make results depend on the BLAS thread count,
    # and a threaded BLAS call on a mid-sized batch can stall for
    # milliseconds; only a sampled bench-reg config would notice either
    source = (Path(qsim.__file__).parent / "qsim.py").read_text()
    assert blas_uses(source) == []


def test_blas_guard_sees_each_entry_point():
    source = "\n".join([
        "a = b @ c", "a @= b", "np.dot(a, b)", "x.dot(b)", "np.matmul(a, b)",
        "np.vdot(a, b)", "np.inner(a, b)", "np.tensordot(a, b)", "np.linalg.norm(a)",
        "np.einsum('ij,jk', a, b, optimize=True)",
        "np.einsum('ij,jk', a, b)", "a * b", "np.sum(a)"])
    assert [line for line, _ in blas_uses(source)] == list(range(1, 11))
