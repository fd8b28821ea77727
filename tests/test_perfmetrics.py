import numpy as np
import pytest

from qqual import perfmetrics as pm


class TestConfusion:
    def test_perfect_predictions_diagonal(self):
        cm = pm.confusion([0, 0, 1, 1], [0, 0, 1, 1])
        assert np.array_equal(cm, [[2, 0], [0, 2]])

    def test_rows_are_truth(self):
        # one sample: true 0 predicted 1 -> cm[0, 1]
        cm = pm.confusion([1], [0])
        assert np.array_equal(cm, [[0, 1], [0, 0]])

    def test_reconstructs_reference_matrix(self):
        truth = [0] * 71 + [1] * 79
        preds = [0] * 65 + [1] * 6 + [0] * 9 + [1] * 70
        cm = pm.confusion(preds, truth)
        assert np.array_equal(cm, [[65, 6], [9, 70]])
        assert cm.sum() == 150

    def test_validates_labels(self):
        with pytest.raises(ValueError):
            pm.confusion([0, 2], [0, 1])
        with pytest.raises(ValueError):
            pm.confusion([0], [0, 1])


class TestClassificationEfficiency:
    def test_reference_values(self):
        assert abs(pm.classification_efficiency([[65, 6], [9, 70]]) - 0.8998) <= 1e-4
        assert abs(pm.classification_efficiency([[70, 24], [4, 52]]) - 0.8151) <= 1e-4

    def test_perfect(self):
        assert pm.classification_efficiency([[5, 0], [0, 7]]) == 1.0

    def test_empty_predicted_class_named(self):
        with pytest.raises(ValueError, match="class 1"):
            pm.classification_efficiency([[5, 0], [3, 0]])
        with pytest.raises(ValueError, match="class 0"):
            pm.classification_efficiency([[0, 5], [0, 3]])

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            pm.classification_efficiency([[1, 2, 3], [4, 5, 6]])


class TestMReg:
    def test_identical_zero(self):
        xs = np.linspace(-2, 4, 100)
        ys = np.sin(xs)
        assert pm.m_reg(xs, ys, ys) == 0.0

    def test_constant_gap_exact(self):
        xs = np.linspace(-2.0, 4.0, 100)
        ys = np.cos(xs)
        assert pm.m_reg(xs, ys + 0.5, ys) == pytest.approx(3.0, abs=1e-12)

    def test_abs_x_refined_grid(self):
        xs = np.linspace(-2.0, 4.0, 1000)
        # integral of |x| over [-2, 4] is 2 + 8 = 10
        assert pm.m_reg(xs, np.abs(xs), np.zeros_like(xs)) == pytest.approx(10.0, abs=1e-4)

    def test_triangle_bound(self):
        rng = np.random.default_rng(0)
        xs = np.linspace(0, 1, 50)
        f, g, h = rng.normal(size=(3, 50))
        assert pm.m_reg(xs, f, h) <= pm.m_reg(xs, f, g) + pm.m_reg(xs, g, h) + 1e-12

    def test_scale_equivariance(self):
        xs = np.linspace(0, 2, 64)
        f = np.sin(3 * xs)
        g = np.cos(xs)
        base = pm.m_reg(xs, f, g)
        assert pm.m_reg(xs, 2.5 * f, 2.5 * g) == pytest.approx(2.5 * base, rel=1e-12)

    def test_grid_validated(self):
        with pytest.raises(ValueError):
            pm.m_reg([0.0, 1.0, 0.5], [0.0] * 3, [0.0] * 3)


class TestXi:
    def test_shifted_ratio(self):
        # positive when the classical error exceeds the quantum error
        assert pm.xi(2.0, 1.0) == 1.0
        assert pm.xi(1.0, 1.0) == 0.0
        assert pm.xi(0.0, 1.0) == -1.0

    def test_sign_tracks_winner(self):
        assert pm.xi(1.5, 1.0) > 0
        assert pm.xi(1.0, 1.5) < 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pm.xi(1.0, 0.0)
        with pytest.raises(ValueError):
            pm.xi(1.0, -2.0)
        with pytest.raises(ValueError):
            pm.xi(-1.0, 1.0)


class TestLedger:
    def test_ledger_row_order(self):
        # the strings bench-reg ledgers have always held: sorted meta keys, repr floats
        assert pm.LEDGER_COLUMNS == ["dataset", "epoch", "m_cdnn", "m_qdnn", "xi"]
        assert pm.ledger_row({"function_id": "cos4x", "sigma": 0.25, "seed": 123,
                              "x_lo": -2.0}, 50, 1.2, 0.6) == \
            ["function_id=cos4x;seed=123;sigma=0.25;x_lo=-2.0", 50, "1.2", "0.6", "1.0"]
        assert pm.ledger_row({}, 0, 0.1 + 0.2, 3.0) == \
            ["", 0, "0.30000000000000004", "3.0", "-0.9"]
        assert pm.ledger_row({"b": 1, "a": "z"}, 7, 2.0, 1 / 3) == \
            ["a=z;b=1", 7, "2.0", "0.3333333333333333", "5.0"]

    def test_ledger_row_xi_derived(self):
        assert pm.ledger_row({}, 1, 3.0, 1.5)[4] == "1.0"
        with pytest.raises(ValueError):
            pm.ledger_row({}, 1, 3.0, 0.0)


class TestDatasetLabel:
    @pytest.mark.parametrize("meta", [
        {"function_id": "cos4x", "sigma": 0.25, "n_points": 100, "x_lo": -2.0, "x_hi": 4.0,
         "seed": 123},
        {"kind": "3func", "n_pairs": 250, "n_features": 16, "noise": 0.05},
    ], ids=["bench-reg-meta", "bench-class-condition"])
    def test_round_trip(self, meta):
        label = pm.dataset_label(meta)
        parsed = pm.parse_dataset_label(label)
        assert list(parsed) == sorted(meta)
        assert parsed == {k: str(v) for k, v in meta.items()}
        assert pm.dataset_label(parsed) == label

    def test_parts_without_a_value_are_skipped(self):
        assert pm.parse_dataset_label("quad;sigma=0.1;;x=a=b") == {"sigma": "0.1", "x": "a=b"}
