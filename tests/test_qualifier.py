import json

import numpy as np
import pytest

from qqual import qualifier as qf
from qqual.complexity import METRIC_NAMES


def metrics_at_centerings(table):
    return np.array(table.centerings)


class TestReferenceTable:
    def test_constants(self):
        t = qf.reference_table()
        assert t.alpha == 0.0101
        assert t.coefficients[0][0] == -1.17
        assert t.coefficients[3][0] == 0.548
        assert t.coefficients[4][4] == 2.03e-17
        assert t.centerings == (0.25, 24.5, 0.95, -0.05, 4999.5)

    def test_row_lengths(self):
        t = qf.reference_table()
        assert [len(r) for r in t.coefficients] == [3, 5, 5, 5, 5]


class TestEvalQualifier:
    def test_centered_metrics_zero(self):
        t = qf.reference_table()
        m = metrics_at_centerings(t)
        for epoch in (0, 1, 10, 57):
            assert qf.eval_qualifier(t, m, epoch) == 0.0

    def test_unit_nonlinearity_epoch_zero(self):
        t = qf.reference_table()
        m = metrics_at_centerings(t)
        m[0] += 1.0
        assert qf.eval_qualifier(t, m, 0) == pytest.approx(-1.17, abs=1e-12)

    def test_unit_nonlinearity_epoch_100(self):
        t = qf.reference_table()
        m = metrics_at_centerings(t)
        m[0] += 1.0
        # exp(-1.01) * (-1.17 + 0.0163*100 - 2.65e-5*1e4)
        assert qf.eval_qualifier(t, m, 100) == pytest.approx(0.0710, abs=1e-4)

    def test_linear_in_each_offset(self):
        t = qf.reference_table()
        base = metrics_at_centerings(t)
        for j in range(5):
            m1 = base.copy()
            m1[j] += 0.75
            m2 = base.copy()
            m2[j] += 1.5
            v1 = qf.eval_qualifier(t, m1, 13)
            v2 = qf.eval_qualifier(t, m2, 13)
            if v1 != 0.0:
                assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_coefficient_scaling_scales_value(self):
        t = qf.reference_table()
        doubled = qf.QualifierTable(
            alpha=t.alpha, centerings=t.centerings,
            coefficients=tuple(tuple(2.0 * c for c in row) for row in t.coefficients))
        m = np.array([0.5, 30.0, 1.2, 0.3, 4200.0])
        assert qf.eval_qualifier(doubled, m, 20) == pytest.approx(
            2.0 * qf.eval_qualifier(t, m, 20), rel=1e-12)


class TestSign:
    def test_dead_band_boundary(self):
        t = qf.reference_table()
        m = metrics_at_centerings(t)
        assert qf.sign_of_qualifier(qf.eval_qualifier(t, m, 5)) == qf.BOUNDARY

    def test_positive_negative(self):
        t = qf.reference_table()
        m = metrics_at_centerings(t)
        m[0] += 1.0  # row-1 at n=0 gives -1.17
        assert qf.sign_of_qualifier(qf.eval_qualifier(t, m, 0)) == qf.CDNN_FAVORED
        assert qf.sign_of_qualifier(qf.eval_qualifier(t, m, 100)) == qf.QDNN_FAVORED


class TestTableSerialization:
    def test_round_trip(self, tmp_path):
        t = qf.reference_table()
        path = tmp_path / "table.json"
        qf.save_table(t, path)
        back = qf.table_from_doc(json.loads(path.read_text()))
        assert back.alpha == t.alpha
        assert back.centerings == t.centerings
        assert back.coefficients == t.coefficients

    def test_doc_row_order_by_name(self):
        t = qf.reference_table()
        doc = qf.table_to_doc(t)
        assert [row["metric"] for row in doc["rows"]] == list(METRIC_NAMES)
        shuffled = dict(doc)
        shuffled["rows"] = list(reversed(doc["rows"]))
        back = qf.table_from_doc(shuffled)
        assert back.coefficients == t.coefficients

    def test_validation(self):
        with pytest.raises(ValueError):
            qf.QualifierTable(alpha=0.01, centerings=(0, 0, 0, 0, 0),
                              coefficients=((1, 2), (1,), (1,), (1,), (1,)))
        with pytest.raises(ValueError):
            qf.QualifierTable(alpha=np.nan, centerings=(0, 0, 0, 0, 0),
                              coefficients=((0, 0, 0), (0,) * 5, (0,) * 5,
                                            (0,) * 5, (0,) * 5))


def synth_corpus(table, epochs, per_epoch, seed, active=3, spread=1.0):
    """Corpus whose xi values come from the table itself with only one
    metric varying; refitting should recover that row."""
    rng = np.random.default_rng(seed)
    entries = []
    for ep in epochs:
        for _ in range(per_epoch):
            m = np.array(table.centerings, dtype=float)
            m[active] += rng.uniform(-spread, spread)
            entries.append(qf.QualifierCorpusEntry(
                metrics=tuple(m), xi=qf.eval_qualifier(table, m, ep), epoch=ep))
    return entries


class TestFitQualifier:
    def test_round_trip_rms_small(self):
        ref = qf.reference_table()
        epochs = (1, 5, 10, 20, 40)
        corpus = synth_corpus(ref, epochs, per_epoch=400, seed=0, active=3)
        fitted, diag = qf.fit_qualifier(corpus)
        errs = []
        for e in corpus:
            errs.append(qf.eval_qualifier(fitted, np.array(e.metrics), e.epoch) - e.xi)
        rms = float(np.sqrt(np.mean(np.square(errs))))
        assert rms <= 1e-2
        # constant metrics are excluded and zeroed
        assert set(diag["excluded"]) == {"nonlinearity", "frequency_complexity",
                                         "fractal_dimension", "fourier_complexity"}
        assert all(c == 0.0 for j in (0, 1, 2) for c in fitted.coefficients[j])

    def test_null_corpus_zero_coefficients(self):
        # independent xi: every R^2 sits in the sampling-noise band below
        # the weight floor, so all rows zero out
        rng = np.random.default_rng(1)
        entries = []
        for ep in (1, 5, 10):
            for _ in range(400):
                m = rng.uniform(-1, 1, size=5) + np.array([0.25, 24.5, 0.95, -0.05, 4999.5])
                entries.append(qf.QualifierCorpusEntry(
                    metrics=tuple(m), xi=rng.normal(), epoch=ep))
        fitted, diag = qf.fit_qualifier(entries)
        flat = [c for row in fitted.coefficients for c in row]
        assert diag["r2"].max() < 0.1
        assert max(abs(c) for c in flat) == 0.0

    def test_single_metric_slope_recovery(self):
        # xi = 2 * X4 at every epoch: slope 2 per epoch, r2 = 1
        rng = np.random.default_rng(2)
        entries = []
        for ep in (2, 4, 8):
            for _ in range(30):
                m = np.array([0.25, 24.5, 0.95, -0.05, 4999.5])
                x = rng.uniform(-1, 1)
                m[3] += x
                entries.append(qf.QualifierCorpusEntry(
                    metrics=tuple(m), xi=2.0 * x, epoch=ep))
        fitted, diag = qf.fit_qualifier(entries)
        slopes = diag["slopes"][3]
        assert np.allclose(slopes, 2.0, atol=1e-10)
        for e in entries:
            got = qf.eval_qualifier(fitted, np.array(e.metrics), e.epoch)
            assert got == pytest.approx(e.xi, abs=1e-6)

    def test_constant_xi_epoch_has_zero_r2(self):
        # an epoch whose xi never varies carries no signal: R^2 0, weight 0
        rng = np.random.default_rng(5)
        entries = []
        for ep in (2, 4, 8):
            for _ in range(30):
                m = np.array([0.25, 24.5, 0.95, -0.05, 4999.5])
                x = rng.uniform(-1, 1)
                m[3] += x
                entries.append(qf.QualifierCorpusEntry(
                    metrics=tuple(m), xi=0.5 if ep == 4 else 2.0 * x, epoch=ep))
        _, diag = qf.fit_qualifier(entries)
        assert np.all(diag["r2"][:, 1] == 0.0)
        assert np.all(diag["weights"][:, 1] == 0.0)
        assert diag["r2"][3, 0] == pytest.approx(1.0)
        assert diag["r2"][3, 2] == pytest.approx(1.0)

    def test_corpus_validation(self):
        ref = qf.reference_table()
        few_epochs = synth_corpus(ref, (1, 5), per_epoch=10, seed=3)
        with pytest.raises(ValueError):
            qf.fit_qualifier(few_epochs)
        thin = synth_corpus(ref, (1, 5, 10), per_epoch=5, seed=4)
        with pytest.raises(ValueError):
            qf.fit_qualifier(thin)

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            qf.QualifierCorpusEntry(metrics=(0, 0, 0, 0, 0), xi=1.0, epoch=0)
        with pytest.raises(ValueError):
            qf.QualifierCorpusEntry(metrics=(0, 0, 0), xi=1.0, epoch=3)
