import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qqual import cdnn, dvcs, optim, qdnn, qsim
from qqual.optim import TrainConfig, TrainingDivergence
from qqual.perfmetrics import m_reg

MODEL = dvcs.ToyHarmonicModel()
KIN = (2.0, 0.35, -0.3, 5.75)


def make_set(params=(2.5, 0.8, -0.4), n=24, rel_sigma=0.05, set_id="unit",
             experiment="toy", kin=KIN):
    phi = np.arange(n) * (360.0 / n) + 180.0 / n
    f = MODEL.evaluate(np.asarray(params, dtype=float), kin, phi)
    q2, xb, t, e_beam = kin
    return dvcs.KinematicSet(set_id, experiment, e_beam, q2, xb, t,
                             phi, f, rel_sigma * np.abs(f))


def true_values(kset, phi=None):
    """The model at the set's least-squares parameters, on its own phi
    points or on ``phi``."""
    return MODEL.evaluate(dvcs.fit_params(MODEL, kset), kset.kin,
                          kset.phi if phi is None else phi)


def pseudodata(kset, lam, seed):
    return dvcs.make_pseudodata(kset, true_values(kset), lam, seed)


def extract(pseudo, family, seed, epochs, checkpoints=()):
    """The family's projections from dvcs.extract_cffs with the set's own
    PHI_GRID inputs and model basis, read at the checkpoints and the final
    epoch."""
    pair = dvcs.extract_cffs(pseudo, seed, TrainConfig(epochs=epochs),
                             optim.checkpoint_marks(epochs, checkpoints),
                             dvcs.point_features(pseudo, dvcs.PHI_GRID),
                             MODEL.design_matrix(pseudo.kin, dvcs.PHI_GRID))
    return pair[optim.FAMILIES.index(family)]


def serialize_sets(sets, path):
    """Inverse of dvcs.ingest: one point per row under the exact header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(dvcs.CSV_HEADER)
        for s in sets:
            for phi, f, sigma in zip(s.phi, s.f, s.sigma_f):
                writer.writerow([s.experiment, repr(float(s.e_beam)),
                                 repr(float(s.q2)), repr(float(s.xb)),
                                 repr(float(s.t)), repr(float(phi)),
                                 repr(float(f)), repr(float(sigma))])


def degenerate_set():
    # cos(phi) takes only two distinct values, so the model design has rank 2
    phi = np.array([80.0, 100.0, 260.0, 280.0])
    return dvcs.KinematicSet("degenerate", "toy", 5.75, 2.0, 0.3, -0.4,
                             phi, np.array([1.0, 1.1, 1.2, 1.3]), np.full(4, 0.1))


class TestKinematicSet:
    def test_points_sorted_by_phi(self):
        kset = dvcs.KinematicSet("s", "x", 5.75, 2.0, 0.3, -0.4,
                                 [270.0, 90.0, 180.0, 10.0],
                                 [4.0, 2.0, 3.0, 1.0], [0.4, 0.2, 0.3, 0.1])
        assert kset.phi.tolist() == [10.0, 90.0, 180.0, 270.0]
        assert kset.f.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert kset.sigma_f.tolist() == [0.1, 0.2, 0.3, 0.4]

    def test_kin_and_n_points(self):
        kset = make_set()
        assert kset.kin == KIN
        assert kset.n_points == 24

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            dvcs.KinematicSet("s", "x", 5.75, 2.0, 0.3, -0.4,
                              [0.0, 90.0, 180.0], [1.0, 1.0, 1.0],
                              [0.1, 0.1, 0.1])

    def test_duplicate_phi(self):
        with pytest.raises(ValueError, match="duplicate"):
            dvcs.KinematicSet("s", "x", 5.75, 2.0, 0.3, -0.4,
                              [0.0, 90.0, 90.0, 180.0], np.ones(4), np.full(4, 0.1))

    def test_phi_range(self):
        with pytest.raises(ValueError, match="phi"):
            dvcs.KinematicSet("s", "x", 5.75, 2.0, 0.3, -0.4,
                              [0.0, 90.0, 180.0, 360.0], np.ones(4), np.full(4, 0.1))

    def test_sigma_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            dvcs.KinematicSet("s", "x", 5.75, 2.0, 0.3, -0.4,
                              [0.0, 90.0, 180.0, 270.0], np.ones(4),
                              [0.1, 0.0, 0.1, 0.1])

    def test_kinematic_ranges(self):
        phi, f, sig = [0.0, 90.0, 180.0, 270.0], np.ones(4), np.full(4, 0.1)
        for q2, xb, t, e in [(-1.0, 0.3, -0.4, 5.75), (2.0, 1.2, -0.4, 5.75),
                             (2.0, 0.3, 0.4, 5.75), (2.0, 0.3, -0.4, -1.0)]:
            with pytest.raises(ValueError, match="kinematics"):
                dvcs.KinematicSet("s", "x", e, q2, xb, t, phi, f, sig)


class TestSyntheticCorpus:
    def test_counts_match_published(self):
        counts = {exp: sum(s.n_points for s in dvcs.synthetic_experiment(exp))
                  for exp in dvcs.EXPERIMENT_ENVELOPES}
        assert counts == {"Hall_A_E12-06-114": 1080, "Hall_A_E07-007": 404,
                          "Hall_A_E00-110": 468, "Hall_B_e1-DVCS1": 1933}
        assert sum(counts.values()) == 3885

    def test_corpus_within_envelopes(self):
        for kset in dvcs.synthetic_corpus(seed=0):
            assert dvcs.envelope_issues(kset) == []

    def test_out_of_range_flagged(self):
        kset = make_set(experiment="Hall_A_E00-110", kin=(9.0, 0.35, -0.3, 5.75))
        issues = dvcs.envelope_issues(kset)
        assert len(issues) == 1 and "Q2" in issues[0]

    def test_unknown_tag_unchecked(self):
        assert dvcs.envelope_issues(make_set(kin=(99.0, 0.9, -9.0, 50.0))) == []

    def test_seeded_reproducibility(self):
        a = dvcs.synthetic_experiment("Hall_A_E07-007", seed=3)
        b = dvcs.synthetic_experiment("Hall_A_E07-007", seed=3)
        c = dvcs.synthetic_experiment("Hall_A_E07-007", seed=4)
        assert all(np.array_equal(x.f, y.f) for x, y in zip(a, b))
        assert not np.array_equal(a[0].f, c[0].f)


class TestToyModel:
    def test_constant_without_higher_harmonics(self):
        phi = np.linspace(0.0, 359.0, 40)
        f = MODEL.evaluate([2.0, 0.0, 0.0], KIN, phi)
        assert np.ptp(f) == 0.0
        assert f[0] == pytest.approx(2.0 * MODEL.envelope(KIN))

    def test_harmonic_orthogonality(self):
        # closed uniform grid: the oscillating terms integrate to zero
        phi = np.linspace(0.0, 360.0, 73)
        f = MODEL.evaluate([2.5, 0.8, -0.4], KIN, phi)
        dc = 2.5 * MODEL.envelope(KIN)
        assert abs(np.trapezoid(f - dc, phi)) < 1e-10

    def test_linear_least_squares_recovery(self):
        params = np.array([2.5, 0.8, -0.4])
        kset = make_set(params=params)
        fitted = dvcs.fit_params(MODEL, kset)
        assert np.abs(fitted - params).max() < 1e-6

    def test_param_count_enforced(self):
        with pytest.raises(ValueError):
            MODEL.evaluate([1.0, 2.0], KIN, [0.0, 90.0])

    def test_rank_deficient_fit(self):
        with pytest.raises(dvcs.ModelFitError):
            dvcs.fit_params(MODEL, degenerate_set())


class TestPseudodata:
    def test_lam_zero_keeps_truth(self):
        kset = make_set()
        truth = true_values(kset)
        pseudo = dvcs.make_pseudodata(kset, truth, 0.0, seed=5)
        assert np.array_equal(pseudo.f, truth)
        assert np.array_equal(pseudo.sigma_f, kset.sigma_f)

    def test_seed_reproducibility(self):
        kset = make_set()
        a = pseudodata(kset, 1.0, seed=5)
        b = pseudodata(kset, 1.0, seed=5)
        c = pseudodata(kset, 1.0, seed=6)
        assert np.array_equal(a.f, b.f)
        assert not np.array_equal(a.f, c.f)

    def test_sigma_rescaled(self):
        kset = make_set()
        pseudo = pseudodata(kset, 2.0, seed=5)
        assert np.allclose(pseudo.sigma_f, 2.0 * kset.sigma_f, atol=1e-15)
        assert pseudo.kin == kset.kin

    def test_ensemble_mean_approaches_truth(self):
        kset = make_set()
        lam, n_rep = 1.0, 1000
        truth = true_values(kset)
        total = np.zeros(kset.n_points)
        for rep in range(n_rep):
            pseudo = dvcs.make_pseudodata(kset, truth, lam, seed=1000 + rep)
            total += pseudo.f
        bound = 3.0 * lam * kset.sigma_f / np.sqrt(n_rep)
        assert np.all(np.abs(total / n_rep - truth) < bound)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            pseudodata(make_set(), -0.5, seed=0)


class TestExtraction:
    def test_zero_epoch_deterministic(self):
        kset = make_set()
        pseudo = pseudodata(kset, 0.0, seed=0)
        for family in ("cdnn", "qdnn"):
            a = extract(pseudo, family, 3, 0)
            b = extract(pseudo, family, 3, 0)
            assert np.array_equal(a, b)
            assert a is not None and np.all(np.isfinite(a))

    def test_checkpoints_recorded(self):
        pseudo = pseudodata(make_set(), 0.0, seed=0)
        res = extract(pseudo, "cdnn", 1, 5, checkpoints=(1, 3, 5))
        assert len(res) == 3  # marks 1, 3, 5
        for cffs in res:
            assert cffs.shape == (3,) and np.all(np.isfinite(cffs))
        # reading the checkpoints does not move the final projection
        assert np.array_equal(res[-1], extract(pseudo, "cdnn", 1, 5)[0])

    def test_final_epoch_checkpoint_projects_once(self, monkeypatch):
        # one forward on the 181-point phi grid per distinct projection epoch
        grid_rows = []

        def counting(build):
            def built(*args, **kwargs):
                net = build(*args, **kwargs)
                forward = net.forward

                def counted(X):
                    if len(X) == 181:
                        grid_rows.append(type(net).__name__)
                    return forward(X)

                net.forward = counted
                return net
            return built

        monkeypatch.setattr(cdnn, "build_default_cdnn", counting(cdnn.build_default_cdnn))
        monkeypatch.setattr(qdnn, "build_default_qdnn", counting(qdnn.build_default_qdnn))
        pseudo = pseudodata(make_set(), 0.0, seed=0)
        # one extraction trains both families: three grid forwards each
        res = extract(pseudo, "qdnn", 1, 3, checkpoints=(1, 2, 3))
        assert sorted(grid_rows) == ["MlpModel"] * 3 + ["QdnnModel"] * 3
        assert len(res) == 3  # the final epoch is the checkpoint-3 row
        grid_rows.clear()
        extract(pseudo, "qdnn", 1, 3, checkpoints=(1, 2))
        assert sorted(grid_rows) == ["MlpModel"] * 3 + ["QdnnModel"] * 3

    def test_qdnn_projections_simulate_the_span_of_the_grid_rows(self, monkeypatch):
        # the grid's 181 rows vary only in the four phi harmonics, so each
        # QDNN projection runs 2**4 basis states through the circuit, and
        # training on a 12-point set runs 12 rows
        rows = []
        apply = qsim._apply_2x2

        def recording(psi, u):
            rows.append(psi.shape[0])
            apply(psi, u)

        monkeypatch.setattr(qsim, "_apply_2x2", recording)
        pseudo = pseudodata(make_set(n=12), 0.0, seed=0)
        assert len(extract(pseudo, "qdnn", 1, 2, checkpoints=(1,))) == 2
        assert max(rows) == 16

    def test_noiseless_cdnn_recovery(self, monkeypatch):
        # the QDNN of each pair stops at its first step: 300 QDNN epochs
        # would cost more than the rest of this file, and a diverged family
        # leaves the other's run untouched (TestFitPair in test_optim.py)
        monkeypatch.setattr(qdnn.QdnnModel, "loss_and_grad",
                            lambda self, X, y, loss: (np.nan, np.zeros(self.params.size)))
        kset = make_set()
        pseudo = pseudodata(kset, 0.0, seed=0)
        grid = dvcs.PHI_GRID
        truth = true_values(kset, grid)
        bound = 0.05 * float(np.mean(truth)) * 360.0
        wins = 0
        for seed in range(10):
            res = extract(pseudo, "cdnn", seed, 300)
            pred = MODEL.evaluate(res[-1], kset.kin, grid)
            if m_reg(grid, pred, truth) < bound:
                wins += 1
        assert wins >= 8

    @pytest.mark.slow
    def test_noiseless_qdnn_recovery(self):
        kset = make_set()
        pseudo = pseudodata(kset, 0.0, seed=0)
        grid = dvcs.PHI_GRID
        truth = true_values(kset, grid)
        bound = 0.05 * float(np.mean(truth)) * 360.0
        wins = 0
        for seed in range(10):
            res = extract(pseudo, "qdnn", seed, 60)
            pred = MODEL.evaluate(res[-1], kset.kin, grid)
            if m_reg(grid, pred, truth) < bound:
                wins += 1
        assert wins >= 8


class TestMDvcs:
    # dvcs scores an extraction with perfmetrics.m_reg on a phi grid in degrees
    def test_identical_curves(self):
        grid = np.linspace(0.0, 360.0, 50)
        f = np.sin(np.deg2rad(grid)) + 2.0
        assert m_reg(grid, f, f) == 0.0

    def test_constant_gap(self):
        grid = np.linspace(0.0, 360.0, 37)
        assert m_reg(grid, np.full(37, 1.25), np.ones(37)) == pytest.approx(
            360.0 * 0.25, abs=1e-10)

    def test_refinement_oracle(self):
        # nonnegative piecewise-linear gap: the trapezoid rule is exact once
        # the grid contains the kinks, so refinement must agree
        knots = np.array([0.0, 60.0, 180.0, 300.0, 360.0])
        gap = np.array([0.0, 2.0, 0.5, 1.5, 0.0])
        coarse = m_reg(knots, gap, np.zeros_like(gap))
        fine_grid = np.linspace(0.0, 360.0, 100001)
        fine = m_reg(fine_grid, np.interp(fine_grid, knots, gap),
                     np.zeros_like(fine_grid))
        assert coarse == pytest.approx(fine, rel=1e-6)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            m_reg(np.linspace(0, 360, 5), np.ones(5), np.ones(4))
        with pytest.raises(ValueError):
            m_reg(np.array([0.0, 90.0, 90.0]), np.ones(3), np.ones(3))


class TestOutcome:
    def outcome(self, m_c, m_q):
        return dvcs.DvcsOutcome(set_id="s", experiment="x", lam=1.0, q2=2.0,
                                xb=0.3, t=-0.4, e_beam=5.75, n_points=24,
                                m_cdnn=m_c, m_qdnn=m_q, eps_bar=0.1, ensemble=1)

    def test_xi_derived_from_means(self):
        assert self.outcome(2.0, 1.0).xi_dvcs == pytest.approx(1.0)
        assert self.outcome(1.5, 1.5).xi_dvcs == 0.0
        assert self.outcome(1.0, 2.0).xi_dvcs == pytest.approx(-0.5)

    def test_sign_tracks_winner(self):
        assert self.outcome(3.0, 1.0).xi_dvcs > 0  # quantum fits closer
        assert self.outcome(1.0, 3.0).xi_dvcs < 0


class TestCampaign:
    @classmethod
    def setup_class(cls):
        cls.sets = dvcs.synthetic_experiment("Hall_A_E07-007", seed=0)[:2]
        cls.cfg = TrainConfig(epochs=2)
        cls.out, cls.report = dvcs.run_campaign(
            cls.sets, MODEL, lams=(0.5, 2.0), ensemble=2, cfg=cls.cfg, seed=11,
            epoch_checkpoints=(1, 2))

    def test_reorder_invariance(self):
        out_rev, _ = dvcs.run_campaign(
            list(reversed(self.sets)), MODEL, lams=(0.5, 2.0), ensemble=2,
            cfg=self.cfg, seed=11, epoch_checkpoints=(1, 2))
        a = {(o.set_id, o.lam): o for o in self.out}
        b = {(o.set_id, o.lam): o for o in out_rev}
        assert set(a) == set(b)
        for key in a:
            assert a[key].m_cdnn == b[key].m_cdnn
            assert a[key].m_qdnn == b[key].m_qdnn
            assert a[key].metrics == b[key].metrics

    def test_lam_changes_noise_only(self):
        by_set = {}
        for o in self.out:
            by_set.setdefault(o.set_id, {})[o.lam] = o
        for pair in by_set.values():
            lo, hi = pair[0.5], pair[2.0]
            assert (lo.q2, lo.xb, lo.t, lo.e_beam) == (hi.q2, hi.xb, hi.t, hi.e_beam)
            assert hi.eps_bar == pytest.approx(4.0 * lo.eps_bar, rel=1e-12)

    def test_ensemble_means_and_counts(self):
        assert len(self.out) == 4
        for o in self.out:
            assert o.ensemble == 2 and o.n_failed == 0
            assert len(o.metrics) == 5 and np.all(np.isfinite(o.metrics))
            assert o.m_cdnn > 0 and o.m_qdnn > 0 and np.isfinite(o.xi_dvcs)

    def test_qualifier_corpus_collected(self):
        corpus = self.report["qualifier_corpus"]
        assert len(corpus) == 8  # 2 sets x 2 lams x 2 checkpoints
        assert sorted({e.epoch for e in corpus}) == [1, 2]
        assert all(np.isfinite(e.xi) for e in corpus)

    def test_single_replica_matches_manual_pipeline(self):
        kset = self.sets[0]
        out, _ = dvcs.run_campaign([kset], MODEL, lams=(1.0,), ensemble=1,
                                   cfg=TrainConfig(epochs=1), seed=7)
        seq = dvcs._rep_seed_seq(7, kset.set_id, 0)
        pseudo_seq, train_seq = seq.spawn(2)
        pseudo = pseudodata(kset, 1.0, pseudo_seq)
        train_seed = int(train_seq.generate_state(1)[0] & 0x7FFFFFFF)
        grid = dvcs.PHI_GRID
        truth = true_values(kset, grid)
        for family, got in (("cdnn", out[0].m_cdnn), ("qdnn", out[0].m_qdnn)):
            res = extract(pseudo, family, train_seed, 1)
            pred = MODEL.evaluate(res[-1], kset.kin, grid)
            assert m_reg(grid, pred, truth) == got
        denom = np.maximum(np.abs(true_values(kset)), 1e-12)
        assert out[0].eps_bar == float(np.mean(pseudo.sigma_f / denom))

    def test_fits_each_set_once(self, monkeypatch):
        # the replicas of every lam reuse the one least-squares fit of a set
        calls = []
        fit_params = dvcs.fit_params

        def counted(model, kset):
            calls.append(kset.set_id)
            return fit_params(model, kset)

        monkeypatch.setattr(dvcs, "fit_params", counted)
        dvcs.run_campaign(self.sets, MODEL, lams=(0.5, 2.0), ensemble=2,
                          cfg=TrainConfig(epochs=0), seed=11)
        assert calls == [s.set_id for s in self.sets]

    def test_worker_pool_matches_serial(self):
        out_pool, report_pool = dvcs.run_campaign(
            self.sets, MODEL, lams=(0.5, 2.0), ensemble=2, cfg=self.cfg, seed=11,
            epoch_checkpoints=(1, 2), n_workers=2)
        assert len(out_pool) == len(self.out)
        for a, b in zip(self.out, out_pool):
            assert a.m_cdnn == b.m_cdnn and a.m_qdnn == b.m_qdnn
            assert a.metrics == b.metrics
        assert [(e.epoch, e.xi) for e in report_pool["qualifier_corpus"]] == \
               [(e.epoch, e.xi) for e in self.report["qualifier_corpus"]]

    def test_cell_builds_its_phi_grid_once(self, monkeypatch):
        # the grid inputs and model basis are the set's, shared by every
        # replica, family and mark
        built = []
        features = dvcs.point_features

        def counted_features(kset, phi_deg=None):
            if phi_deg is not None:
                built.append("features")
            return features(kset, phi_deg)

        class CountedModel(dvcs.ToyHarmonicModel):
            def design_matrix(self, kin, phi_deg):
                if len(phi_deg) == len(dvcs.PHI_GRID):
                    built.append("design")
                return super().design_matrix(kin, phi_deg)

        monkeypatch.setattr(dvcs, "point_features", counted_features)
        kset = self.sets[0]
        m, _, _, _ = dvcs._campaign_cell((kset, CountedModel(), dvcs.fit_params(MODEL, kset),
                                          1.0, 3, TrainConfig(epochs=2), [1, 2], 11))
        assert m.shape == (3, 2, 2)
        assert sorted(built) == ["design", "features"]

    def test_short_run_is_a_prefix_of_a_long_one(self):
        # with no divergence, an 8-epoch cell read at epoch 3 is the
        # 3-epoch cell, bitwise, so one run serves every shorter budget
        for kset in dvcs.synthetic_experiment("Hall_A_E07-007", seed=0)[:3]:
            params = dvcs.fit_params(MODEL, kset)
            for lam in (0.5, 2.0):
                long_m, _, _, long_div = dvcs._campaign_cell(
                    (kset, MODEL, params, lam, 2, TrainConfig(epochs=8), [3, 8], 11))
                short_m, _, _, short_div = dvcs._campaign_cell(
                    (kset, MODEL, params, lam, 2, TrainConfig(epochs=3), [3], 11))
                assert long_div == short_div == []
                assert long_m.shape == (2, 2, 2) and short_m.shape == (2, 2, 1)
                assert np.array_equal(long_m[:, :, 0], short_m[:, :, -1])

    def test_diverged_replica_absent_at_every_mark(self, monkeypatch):
        # replica 1's cdnn (the third fit of the cell) diverges right after
        # mark 2 has been read: the replica is dropped at mark 2 as well
        kset = self.sets[0]
        params = dvcs.fit_params(MODEL, kset)
        cfg = TrainConfig(epochs=4)
        job = (kset, MODEL, params, 1.0, 3, cfg, [2, 4], 11)
        clean_m, _, _, clean_div = dvcs._campaign_cell(job)
        assert clean_div == [] and clean_m.shape == (3, 2, 2)
        fits = []
        real_fit = optim.fit

        def flaky_fit(model, X, y, loss, cfg, marks, probe):
            fits.append(1)
            if len(fits) % 6 != 3:
                return real_fit(model, X, y, loss, cfg, marks, probe)

            def stop_after_mark(m):
                # marks are [2, 4], so the first read is mark 2's
                probe(m)
                raise TrainingDivergence(2, 0.0)

            return real_fit(model, X, y, loss, cfg, marks, stop_after_mark)

        monkeypatch.setattr(optim, "fit", flaky_fit)
        m, _, _, diverged = dvcs._campaign_cell(job)
        assert diverged == [1] and len(fits) == 6
        assert np.array_equal(m, clean_m[[0, 2]])
        out, report = dvcs.run_campaign([kset], MODEL, lams=(1.0,), ensemble=3, cfg=cfg,
                                        seed=11, epoch_checkpoints=(2, 4))
        assert report["diverged"] == [(kset.set_id, 1.0, 1)]
        assert out[0].ensemble == 2 and out[0].n_failed == 1
        assert out[0].m_cdnn == float(np.mean(clean_m[[0, 2], 0, -1]))
        at_2 = [e.xi for e in report["qualifier_corpus"] if e.epoch == 2]
        assert at_2 == [float(np.mean(clean_m[[0, 2], 0, 0]))
                        / float(np.mean(clean_m[[0, 2], 1, 0])) - 1.0]

    def test_unfittable_set_skipped_with_report(self):
        out, report = dvcs.run_campaign(
            [degenerate_set(), self.sets[0]], MODEL, lams=(1.0,), ensemble=1,
            cfg=TrainConfig(epochs=1), seed=2)
        assert len(out) == 1 and out[0].set_id == self.sets[0].set_id
        assert len(report["failed_fits"]) == 1
        assert "degenerate" in report["failed_fits"][0]

    def test_validation(self):
        with pytest.raises(ValueError):
            dvcs.run_campaign([], MODEL, lams=(1.0,), ensemble=1, cfg=self.cfg, seed=11)
        with pytest.raises(ValueError):
            dvcs.run_campaign(self.sets, MODEL, lams=(1.0,), ensemble=0,
                              cfg=self.cfg, seed=11)


def trend_outcome(set_id, t, xi_value, eps_bar=0.1, n_points=24):
    # m_qdnn pinned to 1 makes xi_dvcs equal m_cdnn - 1
    out = dvcs.DvcsOutcome(set_id=set_id, experiment="x", lam=1.0, q2=2.0,
                           xb=0.3, t=t, e_beam=5.75, n_points=n_points,
                           m_cdnn=xi_value + 1.0, m_qdnn=1.0, eps_bar=eps_bar,
                           ensemble=1)
    return out


class TestTTrend:
    def test_linear_crossing_recovered(self):
        ts = np.linspace(-1.4, -0.2, 25)
        outs = [trend_outcome(f"s{i}", t, t + 0.8) for i, t in enumerate(ts)]
        trend = dvcs.t_trend(outs)
        assert trend.grid is not None
        assert len(trend.crossings) == 1
        assert abs(trend.crossings[0] + 0.8) <= 0.05

    def test_constant_flat_no_crossing(self):
        ts = np.linspace(-1.4, -0.2, 20)
        outs = [trend_outcome(f"s{i}", t, 0.4) for i, t in enumerate(ts)]
        trend = dvcs.t_trend(outs)
        assert np.ptp(trend.trend) < 1e-12
        assert trend.crossings == ()

    def test_few_distinct_t_raw_only(self):
        outs = [trend_outcome(f"s{i}", -0.5 - 0.1 * (i % 4), 0.1) for i in range(12)]
        trend = dvcs.t_trend(outs)
        assert trend.trend is None and trend.grid is None
        assert len(trend.ts) == 12 and len(trend.xis) == 12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dvcs.t_trend([])


class TestMatchedControls:
    """The matched-control groups that ``t_trends`` smooths after all sets."""

    def linear_outcomes(self):
        ts = np.linspace(-1.4, -0.2, 30)
        return [trend_outcome(f"s{i}", t, t + 0.8, eps_bar=0.05 + 0.01 * i,
                              n_points=20 + i) for i, t in enumerate(ts)]

    def test_confounded_bins_go_flat(self):
        # outperformance depends only on the relative error, so controlling
        # for it must remove the apparent t-dependence
        rng = np.random.default_rng(0)
        outs = []
        for i in range(30):
            eps = (0.1, 0.2, 0.3)[i % 3]
            outs.append(trend_outcome(f"c{i}", float(rng.uniform(-1.4, -0.2)),
                                      10.0 * eps, eps_bar=eps))
        trends, notes = dvcs.t_trends(outs)
        assert notes == []
        assert [label for label, _ in trends] == [
            "all sets", "eps_bin_1_of_3", "eps_bin_2_of_3", "eps_bin_3_of_3", "densest_0.5"]
        assert np.ptp(trends[0][1].trend) > 1e-3
        for _, trend in trends[1:4]:
            assert np.ptp(trend.trend) < 1e-9

    def test_thin_groups_omitted_with_note(self):
        outs = self.linear_outcomes()[:8]
        trends, notes = dvcs.t_trends(outs)
        # three relative-error bins of 2-3 sets and the densest 4 sets
        assert [label for label, _ in trends] == ["all sets"]
        assert len(notes) == 4 and all("omitted" in n for n in notes)
        assert np.allclose(trends[0][1].trend, dvcs.t_trend(outs).trend)

    def test_validation(self):
        with pytest.raises(ValueError):
            dvcs.t_trends([])

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
        # ties, signed zeros and short inputs
        st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 2.0]), min_size=1, max_size=6)),
        st.lists(st.floats(0.0, 1.0), max_size=6))
    def test_quantiles_equal_numpys_bit_for_bit(self, values, qs):
        values = np.array(values)
        for q in (np.linspace(0.0, 1.0, dvcs.EPS_BINS + 1), np.array(qs)):
            assert dvcs._linear_quantiles(values, q).tobytes() == np.quantile(values, q).tobytes()


class TestIngest:
    def write_experiment(self, tmp_path, experiment, seed):
        path = tmp_path / f"{experiment}.csv"
        serialize_sets(dvcs.synthetic_experiment(experiment, seed), path)
        return path

    def test_full_corpus_counts(self, tmp_path):
        per_experiment = {}
        for exp in dvcs.EXPERIMENT_ENVELOPES:
            for s in dvcs.ingest(self.write_experiment(tmp_path, exp, 0)):
                per_experiment[s.experiment] = per_experiment.get(s.experiment, 0) + s.n_points
        assert sum(per_experiment.values()) == 3885
        assert per_experiment == {
            "Hall_A_E12-06-114": 1080, "Hall_A_E07-007": 404,
            "Hall_A_E00-110": 468, "Hall_B_e1-DVCS1": 1933}

    def test_single_file_counts(self, tmp_path):
        path = self.write_experiment(tmp_path, "Hall_A_E12-06-114", 0)
        sets = dvcs.ingest(path)
        assert sum(s.n_points for s in sets) == 1080
        assert all(s.experiment == "Hall_A_E12-06-114" for s in sets)

    def test_round_trip_lossless(self, tmp_path):
        path = self.write_experiment(tmp_path, "Hall_A_E00-110", 1)
        first = dvcs.ingest(path)
        again_path = tmp_path / "again.csv"
        serialize_sets(first, again_path)
        second = dvcs.ingest(again_path)
        a = sorted(first, key=lambda s: s.set_id)
        b = sorted(second, key=lambda s: s.set_id)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert (x.set_id, x.experiment) == (y.set_id, y.experiment)
            assert (x.e_beam, x.q2, x.xb, x.t) == (y.e_beam, y.q2, y.xb, y.t)
            assert np.array_equal(x.phi, y.phi)
            assert np.array_equal(x.f, y.f)
            assert np.array_equal(x.sigma_f, y.sigma_f)

    def write_rows(self, path, rows, header=None):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(dvcs.CSV_HEADER if header is None else header)
            writer.writerows(rows)

    def good_row(self, phi, e_beam=5.75):
        return ["exp", e_beam, 2.0, 0.3, -0.4, phi, 1.0, 0.1]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert dvcs.ingest(path) == []
        self.write_rows(path, [])  # a header and no rows
        assert dvcs.ingest(path) == []

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_rows(path, [], header=["a", "b"])
        with pytest.raises(ValueError, match="header"):
            dvcs.ingest(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_rows(path, [self.good_row(0.0), ["exp", 5.75, 2.0]])
        with pytest.raises(ValueError, match="line 3"):
            dvcs.ingest(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = self.good_row(10.0)
        row[6] = "not-a-number"
        self.write_rows(path, [self.good_row(0.0), row])
        with pytest.raises(ValueError, match="line 3"):
            dvcs.ingest(path)

    def test_bad_sigma_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        row = self.good_row(10.0)
        row[7] = -0.1
        self.write_rows(path, [self.good_row(0.0), row])
        with pytest.raises(ValueError, match="line 3.*sigma"):
            dvcs.ingest(path)

    def test_duplicate_phi_names_both_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_rows(path, [self.good_row(0.0), self.good_row(90.0),
                               self.good_row(0.0)])
        with pytest.raises(ValueError, match="line 4.*line 2"):
            dvcs.ingest(path)

    def test_mixed_beam_energy_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        self.write_rows(path, [self.good_row(0.0), self.good_row(90.0, e_beam=6.0)])
        with pytest.raises(ValueError, match="line 3.*E_beam"):
            dvcs.ingest(path)

    def test_outcomes_csv(self):
        # the ledger.csv bytes of two outcomes, with and without a qualifier_hat
        a = trend_outcome("a", -0.4, 0.1 + 0.2, eps_bar=1 / 3)
        b = trend_outcome("b", -0.8, -0.1, n_points=7)
        b.qualifier_hat = -2.5e-17
        rows = [dvcs.outcome_row(a), dvcs.outcome_row(b)]
        assert all(len(row) == len(dvcs.OUTCOME_COLUMNS) for row in rows)
        buf = io.StringIO(newline="")
        csv.writer(buf).writerows(rows)
        assert buf.getvalue() == (
            "a,x,1.0,2.0,0.3,-0.4,5.75,24,1,0,0.3333333333333333,1.3,1.0,"
            "0.30000000000000004,\r\n"
            "b,x,1.0,2.0,0.3,-0.8,5.75,7,1,0,0.1,0.9,1.0,-0.09999999999999998,-2.5e-17\r\n")


class TestSetMetrics:
    def test_resamples_to_required_length(self):
        kset = make_set()
        vals = dvcs.set_metrics(kset.phi, kset.f)
        assert vals.shape == (5,) and np.all(np.isfinite(vals))

    def test_order_invariant(self):
        rng = np.random.default_rng(2)
        kset = make_set()
        perm = rng.permutation(kset.n_points)
        a = dvcs.set_metrics(kset.phi, kset.f)
        b = dvcs.set_metrics(kset.phi[perm], kset.f[perm])
        assert np.array_equal(a, b)
