"""Cross-section case study: ingest binned (Q2, xB, t, phi) data, build
noise-rescaled pseudodata against a toy harmonic model, run paired
classical/quantum extractions, and reduce the results to per-set
outperformance outcomes, and smooths them against t, over all sets and
inside fixed matched-control groups (``t_trends``).  Each replica trains
its pair through ``optim.fit_pair`` in one ``extract_cffs`` call; a
campaign cell returns its m values as one (replica, family, mark) array,
which ``run_campaign`` reduces to outcomes and the qualifier corpus.
``lam_map`` reduces one noise scale's outcomes to its regime map."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple
from zlib import crc32

import numpy as np

# complexity and qualifier are imported where they run, so that ingesting
# and validating data does not load them
from .optim import FAMILIES, TrainConfig, checkpoint_marks, fit_pair, pool_map
from .perfmetrics import m_reg, xi as xi_dvcs

CSV_HEADER = ["experiment", "E_beam", "Q2", "xB", "t", "phi", "F", "sigma_F"]

# kinematic envelopes (GeV / GeV^2) and published point counts of the four
# JLab unpolarized cross-section data sets the synthetic corpus mirrors
@dataclass(frozen=True)
class ExperimentEnvelope:
    e_beam: Tuple[float, float]
    q2: Tuple[float, float]
    minus_t: Tuple[float, float]
    xb: Tuple[float, float]
    n_points: int


EXPERIMENT_ENVELOPES: Dict[str, ExperimentEnvelope] = {
    "Hall_A_E12-06-114": ExperimentEnvelope((4.487, 10.992), (2.71, 8.51),
                                            (0.204, 1.373), (0.363, 0.617), 1080),
    "Hall_A_E07-007": ExperimentEnvelope((3.355, 5.55), (1.49, 2.0),
                                         (0.177, 0.363), (0.356, 0.361), 404),
    "Hall_A_E00-110": ExperimentEnvelope((5.75, 5.75), (1.82, 2.37),
                                         (0.171, 0.372), (0.336, 0.401), 468),
    "Hall_B_e1-DVCS1": ExperimentEnvelope((5.75, 5.75), (1.11, 3.77),
                                          (0.11, 0.45), (0.126, 0.475), 1933),
}

SYNTHETIC_SET_SIZE = 24
# phi grid (degrees) that extracted curves are projected and scored on
PHI_GRID = np.linspace(0.0, 360.0, 181)
PHI_GRID.flags.writeable = False
# fixed scales that put the kinematic features into O(1) for the networks
Q2_SCALE = 10.0
T_SCALE = 2.0
E_SCALE = 12.0
# the t-trend analysis: Gaussian kernel width (GeV^2), the number of
# relative-error quantile bins, and the share of sets with the most points
T_BANDWIDTH = 0.15
EPS_BINS = 3
DENSE_FRACTION = 0.5


class ModelFitError(ValueError):
    """Least-squares fit of the cross-section model is rank deficient."""


@dataclass
class KinematicSet:
    set_id: str
    experiment: str
    e_beam: float
    q2: float
    xb: float
    t: float
    phi: np.ndarray
    f: np.ndarray
    sigma_f: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=np.float64)
        self.f = np.asarray(self.f, dtype=np.float64)
        self.sigma_f = np.asarray(self.sigma_f, dtype=np.float64)
        if not (self.phi.shape == self.f.shape == self.sigma_f.shape) or self.phi.ndim != 1:
            raise ValueError(f"set {self.set_id}: phi, F, sigma_F must share one length")
        if len(self.phi) < 4:
            raise ValueError(f"set {self.set_id}: need >= 4 phi points")
        order = np.argsort(self.phi, kind="stable")
        self.phi = self.phi[order]
        self.f = self.f[order]
        self.sigma_f = self.sigma_f[order]
        if np.any(np.diff(self.phi) == 0):
            raise ValueError(f"set {self.set_id}: duplicate phi value")
        if np.any((self.phi < 0) | (self.phi >= 360)):
            raise ValueError(f"set {self.set_id}: phi must lie in [0, 360)")
        if np.any(self.sigma_f <= 0):
            raise ValueError(f"set {self.set_id}: sigma_F must be > 0")
        if self.q2 <= 0 or not 0 < self.xb < 1 or self.t >= 0 or self.e_beam <= 0:
            raise ValueError(f"set {self.set_id}: kinematics out of range")

    @property
    def kin(self) -> Tuple[float, float, float, float]:
        return (self.q2, self.xb, self.t, self.e_beam)

    @property
    def n_points(self) -> int:
        return len(self.phi)


def envelope_issues(kset: KinematicSet) -> List[str]:
    """Range violations against the published envelope for the set's
    experiment tag; empty for unknown tags."""
    env = EXPERIMENT_ENVELOPES.get(kset.experiment)
    if env is None:
        return []
    issues = []
    checks = [("E_beam", kset.e_beam, env.e_beam), ("Q2", kset.q2, env.q2),
              ("-t", -kset.t, env.minus_t), ("xB", kset.xb, env.xb)]
    for name, value, (lo, hi) in checks:
        if not lo - 1e-9 <= value <= hi + 1e-9:
            issues.append(f"{kset.set_id}: {name}={value:g} outside [{lo:g}, {hi:g}]")
    return issues


class ToyHarmonicModel:
    """F = A(kin) * (c0 + c1 cos(phi) + c2 cos(2 phi)) with the positive
    envelope A = 1 / (Q2 * (1 + |t|)); linear in the three parameters."""

    n_params = 3

    def envelope(self, kin) -> float:
        q2, _, t, _ = kin
        return 1.0 / (q2 * (1.0 + abs(t)))

    def design_matrix(self, kin, phi_deg) -> np.ndarray:
        rad = np.deg2rad(np.asarray(phi_deg, dtype=np.float64))
        a = self.envelope(kin)
        return a * np.column_stack([np.ones_like(rad), np.cos(rad), np.cos(2 * rad)])

    def evaluate(self, params, kin, phi_deg) -> np.ndarray:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters")
        return self.design_matrix(kin, phi_deg) @ params


def fit_params(model, kset: KinematicSet) -> np.ndarray:
    """Plain least-squares parameters of the model on the set's points."""
    design = model.design_matrix(kset.kin, kset.phi)
    params, _, rank, _ = np.linalg.lstsq(design, kset.f, rcond=None)
    if rank < model.n_params:
        raise ModelFitError(f"set {kset.set_id}: rank-deficient model fit")
    return params


def make_pseudodata(kset: KinematicSet, truth: np.ndarray, lam: float, seed
                    ) -> KinematicSet:
    """Replica of the set around its true values ``truth`` (the model at the
    set's least-squares parameters, on the set's phi points): pseudo F =
    truth + lam * sigma_F * N(0,1), pseudo sigma_F = lam * sigma_F.  With
    lam=0 the original uncertainties are kept so the set stays valid (the
    draws are exact either way)."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    rng = np.random.default_rng(seed)
    if lam > 0:
        pseudo_f = truth + lam * kset.sigma_f * rng.standard_normal(kset.n_points)
        pseudo_sigma = lam * kset.sigma_f
    else:
        pseudo_f = truth.copy()
        pseudo_sigma = kset.sigma_f.copy()
    return KinematicSet(kset.set_id, kset.experiment, kset.e_beam, kset.q2,
                        kset.xb, kset.t, kset.phi.copy(), pseudo_f, pseudo_sigma)


def point_features(kset: KinematicSet, phi_deg=None) -> np.ndarray:
    """Per-point network inputs: the first two phi harmonics plus the
    set's rescaled kinematics (constant within a set)."""
    phi = kset.phi if phi_deg is None else np.asarray(phi_deg, dtype=np.float64)
    rad = np.deg2rad(phi)
    n = len(phi)
    cols = [np.sin(rad), np.cos(rad), np.sin(2 * rad), np.cos(2 * rad),
            np.full(n, kset.q2 / Q2_SCALE), np.full(n, kset.xb),
            np.full(n, kset.t / T_SCALE), np.full(n, kset.e_beam / E_SCALE)]
    return np.column_stack(cols)


METRIC_RESAMPLE_N = 64


def set_metrics(phi, f) -> np.ndarray:
    """Data characteristics of one set's phi-dependence.  The binned
    points are linearly resampled onto a uniform grid first: the metric
    preconditions need more points than a typical set carries, and the
    frequency metrics need uniform spacing."""
    from .complexity import characterize

    phi = np.asarray(phi, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    order = np.argsort(phi, kind="stable")
    dense = np.linspace(phi[order][0], phi[order][-1], METRIC_RESAMPLE_N)
    return characterize(dense, np.interp(dense, phi[order], f[order]))


def extract_cffs(pseudo: KinematicSet, seed: int, cfg: TrainConfig, marks: Sequence[int],
                 grid_X: np.ndarray, design: np.ndarray) -> List[Optional[list]]:
    """Train the CDNN/QDNN pair on the set's points and, at each mark
    epoch, project each net's curve on PHI_GRID (inputs ``grid_X``) onto
    the model basis there (``design``) by least squares.  Returns, in
    FAMILIES order, each family's per-mark projections, or None where
    its training diverged."""
    return fit_pair("regression", seed, point_features(pseudo), pseudo.f, cfg, marks,
                    lambda net: np.linalg.lstsq(design, net.forward(grid_X), rcond=None)[0])


@dataclass
class DvcsOutcome:
    set_id: str
    experiment: str
    lam: float
    q2: float
    xb: float
    t: float
    e_beam: float
    n_points: int
    m_cdnn: float
    m_qdnn: float
    eps_bar: float
    ensemble: int
    n_failed: int = 0
    metrics: Tuple[float, ...] = ()
    qualifier_hat: Optional[float] = None
    xi_dvcs: float = field(init=False)

    def __post_init__(self):
        self.xi_dvcs = xi_dvcs(self.m_cdnn, self.m_qdnn)


def _rep_seed_seq(master: int, set_id: str, rep: int) -> np.random.SeedSequence:
    # lam is deliberately absent: replicas share one noise realization
    # across noise scales (common random numbers), so scale-to-scale
    # comparisons measure the scale effect, not draw-to-draw variance
    return np.random.SeedSequence([int(master), crc32(set_id.encode()), int(rep)])


def _campaign_cell(job: Tuple) -> Tuple[np.ndarray, Tuple[float, ...], float, List[int]]:
    """One (set, lam) campaign cell; module level so worker pools can
    dispatch it.  Returns m, the (converged replica, family, mark) array
    of integrals of |F_extracted - F_true| over PHI_GRID (cross-section
    unit x degrees; F_true is the model at the set's fitted parameters),
    the replica-mean metrics and eps_bar, and the diverged replicas."""
    kset, model, params, lam, ensemble, cfg, marks, seed = job
    truth = model.evaluate(params, kset.kin, kset.phi)
    denom = np.maximum(np.abs(truth), 1e-12)
    # pseudodata keep the set's kinematics: one grid serves every replica
    grid_X = point_features(kset, PHI_GRID)
    design = model.design_matrix(kset.kin, PHI_GRID)
    truth_grid = design @ params
    ms, metric_rows, eps_vals, diverged = [], [], [], []
    for rep in range(ensemble):
        pseudo_seq, train_seq = _rep_seed_seq(seed, kset.set_id, rep).spawn(2)
        pseudo = make_pseudodata(kset, truth, lam, pseudo_seq)
        train_seed = int(train_seq.generate_state(1)[0] & 0x7FFFFFFF)
        cffs = extract_cffs(pseudo, train_seed, cfg, marks, grid_X, design)
        if any(c is None for c in cffs):
            diverged.append(rep)
            continue
        ms.append([[m_reg(PHI_GRID, design @ row, truth_grid) for row in fam_cffs]
                   for fam_cffs in cffs])
        metric_rows.append(set_metrics(pseudo.phi, pseudo.f))
        eps_vals.append(float(np.mean(pseudo.sigma_f / denom)))
    m = np.array(ms).reshape(len(ms), len(FAMILIES), len(marks))
    if not ms:
        return m, (), math.nan, diverged
    return (m, tuple(float(v) for v in np.mean(metric_rows, axis=0)),
            float(np.mean(eps_vals)), diverged)


def run_campaign(sets: Sequence[KinematicSet], model, lams: Sequence[float],
                 ensemble: int, cfg: TrainConfig, seed: int,
                 epoch_checkpoints: Sequence[int] = (), n_workers: int = 1
                 ) -> Tuple[List[DvcsOutcome], Dict]:
    """Paired extractions per (set, lam): each replica draws one pseudo
    set that both families train on, m values are ensemble means over the
    replicas where both extractions converge, and the outperformance is
    formed from the mean m values.  Replica seeds derive from (seed,
    set_id, replica), so outcomes are invariant to the ordering of the
    input sets and to the worker count.  Each set's model is fitted once;
    per-set fit failures are reported and skipped.  The checkpoints are
    taken as given: sorted, without repeats.

    A replica where either family diverges is dropped at every mark and
    counted in n_failed, so a run read at an earlier mark equals the run
    that ends there only when neither run has a diverged replica.

    The report carries a qualifier corpus: per (set, lam) the ensemble
    mean data characteristics of the pseudodata, paired with the ensemble
    mean outperformance at each checkpoint epoch."""
    from .qualifier import QualifierCorpusEntry

    if not sets:
        raise ValueError("need at least one kinematic set")
    if ensemble < 1:
        raise ValueError("ensemble must be >= 1")
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    marks = checkpoint_marks(cfg.epochs, epoch_checkpoints)
    corpus_marks = [k for k, n in enumerate(marks) if n in epoch_checkpoints]
    outcomes: List[DvcsOutcome] = []
    report: Dict = {"failed_fits": [], "diverged": [], "qualifier_corpus": []}
    jobs = []
    for kset in sets:
        try:
            params = fit_params(model, kset)
        except ModelFitError as exc:
            report["failed_fits"].append(str(exc))
            continue
        jobs += [(kset, model, params, lam, ensemble, cfg, marks, seed) for lam in lams]
    cells = pool_map(_campaign_cell, jobs, n_workers)
    for (kset, _, _, lam, *_), (m, metrics, eps_bar, diverged) in zip(jobs, cells):
        report["diverged"].extend((kset.set_id, lam, rep) for rep in diverged)
        if not len(m):
            report["failed_fits"].append(f"set {kset.set_id} lam={lam:g}: "
                                         f"all {ensemble} replicas diverged")
            continue
        # one 1-D mean per (family, mark): m.mean(axis=0) sums 8 or more
        # replicas in another order, which moves the last digits
        mc, mq = ([float(np.mean(m[:, f, k])) for k in range(len(marks))] for f in (0, 1))
        outcomes.append(DvcsOutcome(
            set_id=kset.set_id, experiment=kset.experiment, lam=lam,
            q2=kset.q2, xb=kset.xb, t=kset.t, e_beam=kset.e_beam,
            n_points=kset.n_points, m_cdnn=mc[-1], m_qdnn=mq[-1], eps_bar=eps_bar,
            ensemble=len(m), n_failed=len(diverged), metrics=metrics))
        for k in corpus_marks:
            if mq[k] > 0:
                report["qualifier_corpus"].append(QualifierCorpusEntry(
                    metrics=metrics, xi=xi_dvcs(mc[k], mq[k]), epoch=marks[k]))
    return outcomes, report


@dataclass
class TrendResult:
    ts: np.ndarray
    xis: np.ndarray
    grid: Optional[np.ndarray]
    trend: Optional[np.ndarray]
    crossings: Tuple[float, ...]


def t_trend(outcomes: Sequence[DvcsOutcome]) -> TrendResult:
    """Outperformance against t, smoothed by Gaussian-kernel (width
    T_BANDWIDTH) local linear regression on a 101-point grid; with fewer
    than 5 distinct t values only the raw scatter is returned (grid and
    trend None)."""
    if not outcomes:
        raise ValueError("need at least one outcome")
    ts = np.asarray([o.t for o in outcomes], dtype=np.float64)
    xis = np.asarray([o.xi_dvcs for o in outcomes], dtype=np.float64)
    # a set, not np.unique: its first call imports numpy.ma, ~10 ms per process
    if len(set(ts.tolist())) < 5:
        return TrendResult(ts, xis, None, None, ())
    grid_n = 101
    grid = np.linspace(ts.min(), ts.max(), grid_n)
    trend = np.empty(grid_n)
    for i, t0 in enumerate(grid):
        w = np.exp(-0.5 * ((ts - t0) / T_BANDWIDTH) ** 2)
        sw = w.sum()
        if sw <= 1e-12:
            trend[i] = np.nan
            continue
        dt = ts - t0
        # weighted linear fit evaluated at t0 (its intercept)
        a11, a12 = sw, float(w @ dt)
        a22 = float(w @ (dt * dt))
        b1, b2 = float(w @ xis), float(w @ (dt * xis))
        det = a11 * a22 - a12 * a12
        if abs(det) < 1e-14 * max(a11 * a22, 1e-300):
            trend[i] = b1 / sw
        else:
            trend[i] = (b1 * a22 - b2 * a12) / det
    crossings = []
    for i in range(grid_n - 1):
        y0, y1 = trend[i], trend[i + 1]
        if np.isfinite(y0) and np.isfinite(y1) and y0 * y1 < 0:
            crossings.append(float(grid[i] - y0 * (grid[i + 1] - grid[i]) / (y1 - y0)))
        elif y0 == 0.0 and (i == 0 or trend[i - 1] != 0.0):
            crossings.append(float(grid[i]))
    return TrendResult(ts, xis, grid, trend, tuple(crossings))


def _linear_quantiles(values: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """``np.quantile(values, qs)`` for qs in [0, 1] by numpy's default
    (linear) method, bit for bit: np.quantile imports numpy.ma on its first
    call, ~10 ms per process.  As numpy does, it partitions a copy of the
    values around the neighbours of each v = (n - 1) q (from v = n - 1 on,
    the last value on both sides), which orders tied values such as -0.0
    and 0.0 as numpy does, and interpolates from the nearer neighbour."""
    ordered = np.array(values, dtype=np.float64)
    virtual = (len(ordered) - 1) * qs
    top = virtual >= len(ordered) - 1
    below = np.where(top, -1.0, np.floor(virtual))
    above = np.where(top, -1.0, below + 1)
    ordered.partition(sorted({0, -1, *below.astype(int).tolist(), *above.astype(int).tolist()}))
    if np.isnan(ordered[-1]):  # a NaN sorts last and makes every quantile NaN
        return np.full(len(qs), np.nan)
    lo, hi = ordered[below.astype(np.intp)], ordered[above.astype(np.intp)]
    t = virtual - below
    diff = hi - lo
    return np.where(t >= 0.5, hi - diff * (1 - t), lo + diff * t)


def t_trends(outcomes: Sequence[DvcsOutcome]
             ) -> Tuple[List[Tuple[str, TrendResult]], List[str]]:
    """(label, t-trend) pairs and notes: the trend of all sets first, then
    the trend inside each matched-control group, namely the EPS_BINS
    relative-error quantile bins and the DENSE_FRACTION of sets with the
    most points.  A group with fewer than 5 sets is omitted with a note."""
    outcomes = list(outcomes)
    if not outcomes:
        raise ValueError("need at least one outcome")
    groups: Dict[str, List[DvcsOutcome]] = {}
    eps = np.asarray([o.eps_bar for o in outcomes])
    edges = _linear_quantiles(eps, np.linspace(0.0, 1.0, EPS_BINS + 1))
    for i in range(EPS_BINS):
        lo, hi = edges[i], edges[i + 1]
        sel = (eps >= lo) & ((eps <= hi) if i == EPS_BINS - 1 else (eps < hi))
        groups[f"eps_bin_{i + 1}_of_{EPS_BINS}"] = [o for o, s in zip(outcomes, sel) if s]
    ranked = sorted(outcomes, key=lambda o: (-o.n_points, o.set_id))
    groups[f"densest_{DENSE_FRACTION:g}"] = ranked[:math.ceil(DENSE_FRACTION * len(ranked))]
    trends = [("all sets", t_trend(outcomes))]
    notes: List[str] = []
    for label, members in groups.items():
        if len(members) < 5:
            notes.append(f"group {label}: only {len(members)} sets, omitted")
        else:
            trends.append((label, t_trend(members)))
    return trends, notes


def span_issue(points) -> str:
    """Why (Q2, xB) points span no area to map on, or "" when they do."""
    from .geometry import delaunay

    try:
        delaunay(points)
    except ValueError as exc:
        return str(exc)
    return ""


def lam_map(job: Tuple):
    """One noise scale's regime map, for the job (lam, its outcomes, grid
    resolution, smoothing width, whether the outcomes carry a qualifier
    hat): a warning when the outcomes cannot be mapped, else a dict of
    the xi surface, the zero contours of xi and of xi_hat (none without
    a hat; xi_hat's surface is not kept), the stats.csv statistics in row
    order, and the t-trends with their notes.  A pure function of its
    job, so it can run in a pool worker."""
    from .geometry import (ScatterField, area_fractions, build_surface, sign_agreement,
                           zero_contour)

    lam, outcomes, resolution, smoothing, with_hat = job
    if len(outcomes) < 3:
        return f"lam={lam:g}: only {len(outcomes)} outcomes, maps skipped"
    xs, ys = np.array([o.q2 for o in outcomes]), np.array([o.xb for o in outcomes])
    issue = span_issue(np.column_stack([xs, ys]))
    if issue:
        return f"lam={lam:g}: outcome points cannot be mapped ({issue}), maps skipped"
    xi_grid = build_surface(ScatterField(xs, ys, np.array([o.xi_dvcs for o in outcomes])),
                            resolution, smoothing)
    if not xi_grid.mask.any():  # the hat grid, on the same points, has the same mask
        return (f"lam={lam:g}: no grid point lies in the outcome points' "
                "triangulation, maps skipped")
    stats = dict(zip(("area_xi_positive", "area_xi_negative"), area_fractions(xi_grid)))
    hat_contours = []
    if with_hat:
        hat_grid = build_surface(ScatterField(xs, ys,
                                              np.array([o.qualifier_hat for o in outcomes])),
                                 resolution, smoothing)
        stats.update(zip(("area_xi_hat_positive", "area_xi_hat_negative"),
                         area_fractions(hat_grid)))
        stats["sign_agreement_xi_vs_xi_hat"] = sign_agreement(xi_grid, hat_grid)
        hat_contours = zero_contour(hat_grid)
    stats["sign_agreement_xi_vs_xi_self_check"] = sign_agreement(xi_grid, xi_grid)
    trends, notes = t_trends(outcomes)
    return {"lam": lam, "xi_grid": xi_grid, "xi_contours": zero_contour(xi_grid),
            "hat_contours": hat_contours, "stats": stats, "trends": trends, "notes": notes}


OUTCOME_COLUMNS = ["set_id", "experiment", "lam", "Q2", "xB", "t", "E_beam",
                   "n_points", "ensemble", "n_failed", "eps_bar",
                   "m_cdnn", "m_qdnn", "xi_dvcs", "qualifier_hat"]


def outcome_row(o: DvcsOutcome) -> list:
    """One ledger.csv row of an outcome, in OUTCOME_COLUMNS order."""
    return [o.set_id, o.experiment, repr(float(o.lam)), repr(float(o.q2)),
            repr(float(o.xb)), repr(float(o.t)), repr(float(o.e_beam)),
            o.n_points, o.ensemble, o.n_failed, repr(float(o.eps_bar)),
            repr(float(o.m_cdnn)), repr(float(o.m_qdnn)), repr(float(o.xi_dvcs)),
            "" if o.qualifier_hat is None else repr(float(o.qualifier_hat))]


def ingest(path) -> List[KinematicSet]:
    """Parse one data file and group its points into kinematic sets keyed
    by (experiment, Q2, xB, t).  Errors carry the offending line number."""
    groups: Dict[Tuple, Dict] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return []
        if header != CSV_HEADER:
            raise ValueError(f"expected header {','.join(CSV_HEADER)}, "
                             f"got {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise ValueError(f"line {lineno}: expected {len(CSV_HEADER)} fields")
            exp = row[0]
            try:
                e_beam, q2, xb, t, phi, f, sigma = (float(v) for v in row[1:])
            except ValueError:
                raise ValueError(f"line {lineno}: non-numeric field") from None
            if sigma <= 0:
                raise ValueError(f"line {lineno}: sigma_F must be > 0")
            key = (exp, q2, xb, t)
            entry = groups.setdefault(key, {"e_beam": e_beam, "phi": [], "f": [],
                                            "sigma": [], "lines": {}})
            if entry["e_beam"] != e_beam:
                raise ValueError(f"line {lineno}: mixed E_beam within one "
                                 f"(experiment, Q2, xB, t) group")
            if phi in entry["lines"]:
                raise ValueError(f"line {lineno}: duplicate phi {phi:g} "
                                 f"(first at line {entry['lines'][phi]})")
            entry["lines"][phi] = lineno
            entry["phi"].append(phi)
            entry["f"].append(f)
            entry["sigma"].append(sigma)
    sets = []
    for (exp, q2, xb, t), entry in groups.items():
        set_id = f"{exp}:Q2={q2:g}:xB={xb:g}:t={t:g}"
        sets.append(KinematicSet(set_id, exp, entry["e_beam"], q2, xb, t,
                                 np.asarray(entry["phi"]), np.asarray(entry["f"]),
                                 np.asarray(entry["sigma"])))
    return sets


def synthetic_experiment(experiment: str, seed: int = 0) -> List[KinematicSet]:
    """Schema-valid synthetic sets matching one experiment's envelope and
    published point count; the relative error grows with |t| plus jitter,
    and the harmonic coefficients keep F strictly positive."""
    env = EXPERIMENT_ENVELOPES[experiment]
    model = ToyHarmonicModel()
    n_full, rem = divmod(env.n_points, SYNTHETIC_SET_SIZE)
    sizes = [SYNTHETIC_SET_SIZE] * n_full + ([rem] if rem else [])
    rng = np.random.default_rng(np.random.SeedSequence([seed, crc32(experiment.encode())]))
    t_lo, t_hi = env.minus_t
    sets = []
    for idx, size in enumerate(sizes):
        e_beam = float(rng.uniform(*env.e_beam))
        q2 = float(rng.uniform(*env.q2))
        minus_t = float(rng.uniform(t_lo, t_hi))
        xb = float(rng.uniform(*env.xb))
        t = -minus_t
        phi = np.arange(size) * (360.0 / size) + 180.0 / size
        c0 = rng.uniform(1.5, 3.0)
        c1 = c0 * rng.uniform(-0.4, 0.4)
        c2 = c0 * rng.uniform(-0.25, 0.25)
        kin = (q2, xb, t, e_beam)
        f_model = model.evaluate(np.array([c0, c1, c2]), kin, phi)
        rel = (0.04 + 0.18 * (minus_t - t_lo) / max(t_hi - t_lo, 1e-12)
               + 0.04 * rng.uniform(size=size))
        sigma = rel * f_model
        f_data = f_model + sigma * rng.standard_normal(size)
        f_data = np.maximum(f_data, 0.1 * f_model)
        set_id = f"{experiment}:synthetic_{idx:03d}"
        sets.append(KinematicSet(set_id, experiment, e_beam, q2, xb, t,
                                 phi, f_data, sigma))
    return sets


def synthetic_corpus(seed: int = 0) -> List[KinematicSet]:
    sets = []
    for experiment in EXPERIMENT_ENVELOPES:
        sets.extend(synthetic_experiment(experiment, seed))
    return sets
