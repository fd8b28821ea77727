"""Config resolution, subcommand outputs, and exit codes of the qqual CLI."""

import copy
import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import qqual
from qqual import cdnn, cli, geometry, qdnn, qsim
from qqual import dvcs as dv


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_csv_dicts(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_fresh_interpreter(script, *args):
    """Run `script` in a new interpreter that imports this qqual; return
    the JSON its last stdout line holds."""
    src = str(Path(qqual.__file__).resolve().parents[1])
    env = dict(os.environ, QQUAL_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestConfigResolution:
    def test_every_command_has_complete_defaults(self):
        assert set(cli.DEFAULTS) == set(cli.COMMANDS)
        for block in cli.DEFAULTS.values():
            assert "seed" in block
            assert "out_dir" in block

    def test_file_merge_and_flag_override(self, tmp_path):
        cfg = write_cfg(tmp_path, {"qualify": {"sigmas": [0.5], "round_trip": False}})
        args = cli.build_parser().parse_args(["qualify", "--config", cfg, "--seed", "9"])
        block = cli.resolve_config("qualify", args)
        assert block["sigmas"] == [0.5]
        assert block["round_trip"] is False
        assert block["seed"] == 9
        # untouched fields keep their defaults
        assert block["epochs"] == cli.DEFAULTS["qualify"]["epochs"]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {"qualify": {"sigma": [0.5]}})
        args = cli.build_parser().parse_args(["qualify", "--config", cfg])
        with pytest.raises(cli.ConfigError, match="unknown key"):
            cli.resolve_config("qualify", args)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {"qualifier": {}})
        args = cli.build_parser().parse_args(["qualify", "--config", cfg])
        with pytest.raises(cli.ConfigError, match="unknown config section"):
            cli.resolve_config("qualify", args)

    def test_type_mismatch_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {"qualify": {"n_points": "many"}})
        args = cli.build_parser().parse_args(["qualify", "--config", cfg])
        with pytest.raises(cli.ConfigError, match="integer"):
            cli.resolve_config("qualify", args)

    def test_int_accepted_for_float_field(self, tmp_path):
        cfg = write_cfg(tmp_path, {"dvcs": {"smoothing": 2}})
        args = cli.build_parser().parse_args(["dvcs", "--config", cfg])
        block = cli.resolve_config("dvcs", args)
        assert block["smoothing"] == 2.0
        assert isinstance(block["smoothing"], float)

    def test_bad_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code = cli.main(["qualify", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG

    # lambda_values was never a key; the other five were, and are now constants
    @pytest.mark.parametrize("command, key", [
        ("dvcs", "lambda_values"),
        ("bench-reg", "x_range"),
        ("qualify", "x_range"),
        ("dvcs", "bandwidth"),
        ("dvcs", "quantile_bins"),
        ("dvcs", "density_fraction"),
    ], ids=lambda v: v)
    def test_unknown_key_exit_code(self, tmp_path, capsys, command, key):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, {command: {key: [1.0]}})
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert f"unknown key {command}.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, block", [
        ("bench-reg", {"epochs": -1}),
        ("bench-reg", {"sigmas": ["a"]}),
        ("dvcs", {"lams": ["a"]}),
        ("bench-class", {"learning_rate": 0}),
        ("qualify", {"n_points": 10}),
        ("bench-reg", {"functions": ["quad", "cos4x", "quad"]}),
        ("bench-reg", {"sigmas": [0.1, 0.1]}),
        ("dvcs", {"lams": [1.0, 1.0, 0.0]}),
        ("qualify", {"epochs": [10, 25, 10]}),
        ("dvcs", {"smoothing": -2.0}),
        ("bench-class", {"ensemble": 0}),
        ("bench-reg", {"functions": []}),
        ("bench-reg", {"sigmas": []}),
        ("dvcs", {"lams": []}),
        # past the Fourier transform window, after seconds of O(n^2) mutual information
        ("qualify", {"n_points": 20_001}),
    ], ids=["bench-reg-negative-epochs", "bench-reg-text-sigma", "dvcs-text-lam", "bench-class-zero-learning-rate", "qualify-10-points",
            "bench-reg-repeated-function", "bench-reg-repeated-sigma", "dvcs-repeated-lam",
            "qualify-repeated-epoch", "dvcs-negative-smoothing", "bench-class-zero-ensemble",
            "bench-reg-no-function", "bench-reg-no-sigma", "dvcs-no-lam",
            "qualify-20001-points"])
    def test_bad_value_is_config_error_before_any_output(self, tmp_path, command, block):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, {command: block})
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert not (out / "ledger.csv").exists()

    def test_unknown_command_raises_systemexit_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2


class TestWorkerCount:
    def test_env_caps_request(self, monkeypatch):
        monkeypatch.setenv("QQUAL_THREADS", "2")
        assert cli.worker_count(0) == 2
        assert cli.worker_count(1) == 1
        assert cli.worker_count(8) == 2

    def test_unset_env_uses_cores(self, monkeypatch):
        monkeypatch.delenv("QQUAL_THREADS", raising=False)
        assert cli.worker_count(1) == 1
        assert cli.worker_count(0) >= 1

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("QQUAL_THREADS", "zebra")
        with pytest.raises(cli.ConfigError):
            cli.worker_count(0)
        monkeypatch.setenv("QQUAL_THREADS", "0")
        with pytest.raises(cli.ConfigError):
            cli.worker_count(0)

    def test_invalid_env_is_config_exit(self, monkeypatch, tmp_path):
        monkeypatch.setenv("QQUAL_THREADS", "-3")
        code = cli.main(["bench-class", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG


class TestValidateData:
    def test_bundled_corpus_counts_and_clean_exit(self, tmp_path):
        out = tmp_path / "vd"
        assert cli.main(["validate-data", "--out", str(out)]) == cli.EXIT_OK
        rows = read_csv(out / "ledger.csv")
        assert rows[0] == ["experiment", "n_sets", "n_points", "n_issues"]
        counts = {r[0]: int(r[2]) for r in rows[1:]}
        assert counts.pop("TOTAL") == 3885
        assert sorted(counts.values()) == [404, 468, 1080, 1933]
        assert (out / "resolved_config.json").exists()
        assert "CLEAN" in (out / "report.md").read_text()

    def test_envelope_violation_named_and_exit_1(self, tmp_path):
        path = tmp_path / "data.csv"
        lines = ["experiment,E_beam,Q2,xB,t,phi,F,sigma_F"]
        for phi in (30.0, 90.0, 150.0, 210.0):
            lines.append(f"Hall_A_E00-110,5.75,2.0,0.9,-0.25,{phi},0.1,0.01")
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "vd"
        assert cli.main(["validate-data", str(path), "--out", str(out)]) == cli.EXIT_VALIDATION
        report = (out / "report.md").read_text()
        assert "xB" in report
        assert "ISSUES FOUND" in report

    def test_unparseable_kinematics_reported_and_exit_1(self, tmp_path):
        path = tmp_path / "data.csv"
        lines = ["experiment,E_beam,Q2,xB,t,phi,F,sigma_F"]
        for phi in (30.0, 90.0, 150.0, 210.0):
            lines.append(f"toy,5.75,2.0,1.2,-0.25,{phi},0.1,0.01")
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "vd"
        assert cli.main(["validate-data", str(path), "--out", str(out)]) == cli.EXIT_VALIDATION
        assert "xB" in (out / "report.md").read_text()

    def test_empty_file_zero_counts_clean_with_warning(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        out = tmp_path / "vd"
        assert cli.main(["validate-data", str(path), "--out", str(out)]) == cli.EXIT_OK
        rows = read_csv(out / "ledger.csv")
        assert rows[-1][:3] == ["TOTAL", "0", "0"]
        report = (out / "report.md").read_text()
        assert "no data rows" in report

    def test_missing_file_reported_and_exit_1(self, tmp_path):
        out = tmp_path / "vd"
        code = cli.main(["validate-data", str(tmp_path / "nope.csv"), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION


class TestQualify:
    def test_round_trip_alpha_echo_and_centered_rows(self, tmp_path):
        out = tmp_path / "q"
        cfg = write_cfg(tmp_path, {"qualify": {"functions": ["quad"], "sigmas": [0.1],
                                               "epochs": [5, 10, 20]}})
        assert cli.main(["qualify", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        report = (out / "report.md").read_text()
        assert "alpha = 0.0101" in report
        assert "PASS" in report
        rows = read_csv_dicts(out / "ledger.csv")
        centered = [r for r in rows if r["dataset"] == "centered_reference"]
        assert len(centered) == 3
        assert all(float(r["xi_hat"]) == 0.0 for r in centered)
        assert all(r["sign"] == "boundary" for r in centered)
        assert (out / "predictions.svg").exists()

    def test_refit_from_regression_ledger(self, tmp_path):
        br = tmp_path / "br"
        cfg = write_cfg(tmp_path, {"bench-reg": {
            "functions": sorted(["quad", "cos4x", "tanh3x", "two_tone", "sin2x_quad",
                                 "damped_cos4x"]),
            "sigmas": [0.25], "epochs": 3, "checkpoints": [1, 2, 3], "n_points": 48}})
        assert cli.main(["bench-reg", "--config", cfg, "--out", str(br)]) == cli.EXIT_OK
        out = tmp_path / "q"
        cfg2 = write_cfg(tmp_path, {"qualify": {
            "refit_ledger": str(br / "ledger.csv"), "functions": ["quad"],
            "sigmas": [0.1], "round_trip": False}}, name="cfg2.json")
        assert cli.main(["qualify", "--config", cfg2, "--out", str(out)]) == cli.EXIT_OK
        assert (out / "qualifier_refit.json").exists()
        assert "Ledger refit" in (out / "report.md").read_text()

    def test_missing_refit_ledger_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, {"qualify": {"refit_ledger": str(tmp_path / "nope.csv")}})
        code = cli.main(["qualify", "--config", cfg, "--out", str(tmp_path / "q")])
        assert code == cli.EXIT_CONFIG

    def test_too_small_refit_ledger_is_config_error_before_any_output(self, tmp_path):
        # two checkpoint epochs, where the refit needs three
        br = tmp_path / "br"
        cfg = write_cfg(tmp_path, {"bench-reg": {
            "functions": ["quad", "cos4x"], "sigmas": [0.25], "epochs": 4,
            "checkpoints": [2, 4], "n_points": 48, "n_features": 4}})
        assert cli.main(["bench-reg", "--config", cfg, "--out", str(br)]) == cli.EXIT_OK
        out = tmp_path / "q"
        cfg2 = write_cfg(tmp_path, {"qualify": {"refit_ledger": str(br / "ledger.csv")}},
                         name="cfg2.json")
        assert cli.main(["qualify", "--config", cfg2, "--out", str(out)]) == cli.EXIT_CONFIG
        assert not (out / "ledger.csv").exists()


    def test_refit_ledger_with_too_few_points_is_config_error(self, tmp_path):
        # the complexity metrics need 32 points per dataset
        br = tmp_path / "br"
        cfg = write_cfg(tmp_path, {"bench-reg": {
            "functions": ["quad", "cos4x"], "sigmas": [0.25], "epochs": 3,
            "checkpoints": [1, 2, 3], "n_points": 24, "n_features": 4}})
        assert cli.main(["bench-reg", "--config", cfg, "--out", str(br)]) == cli.EXIT_OK
        out = tmp_path / "q"
        cfg2 = write_cfg(tmp_path, {"qualify": {"refit_ledger": str(br / "ledger.csv")}},
                         name="cfg2.json")
        assert cli.main(["qualify", "--config", cfg2, "--out", str(out)]) == cli.EXIT_CONFIG
        assert not (out / "ledger.csv").exists()

    @pytest.mark.parametrize("label", [
        "function_id=quad;n_points=48;seed=1;sigma=0.1;x_hi=-2.0;x_lo=4.0",
        "function_id=septic;n_points=48;seed=1;sigma=0.1;x_hi=4.0;x_lo=-2.0",
    ], ids=["reversed-x-range", "unknown-function"])
    def test_refit_ledger_label_that_regenerates_no_curve_is_config_error(self, tmp_path,
                                                                          label):
        ledger = tmp_path / "ledger.csv"
        ledger.write_text("dataset,epoch,m_cdnn,m_qdnn,xi\n"
                          + "".join(f"{label},{ep},1.0,1.0,0.0\n" for ep in (1, 2, 3)))
        out = tmp_path / "q"
        cfg = write_cfg(tmp_path, {"qualify": {"refit_ledger": str(ledger)}})
        assert cli.main(["qualify", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert not (out / "ledger.csv").exists()


    def test_refit_ledger_label_past_the_point_limit_is_rejected_before_characterizing(
            self, tmp_path, monkeypatch):
        from qqual import complexity

        def characterize(*args):
            raise AssertionError("characterize called")

        monkeypatch.setattr(complexity, "characterize", characterize)
        label = "function_id=quad;n_points=20001;seed=1;sigma=0.1;x_hi=4.0;x_lo=-2.0"
        ledger = tmp_path / "ledger.csv"
        ledger.write_text("dataset,epoch,m_cdnn,m_qdnn,xi\n"
                          + "".join(f"{label},{ep},1.0,1.0,0.0\n" for ep in (1, 2, 3)))
        out = tmp_path / "q"
        cfg = write_cfg(tmp_path, {"qualify": {"refit_ledger": str(ledger)}})
        assert cli.main(["qualify", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert not (out / "ledger.csv").exists()


class TestBenchClass:
    def test_smoke_run_emits_table_ledger_report(self, tmp_path):
        out = tmp_path / "bc"
        cfg = write_cfg(tmp_path, {"bench-class": {"ensemble": 1, "epochs": 0,
                                                   "n_eval": 40}})
        assert cli.main(["bench-class", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        table = read_csv(out / "table.csv")
        assert len(table) == 5  # header + one row per factor
        assert all(len(r) == 5 for r in table)
        assert [r[0] for r in table[1:]] == ["training pairs", "curve complexity",
                                             "input features", "noise level"]
        ledger = read_csv(out / "ledger.csv")
        assert len(ledger) == 7  # header + 6 conditions x 1 rep
        report = (out / "report.md").read_text()
        assert "0.8151" in report
        assert "0.8144" in report
        root = ET.parse(out / "efficiency.svg").getroot()
        assert root.tag.endswith("svg")

    def test_degenerate_replicas_are_skipped_with_reason(self, tmp_path):
        # untrained replicas can predict a single class, whose precision is
        # undefined; they are listed as skipped instead of aborting the run
        out = tmp_path / "bc"
        cfg = write_cfg(tmp_path, {"bench-class": {"epochs": 0, "ensemble": 60}})
        assert cli.main(["bench-class", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        report = (out / "report.md").read_text()
        section = report.split("## Skipped replicas")[1].split("## Notes")[0]
        skipped = [line for line in section.splitlines() if line.startswith("- ")]
        assert skipped
        assert all(line.split(": ", 1)[1] in ("cdnn predicted only class 0",
                                              "cdnn predicted only class 1",
                                              "qdnn predicted only class 0",
                                              "qdnn predicted only class 1")
                   for line in skipped)
        ledger = read_csv(out / "ledger.csv")
        assert len(ledger) - 1 + len(skipped) == 6 * 60

    @pytest.mark.slow
    def test_trained_replicas_that_predict_one_class_are_skipped(self, tmp_path):
        # a large learning rate drives trained CDNNs to a single class
        out = tmp_path / "bc"
        cfg = write_cfg(tmp_path, {"bench-class": {"epochs": 3, "ensemble": 20,
                                                   "learning_rate": 5.0}})
        assert cli.main(["bench-class", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        ledger = read_csv(out / "ledger.csv")
        assert len(ledger) == 82
        section = (out / "report.md").read_text().split("## Skipped replicas")[1]
        skipped = [line[2:].split(": ", 1) for line in section.split("## Notes")[0].splitlines()
                   if line.startswith("- ")]
        reasons = [reason for _, reason in skipped]
        assert len(reasons) == 39
        assert reasons.count("cdnn predicted only class 0") == 37
        assert reasons.count("cdnn predicted only class 1") == 2
        skipped_keys = {tuple(replica.rsplit(" rep ", 1)) for replica, _ in skipped}
        assert len(skipped_keys) == 39
        assert not skipped_keys & {(row[0], row[1]) for row in ledger[1:]}


class TestBenchReg:
    def test_ledger_consistency_and_cell_files(self, tmp_path):
        out = tmp_path / "br"
        cfg = write_cfg(tmp_path, {"bench-reg": {"functions": ["quad"],
                                                 "sigmas": [0.1, 1.0], "epochs": 2,
                                                 "checkpoints": [1], "n_points": 40}})
        assert cli.main(["bench-reg", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        rows = read_csv_dicts(out / "ledger.csv")
        assert len(rows) == 4  # 2 cells x (checkpoint 1 + final epoch 2)
        for row in rows:
            m_c, m_q = float(row["m_cdnn"]), float(row["m_qdnn"])
            assert float(row["xi"]) == m_c / m_q - 1.0
        assert (out / "reg_quad_sigma0p1.svg").exists()
        assert (out / "reg_quad_sigma1p0.svg").exists()
        report = (out / "report.md").read_text()
        assert "quad" in report

    def test_one_forward_per_mark_per_family(self, monkeypatch):
        # each mark's curve is one forward on the training inputs; the
        # figure's final curve is the last mark's, not one more forward
        forwards = []

        def counting(build):
            def built(*args, **kwargs):
                net = build(*args, **kwargs)
                forward = net.forward

                def counted(X):
                    forwards.append(type(net).__name__)
                    return forward(X)

                net.forward = counted
                return net
            return built

        monkeypatch.setattr(cdnn, "build_default_cdnn", counting(cdnn.build_default_cdnn))
        monkeypatch.setattr(qdnn, "build_default_qdnn", counting(qdnn.build_default_qdnn))
        for epochs, checkpoints, marks in ((3, (1, 3), [1, 3]), (3, (1, 2), [1, 2, 3]),
                                           (0, (2,), [0])):
            forwards.clear()
            cell = cli._reg_job(("quad", 0.1, 24, epochs, checkpoints, 0.05, 4, 0))
            assert cell["marks"] == marks and not cell["diverged"]
            assert sorted(forwards) == ["MlpModel"] * len(marks) + ["QdnnModel"] * len(marks)

    def test_qdnn_simulates_the_span_of_the_repeated_rows(self, monkeypatch):
        # one x repeated on all 8 qubits puts each row in the 9-state
        # symmetric span, so training and checkpoints run 9 states, not
        # the 100 rows of the reg-train cell
        rows = []
        apply = qsim._apply_2x2

        def recording(psi, u):
            rows.append(psi.shape[0])
            apply(psi, u)

        monkeypatch.setattr(qsim, "_apply_2x2", recording)
        cell = cli._reg_job(("quad", 0.1, 100, 6, (2, 4, 6), 0.05, 8, 0))
        assert cell["marks"] == [2, 4, 6] and not cell["diverged"]
        assert rows and max(rows) == 9

    def test_report_names_the_checkpoints_read(self, tmp_path):
        # checkpoint 5 lies past the 2-epoch budget: the ledger and the report omit it
        out = tmp_path / "br"
        cfg = write_cfg(tmp_path, {"bench-reg": {"functions": ["quad"], "sigmas": [0.1],
                                                 "epochs": 2, "checkpoints": [5, 1],
                                                 "n_points": 24, "n_features": 2}})
        assert cli.main(["bench-reg", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        assert [row["epoch"] for row in read_csv_dicts(out / "ledger.csv")] == ["1", "2"]
        assert "- checkpoints: [1] (plus the final epoch)\n" in (out / "report.md").read_text()

    def test_unknown_function_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, {"bench-reg": {"functions": ["septic"]}})
        code = cli.main(["bench-reg", "--config", cfg, "--out", str(tmp_path / "br")])
        assert code == cli.EXIT_CONFIG


class TestDvcs:
    def test_tiny_campaign_outputs(self, tmp_path):
        out = tmp_path / "dv"
        cfg = write_cfg(tmp_path, {"dvcs": {"max_sets": 8, "ensemble": 1, "epochs": 1,
                                            "lams": [0.5, 2.0], "resolution": 50,
                                            "smoothing": 1.0}})
        assert cli.main(["dvcs", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        assert (out / "map_lam0p5.svg").exists()
        assert (out / "map_lam2p0.svg").exists()
        assert (out / "trend_lam0p5.svg").exists()
        ledger = read_csv_dicts(out / "ledger.csv")
        assert len(ledger) == 16  # 8 sets x 2 noise scales
        stats = read_csv(out / "stats.csv")
        self_rows = [r for r in stats[1:] if r[1] == "sign_agreement_xi_vs_xi_self_check"]
        assert len(self_rows) == 2
        assert all(float(r[2]) == 1.0 for r in self_rows)

    def test_missing_data_file_is_runtime_failure(self, tmp_path):
        cfg = write_cfg(tmp_path, {"dvcs": {"data": [str(tmp_path / "nope.csv")]}})
        code = cli.main(["dvcs", "--config", cfg, "--out", str(tmp_path / "dv")])
        assert code == cli.EXIT_RUNTIME

    def test_data_without_rows_is_config_error_before_training(self, tmp_path, monkeypatch):
        trained = self.count_campaigns(monkeypatch)
        path = tmp_path / "header_only.csv"
        path.write_text(",".join(dv.CSV_HEADER) + "\n")
        out = tmp_path / "dv"
        cfg = write_cfg(tmp_path, {"dvcs": {"data": [str(path)], "ensemble": 1, "epochs": 1}})
        assert cli.main(["dvcs", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert trained == []
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
        # validate-data reads the same file as clean, with a warning
        vd = tmp_path / "vd"
        assert cli.main(["validate-data", str(path), "--out", str(vd)]) == cli.EXIT_OK
        assert "no data rows" in (vd / "report.md").read_text()

    @staticmethod
    def count_campaigns(monkeypatch):
        """Record each dvcs.run_campaign call, that is each training run."""
        calls = []
        run_campaign = dv.run_campaign

        def counted(*args, **kwargs):
            calls.append(1)
            return run_campaign(*args, **kwargs)

        monkeypatch.setattr(dv, "run_campaign", counted)
        return calls

    @staticmethod
    def write_line_sets(tmp_path, extra=()):
        # three sets whose (Q2, xB) points lie on one line, then `extra` sets
        # given as (Q2, xB, phi values)
        path = tmp_path / "line.csv"
        lines = ["experiment,E_beam,Q2,xB,t,phi,F,sigma_F"]
        sets = [(q2, xb, [22.5 + 45.0 * k for k in range(8)])
                for q2, xb in ((1.0, 0.25), (2.0, 0.5), (3.0, 0.75))]
        for q2, xb, phis in sets + list(extra):
            for k, phi in enumerate(phis):
                lines.append(f"toy,5.75,{q2},{xb},-0.25,{phi},{0.1 + 0.01 * k},0.01")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_failed_run_leaves_only_resolved_config(self, tmp_path, monkeypatch):
        # a fault once the campaign has trained leaves no output behind
        trained = self.count_campaigns(monkeypatch)

        def broken_surface(*args, **kwargs):
            raise ValueError("injected regime-map fault")

        monkeypatch.setattr(geometry, "build_surface", broken_surface)
        out = tmp_path / "dv"
        cfg = write_cfg(tmp_path, {"dvcs": {"max_sets": 4, "ensemble": 1, "epochs": 1,
                                            "lams": [1.0], "resolution": 30, "workers": 1}})
        assert cli.main(["dvcs", "--config", cfg, "--out", str(out)]) == cli.EXIT_RUNTIME
        assert trained == [1]
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]

    def test_collinear_sets_are_config_error_before_training(self, tmp_path, monkeypatch):
        # no regime map can be built on points without area
        trained = self.count_campaigns(monkeypatch)
        out = tmp_path / "dv"
        cfg = write_cfg(tmp_path, {"dvcs": {"data": [str(self.write_line_sets(tmp_path))],
                                            "ensemble": 1, "epochs": 1, "lams": [1.0]}})
        assert cli.main(["dvcs", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert trained == []
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]

    def test_sets_at_one_point_are_config_error_before_training(self, tmp_path, monkeypatch):
        # three sets that differ only in t share one (Q2, xB) point
        trained = self.count_campaigns(monkeypatch)
        path = tmp_path / "point.csv"
        lines = ["experiment,E_beam,Q2,xB,t,phi,F,sigma_F"]
        for t in (-0.2, -0.3, -0.4):
            for k in range(8):
                lines.append(f"toy,5.75,2.0,0.3,{t},{22.5 + 45.0 * k},{0.1 + 0.01 * k},0.01")
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "dv"
        cfg = write_cfg(tmp_path, {"dvcs": {"data": [str(path)], "ensemble": 1, "epochs": 1,
                                            "lams": [1.0]}})
        assert cli.main(["dvcs", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
        assert trained == []
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]

    def test_collinear_outcomes_skip_their_map(self, tmp_path):
        # the fourth set takes the points off the line, but cos(phi) has two
        # values on its phi grid, so its model fit fails and the three
        # outcomes left are collinear
        path = self.write_line_sets(tmp_path, [(2.0, 0.3, [80.0, 100.0, 260.0, 280.0])])
        out = tmp_path / "dv"
        cfg = write_cfg(tmp_path, {"dvcs": {"data": [str(path)], "ensemble": 1, "epochs": 1,
                                            "lams": [1.0], "workers": 1}})
        assert cli.main(["dvcs", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        assert len(read_csv_dicts(out / "ledger.csv")) == 3
        assert not (out / "map_lam1p0.svg").exists()
        report = (out / "report.md").read_text()
        assert "rank" in report and "lam=1: outcome points cannot be mapped" in report

    def test_grid_outside_the_triangulation_skips_its_map(self, tmp_path, capsys):
        # a 2 x 2 grid is the bounding box's corners, which no sample point
        # of the synthetic corpus sits on, so no grid point is masked; with
        # no noise scale mapped, the ledger is still the campaign's result
        out = tmp_path / "dv"
        cfg = write_cfg(tmp_path, {"dvcs": {"resolution": 2, "epochs": 1, "max_sets": 8,
                                            "ensemble": 1, "lams": [1.0], "workers": 1}})
        assert cli.main(["dvcs", "--config", cfg, "--seed", "1",
                         "--out", str(out)]) == cli.EXIT_OK
        assert "dvcs: 8 outcomes, no noise scale mapped (see report Warnings)" in \
            capsys.readouterr().out
        assert len(read_csv_dicts(out / "ledger.csv")) == 8
        assert read_csv(out / "stats.csv") == [["lam", "statistic", "value"]]
        assert not (out / "map_lam1p0.svg").exists()
        report = (out / "report.md").read_text()
        assert "| lam |" not in report
        assert "No noise scale was mapped; the Warnings below say why." in report
        assert ("lam=1: no grid point lies in the outcome points' triangulation, maps skipped"
                in report)


class TestNoResult:
    """A training run whose every cell diverged or was skipped has no row
    to write: it exits 3, says how many cells it lost, and leaves only
    resolved_config.json."""

    def assert_fails(self, tmp_path, capsys, command, block, message):
        out = tmp_path / "o"
        cfg = write_cfg(tmp_path, {command: block})
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_RUNTIME
        assert sorted(p.name for p in out.iterdir()) == ["resolved_config.json"]
        assert f"runtime failure: RuntimeError: no ledger row: {message}" in \
            capsys.readouterr().err

    def test_bench_class(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "fit_pair", lambda *args: [None, None])
        self.assert_fails(tmp_path, capsys, "bench-class",
                          {"ensemble": 1, "epochs": 1, "n_eval": 30, "workers": 1},
                          "all 6 replicas were skipped")

    def test_bench_reg(self, tmp_path, capsys):
        self.assert_fails(tmp_path, capsys, "bench-reg",
                          {"epochs": 3, "functions": ["quad"], "sigmas": [0.1],
                           "n_points": 24, "n_features": 2, "learning_rate": 1e200},
                          "all 1 cells diverged")

    def test_dvcs(self, tmp_path, capsys):
        self.assert_fails(tmp_path, capsys, "dvcs",
                          {"max_sets": 4, "ensemble": 1, "epochs": 3, "lams": [1.0],
                           "learning_rate": 1e51, "workers": 1},
                          "4 sets or (set, lam) cells were skipped or diverged")


class TestComputeWritesNothing:
    TINY = {
        "bench-class": {"ensemble": 1, "epochs": 0, "n_eval": 30},
        "bench-reg": {"functions": ["quad"], "sigmas": [0.1], "n_features": 2, "epochs": 1,
                      "n_points": 24},
        "qualify": {"functions": ["quad"], "sigmas": [0.1], "epochs": [5]},
        "dvcs": {"max_sets": 4, "lams": [1.0], "ensemble": 1, "epochs": 1, "resolution": 30},
        "validate-data": {},
    }

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_compute_writes_no_file(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        config = dict(copy.deepcopy(cli.DEFAULTS[command]), **self.TINY[command],
                      out_dir=str(out))
        cli.check_values(command, config)
        compute, render = cli.COMMANDS[command]
        result = compute(config, 1)
        assert list(tmp_path.iterdir()) == []
        if command == "dvcs":
            out.mkdir()
            render(config, result, str(out))
            rendered = [float(r[2]) for r in read_csv(out / "stats.csv")[1:]
                        if r[1] == "area_xi_positive"]
            assert rendered
            assert rendered == [m["stats"]["area_xi_positive"] for m in result["maps"]]


class TestScipyLoading:
    """qqual runs on numpy alone; scipy is a test-only reference, and
    importing it would cost a fresh process most of its start-up time.
    The bench commands also leave the campaign modules unloaded, and no
    command loads numpy.ma, which np.unique and np.quantile import on
    their first call (about 10 ms a process), and none loads a process
    pool module: ``pool_map`` forks its workers itself."""

    ON_THEIR_OWN = ("bench-class", "bench-reg", "validate-data")

    def modules_loaded_by(self, tmp_path, commands):
        """Run `commands` in one fresh interpreter on tiny configs; return
        the scipy, qqual and numpy.ma modules loaded after the import and
        after each command, as one dict keyed by stage for each package."""
        cfg = write_cfg(tmp_path, TestComputeWritesNothing.TINY)
        return run_fresh_interpreter("""
import json, sys
from qqual import cli
cfg, out, *commands = sys.argv[1:]

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

seen = {package: {"import": loaded(package)}
        for package in ("scipy", "qqual", "numpy.ma", "concurrent", "multiprocessing")}
for command in commands:
    assert cli.main([command, "--config", cfg, "--out", out + "/" + command]) == 0
    for package, by_stage in seen.items():
        by_stage[command] = loaded(package)
print(json.dumps(seen))
""", cfg, tmp_path, *commands)

    def test_bench_commands_never_load_scipy(self, tmp_path):
        loaded = self.modules_loaded_by(tmp_path, ["bench-reg", "bench-class"])["scipy"]
        assert loaded == {"import": [], "bench-reg": [], "bench-class": []}

    def test_bench_and_dvcs_commands_never_load_numpy_ma(self, tmp_path):
        loaded = self.modules_loaded_by(tmp_path, ["bench-reg", "bench-class", "dvcs"])
        assert loaded["numpy.ma"] == {"import": [], "bench-reg": [], "bench-class": [],
                                      "dvcs": []}

    def test_bench_commands_never_load_campaign_modules(self, tmp_path):
        # cli imports these where they run; so does optim.fit_pair its model builders
        loaded = self.modules_loaded_by(tmp_path, ["bench-reg", "bench-class"])["qqual"]
        assert list(loaded) == ["import", "bench-reg", "bench-class"]
        campaign = {f"qqual.{m}" for m in ("dvcs", "complexity", "geometry", "qualifier")}
        for stage, modules in loaded.items():
            assert "qqual.cli" in modules and not campaign & set(modules), stage

    def test_no_command_loads_a_process_pool_module(self, tmp_path):
        # the dvcs campaign's 4 cells run on 2 workers here
        loaded = self.modules_loaded_by(tmp_path, ["bench-reg", "bench-class", "dvcs"])
        for package in ("concurrent", "multiprocessing"):
            assert loaded[package] == {"import": [], "bench-reg": [], "bench-class": [],
                                       "dvcs": []}, package

    def test_validate_data_never_loads_scipy(self, tmp_path):
        loaded = self.modules_loaded_by(tmp_path, ["validate-data"])["scipy"]
        assert loaded == {"import": [], "validate-data": []}

    def test_other_commands_never_load_scipy(self, tmp_path):
        # every command ON_THEIR_OWN leaves out, dvcs and qualify among them
        others = sorted(set(cli.COMMANDS) - set(self.ON_THEIR_OWN))
        assert {"dvcs", "qualify"} <= set(others)
        loaded = self.modules_loaded_by(tmp_path, others)["scipy"]
        assert loaded == {name: [] for name in ["import", *others]}


class TestReproducibility:
    def test_rerun_with_emitted_config_is_bitwise(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = write_cfg(tmp_path, {"qualify": {"functions": ["quad"], "sigmas": [0.5],
                                               "epochs": [5, 10, 20]}})
        assert cli.main(["qualify", "--config", cfg, "--out", str(out1)]) == cli.EXIT_OK
        resolved = json.loads((out1 / "resolved_config.json").read_text())
        cfg2 = write_cfg(tmp_path, {"qualify": resolved["config"]}, name="emitted.json")
        assert cli.main(["qualify", "--config", cfg2, "--out", str(out2)]) == cli.EXIT_OK
        assert (out1 / "ledger.csv").read_bytes() == (out2 / "ledger.csv").read_bytes()

    def test_bench_class_rerun_is_bitwise(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = write_cfg(tmp_path, {"bench-class": {"ensemble": 2, "epochs": 0,
                                                       "n_eval": 30}}, name=f"{name}.json")
            assert cli.main(["bench-class", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
            outs.append((out / "ledger.csv").read_bytes())
        assert outs[0] == outs[1]

    def assert_ledger_same_for_1_and_2_workers(self, tmp_path, monkeypatch, command, block,
                                               patterns=("*.csv",)):
        """Every file the command writes that matches one of ``patterns``
        (every CSV, the ledger among them, by default) is the same bytes for
        1 and 2 workers; returns the 1-worker files by name."""
        blobs = []
        for name, workers in (("w1", 1), ("w2", 2)):
            monkeypatch.setenv("QQUAL_THREADS", str(workers))
            out = tmp_path / name
            cfg = write_cfg(tmp_path, {command: dict(block, workers=workers)},
                            name=f"{name}.json")
            assert cli.main([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
            blobs.append({p.name: p.read_bytes() for pattern in patterns
                          for p in sorted(out.glob(pattern))})
        assert "ledger.csv" in blobs[0]
        assert blobs[0] == blobs[1]
        return blobs[0]

    def test_worker_pool_does_not_change_ledger(self, tmp_path, monkeypatch):
        self.assert_ledger_same_for_1_and_2_workers(
            tmp_path, monkeypatch, "bench-reg",
            {"functions": ["quad", "cos4x"], "sigmas": [0.1], "epochs": 1,
             "checkpoints": [1], "n_points": 40})

    def test_worker_pool_does_not_change_bench_class_ledger(self, tmp_path, monkeypatch):
        self.assert_ledger_same_for_1_and_2_workers(
            tmp_path, monkeypatch, "bench-class", {"ensemble": 2, "epochs": 0, "n_eval": 30})

    def test_worker_pool_does_not_change_dvcs_ledger_or_stats(self, tmp_path, monkeypatch):
        # cells return their m values to the parent, which reduces them; each
        # noise scale's maps are reduced in the pool too, and 3 epochs give
        # a qualifier refit, so the xi_hat contours travel back as well
        files = self.assert_ledger_same_for_1_and_2_workers(
            tmp_path, monkeypatch, "dvcs",
            {"max_sets": 4, "ensemble": 1, "epochs": 3, "resolution": 30},
            patterns=("*.csv", "*.svg", "report.md"))
        assert "stats.csv" in files and "report.md" in files
        assert {f"map_lam{tag}.svg" for tag in ("0p5", "1p0", "2p0")} <= set(files)
        stats = files["stats.csv"].decode()
        assert stats.count("sign_agreement_xi_vs_xi_hat") == 3

    def test_dvcs_result_holds_one_grid_per_mapped_lam(self):
        # the caller keeps only the xi surface it renders; xi_hat's surface
        # is reduced to its zero contour where it was built
        config = dict(copy.deepcopy(cli.DEFAULTS["dvcs"]), max_sets=4, ensemble=1, epochs=3,
                      resolution=30)
        result = cli.compute_dvcs(config, 2)
        assert result["refit_table"] is not None and len(result["maps"]) == 3

        def grids(value):
            if isinstance(value, geometry.GridField):
                return [value]
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, (list, tuple)):
                return [g for v in value for g in grids(v)]
            return []

        assert [id(g) for g in grids(result)] == [id(m["xi_grid"]) for m in result["maps"]]
        # xi_hat changes sign on this draw's first noise scale
        assert result["maps"][0]["hat_contours"]

    def test_blas_thread_count_does_not_change_ledger(self, tmp_path):
        # OpenBLAS splits reductions over 100 rows of 8-qubit states across
        # threads, so any that went through BLAS would move m_qdnn in the
        # last digits; on a one-core machine both runs use one thread
        cfg = write_cfg(tmp_path, {"bench-reg": {
            "functions": ["quad"], "sigmas": [0.1], "n_features": 8, "n_points": 100,
            "epochs": 3, "checkpoints": [3], "workers": 1, "seed": 0}})
        src = str(Path(qqual.__file__).resolve().parents[1])
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "qqual.cli", "bench-reg", "--config", cfg,
                 "--out", str(out)], env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == cli.EXIT_OK, proc.stderr
            blobs.append((out / "ledger.csv").read_bytes())
        assert blobs[0] == blobs[1]
