"""Harness configuration, reports, determinism, and the CLI surface."""

import json

import pytest

from gaugejets.cli import main as cli_main
from gaugejets.harness import (
    ConfigError,
    SUITES,
    SuiteConfig,
    UnknownSuiteError,
    convergence_study,
    ratio_study,
    run,
)
from gaugejets.lie_core import group_spec
from gaugejets.patch import Patch

FAST_SUITES = (
    "action_axioms",
    "curvature_equivariance",
    "minimal_coupling_invariance",
    "minimal_coupling_negative",
    "utiyama_level_sets",
    "utiyama_negative",
    "mechanics_reduction",
)


def small_cfg(**kw):
    base = dict(
        group=group_spec("su2"),
        patch=Patch((16, 16), spacing=0.05),
        seed=11,
        suites=(),
    )
    base.update(kw)
    return SuiteConfig(**base)


def strip_runtime(report_dict):
    for suite in report_dict["suites"]:
        suite.pop("runtime_ms")
    return report_dict


class TestConfig:
    def test_h_levels_must_decrease(self):
        with pytest.raises(ConfigError):
            small_cfg(h_levels=(0.01, 0.02))

    def test_tolerances_positive(self):
        with pytest.raises(ConfigError):
            small_cfg(tolerances={"action_axioms": 0.0})

    def test_unknown_suite_rejected(self):
        with pytest.raises(UnknownSuiteError):
            small_cfg(suites=("not_a_suite",))

    def test_dict_round_trip(self):
        cfg = small_cfg(suites=("action_axioms",), tolerances={"action_axioms": 1e-11})
        back = SuiteConfig.from_dict(cfg.to_dict())
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()

    def test_malformed_config(self):
        with pytest.raises(ConfigError):
            SuiteConfig.from_dict({"patch": {"spacing": 0.05}})  # missing extent

    @pytest.mark.parametrize(
        "bad",
        [
            {"metric": "foo"},
            {"seed": "abc"},
            {"tolerances": {"not_a_suite": 1e-12}},
            {"tolerances": [1e-12]},
            {"group": "su2"},
            [1, 2],
            "su2",
            {"output": 5, "suites": ["action_axioms"]},
            {"suites": "action_axioms"},
            {"patch": {"extent": [8, 8], "spacing": float("nan")}},
            {"patch": {"extent": [8, 8], "spacing": float("inf")}},
            {"patch": {"extent": [8, 8], "origin": float("nan")}},
            {"patch": {"extent": [8.7, 8]}},
            {"group": {"family": "sun", "n": 4.5}},
            {"group": {"family": "su2", "rep_dim": 2.0}},
            {"h_levels": [float("nan"), 0.02]},
            {"tolerances": {"action_axioms": float("nan")}, "suites": ["action_axioms"]},
        ],
        ids=["metric", "seed", "tolerance-key", "tolerance-list", "group-string",
             "top-level-list", "top-level-string", "output-number", "suites-string",
             "spacing-nan", "spacing-inf", "origin-nan", "extent-fraction", "n-fraction",
             "rep-dim-float", "h-level-nan", "tolerance-nan"],
    )
    def test_bad_values_rejected(self, bad, tmp_path, capsys):
        with pytest.raises(ConfigError):
            SuiteConfig.from_dict(bad)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_suites_string_is_not_split(self):
        # a bare string must not be read as a sequence of one-letter suite names
        with pytest.raises(ConfigError, match="suites must be a list"):
            SuiteConfig.from_dict({"suites": "action_axioms"})


class TestRun:
    def test_empty_suite_list_passes(self):
        report = run(small_cfg())
        assert report.overall == "pass"
        assert report.suites == []

    def test_deterministic_reports(self, tmp_path):
        cfg = small_cfg(suites=FAST_SUITES)
        a = strip_runtime(run(cfg).to_dict())
        b = strip_runtime(run(cfg).to_dict())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_pass_rule_uniform(self):
        report = run(small_cfg(suites=FAST_SUITES))
        for res in report.suites:
            assert (res.status == "pass") == (res.max_error <= res.tolerance)

    def test_tolerance_override_forces_failure(self):
        cfg = small_cfg(
            suites=("action_axioms",), tolerances={"action_axioms": 1e-30}
        )
        report = run(cfg)
        assert report.overall == "fail"
        assert report.suites[0].status == "fail"

    def test_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        cfg = small_cfg(suites=("utiyama_level_sets",), output=str(out))
        run(cfg)
        data = json.loads(out.read_text())
        assert data["overall"] == "pass"
        assert data["suites"][0]["name"] == "utiyama_level_sets"
        assert "claim" in data["suites"][0]

    def test_every_registered_suite_has_claim_and_tolerance(self):
        for name, suite in SUITES.items():
            assert suite.claim
            assert suite.tol(0.05) > 0


class TestConvergence:
    def test_ratio_study_classification(self):
        mode, ratios, ok = ratio_study([1e-15, 3e-16, 1e-16])
        assert mode == "exact" and ok and ratios == []
        mode, ratios, ok = ratio_study([4e-2, 1e-2, 2.5e-3])
        assert mode == "ratio" and ok
        mode, ratios, ok = ratio_study([4e-2, 2e-2, 1e-2])  # first-order decay
        assert mode == "ratio" and not ok

    def test_constant_error_zero_marks_exact(self):
        assert ratio_study([0.0, 0.0, 0.0]) == ("exact", [], True)

    def test_needs_two_levels(self):
        with pytest.raises(ConfigError):
            convergence_study(small_cfg(h_levels=(0.05,)), "maurer_cartan")

    def test_fd_suite_second_order(self):
        cfg = small_cfg(patch=Patch((48, 48), spacing=0.04), h_levels=(0.04, 0.02))
        res = convergence_study(cfg, "maurer_cartan")
        assert res.status == "pass"
        assert res.mode == "ratio"
        assert all(3.5 <= r <= 4.5 for r in res.convergence_ratios)

    def test_algebraic_suite_marked_exact(self):
        cfg = small_cfg(patch=Patch((12, 12), spacing=0.05), h_levels=(0.05, 0.025))
        res = convergence_study(cfg, "gauge_to_zero_1")
        assert res.mode == "exact"
        assert res.status == "pass"
        assert res.convergence_ratios == []


class TestCli:
    def test_run_default_config_empty(self, capsys):
        assert cli_main(["run"]) == 0
        assert "overall: pass" in capsys.readouterr().out

    def test_run_with_config_and_suite(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "group": {"family": "su2"},
                    "patch": {"extent": [16, 16], "spacing": 0.05},
                    "seed": 5,
                }
            )
        )
        out = tmp_path / "report.json"
        code = cli_main(
            [
                "run",
                "--config",
                str(cfg_path),
                "--suite",
                "utiyama_level_sets",
                "--suite",
                "utiyama_negative",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert [s["name"] for s in report["suites"]] == [
            "utiyama_level_sets",
            "utiyama_negative",
        ]

    def test_failing_suite_exit_code_1(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "patch": {"extent": [16, 16]},
                    "suites": ["action_axioms"],
                    "tolerances": {"action_axioms": 1e-30},
                }
            )
        )
        assert cli_main(["run", "--config", str(cfg_path)]) == 1

    def test_unknown_suite_exit_code_2(self, capsys):
        assert cli_main(["run", "--suite", "bogus"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_exit_code_2(self, tmp_path):
        cfg_path = tmp_path / "broken.json"
        cfg_path.write_text("{not json")
        assert cli_main(["run", "--config", str(cfg_path)]) == 2

    def test_sample_and_inspect(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"patch": {"extent": [8, 8]}, "seed": 3}))
        out = tmp_path / "field.jgf1"
        assert (
            cli_main(
                ["sample", "--config", str(cfg_path), "--kind", "jet1-gauge", "--out", str(out)]
            )
            == 0
        )
        assert out.exists()
        assert cli_main(["inspect", str(out)]) == 0
        assert "jet1-gauge" in capsys.readouterr().out

    def test_sample_deterministic(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"patch": {"extent": [8, 8]}, "seed": 3}))
        a, b = tmp_path / "a.jgf1", tmp_path / "b.jgf1"
        cli_main(["sample", "--config", str(cfg_path), "--out", str(a)])
        cli_main(["sample", "--config", str(cfg_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_inspect_missing_file_exit_code_2(self):
        assert cli_main(["inspect", "/nonexistent/file.jgf1"]) == 2

    def test_converge_cli_with_csv(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "patch": {"extent": [32, 32], "spacing": 0.05},
                    "suites": ["maurer_cartan"],
                    "h_levels": [0.05, 0.025],
                    "seed": 2,
                }
            )
        )
        csv_path = tmp_path / "errors.csv"
        code = cli_main(["converge", "--config", str(cfg_path), "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "suite,h,error"
        assert len(lines) == 3
