"""Harness configuration, reports, determinism, and the CLI surface."""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from gaugejets import analytic, harness, lie_core
from gaugejets.cli import main as cli_main
from gaugejets.harness import (
    ConfigError,
    SUITES,
    SuiteConfig,
    UnknownSuiteError,
    _random,
    convergence_study,
    ratio_study,
    run,
    run_suite,
)
from gaugejets.jets import Jet1Gauge, Jet2Gauge, JetConnection, JetMatter
from gaugejets.lie_core import (
    AlgebraElement,
    GroupSpec,
    exp,
    group_spec,
    random_algebra_entries,
    seeded_rng,
)
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

    def test_readme_config_block_is_the_default(self):
        """The README's "defaults shown" config block parses to ``SuiteConfig()``."""
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = text.split("Config schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        assert SuiteConfig.from_dict(json.loads(block)) == SuiteConfig()

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
            {"seed": True, "suites": ["gauge_to_zero_1"]},
            {"patch": {"extent": [8, 8], "spacing": True}},
            {"patch": {"extent": [8, 8], "origin": [0.0, False]}},
            {"h_levels": [True, 0.5]},
            {"tolerances": {"action_axioms": True}, "suites": ["action_axioms"]},
            {"sede": 3, "suites": ["gauge_to_zero_1"]},
            {"group": {"family": "su2", "rep": 3}, "suites": ["gauge_to_zero_1"]},
            {"patch": {"extent": [5, 5], "spacng": 0.5}, "suites": ["gauge_to_zero_1"]},
            {"patch": {"extent": [5, 5], "spacing": "0.2"}},
            {"patch": {"extent": [5, 5], "origin": ["1", "0"]}},
            {"h_levels": ["0.04", "0.02"]},
        ],
        ids=["metric", "seed", "tolerance-key", "tolerance-list", "group-string",
             "top-level-list", "top-level-string", "output-number", "suites-string",
             "spacing-nan", "spacing-inf", "origin-nan", "extent-fraction", "n-fraction",
             "rep-dim-float", "h-level-nan", "tolerance-nan", "seed-bool", "spacing-bool",
             "origin-bool", "h-level-bool", "tolerance-bool", "unknown-key",
             "unknown-group-key", "unknown-patch-key", "spacing-string", "origin-string",
             "h-level-string"],
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

    def test_readme_suite_table_matches_registry(self):
        """The README table lists the registered suites in order, each with its
        bound, written ``h^2``-scaled exactly for the finite-difference suites."""
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = text.split("Registered suites:\n\n", 1)[1].split("\n\n", 1)[0]
        rows = [
            [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in table.splitlines()[2:]
        ]
        names = [name.strip("`") for name, _, _ in rows]
        assert names == list(SUITES)
        for name, (_, _, cell) in zip(names, rows):
            m = re.fullmatch(r"(?:shortfall <= )?(\S+?)(?:\^(\S+))?( h\^2)?(?: .*)?", cell)
            assert m, cell
            base, power, h2 = m.groups()
            assert float(base) ** (float(power) if power else 1.0) == SUITES[name].bound, name
            assert bool(h2) == SUITES[name].fd, name


ACTION_LAW_GROUPS = [
    group_spec("u1"),
    group_spec("su2"),
    group_spec("su3"),
    group_spec("sun", n=4),
    group_spec("su2", rep_dim=3),
    group_spec("su3", rep_dim=8),
    group_spec("sun", n=4, rep_dim=15),
]
ACTION_CARRIERS = ["matter", "variation", "jet_matter", "connection", "jet_connection", "curvature"]


@pytest.mark.parametrize("spec", ACTION_LAW_GROUPS, ids=lambda s: f"{s.label()}-{s.rep_dim}")
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_action_laws_hold_for_every_group(spec, n, monkeypatch):
    """Unit and composition laws of every ``act_*`` at the suite's 1e-12 bound;
    on one base axis there is no curvature to act on."""
    monkeypatch.setattr(harness, "AXIOM_BATCH", 16)
    res = run_suite(small_cfg(group=spec, patch=Patch((5,) * n, spacing=0.2)), "action_axioms")
    carriers = ACTION_CARRIERS if n > 1 else ACTION_CARRIERS[:-1]
    assert list(res.details) == [f"{c}_{law}" for c in carriers for law in ("unit", "compose")]
    assert res.tolerance == 1e-12
    assert res.status == "pass", res.details


@pytest.mark.parametrize(
    "suite, name, calls",
    [
        ("minimal_coupling_invariance", "covariant_derivative", 2),
        ("minimal_coupling_negative", "covariant_derivative", 2),
        ("mechanics_reduction", "covariant_derivative", 2),
        ("theorem_ginv1", "covariant_derivative", 1 + harness.GINV_TRANSFORMS),
        ("theorem_ginv2", "curvature", 1 + harness.GINV_TRANSFORMS),
        ("gauge_to_zero_1", "act_connection", 2),
        ("jet_group_axioms", "jet1_inv", 1),
        ("jet_group_axioms", "jet2_inv", 1),
    ],
)
def test_suites_compute_each_datum_once(suite, name, calls, monkeypatch):
    """One covariant derivative per (potential, matter jet) pair, one field
    strength per connection jet, the round trip of ``gauge_to_zero_1``
    starts from the witness's moved potential, and the jet group laws take
    one inverse per order."""
    original, seen = getattr(harness, name), []

    def counting(*args, **kwargs):
        seen.append(name)
        return original(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "gaugejets" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    assert run_suite(small_cfg(), suite).status == "pass"
    assert len(seen) == calls


@pytest.mark.parametrize(
    "spec", [group_spec("su3", rep_dim=8), group_spec("sun", 4, 15)], ids=["su3-adjoint", "su4"]
)
def test_every_suite_draws_for_the_configured_group(spec, monkeypatch):
    """Each suite's random batches and sampled families are of ``cfg.group``,
    so a pass says something about the configured group."""
    seen = []

    def spy(module, name):
        original = getattr(module, name)

        def spying(*args, **kwargs):
            seen.append(next(a for a in args if isinstance(a, GroupSpec)))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, spying)

    spy(harness, "_random")
    spy(harness, "random_algebra_entries")
    for name in ("random_gauge_family", "random_matter_family", "random_connection_family"):
        spy(analytic, name)
    monkeypatch.setattr(harness, "AXIOM_BATCH", 16)
    cfg = small_cfg(group=spec, patch=Patch((5, 5), spacing=0.2))
    for suite in SUITES:
        seen.clear()
        run_suite(cfg, suite)
        assert seen and all(s == spec for s in seen), (suite, seen)


def test_jet_group_axioms_ignore_the_representation():
    """Jet products never read the representation: su3 and its adjoint
    draw the same jets and report the same bits, keyed by the group label."""
    fundamental, adjoint = (
        run_suite(small_cfg(group=group_spec("su3", rep_dim=k)), "jet_group_axioms")
        for k in (3, 8)
    )
    assert list(fundamental.details) == ["su3"]
    assert fundamental.details == adjoint.details
    assert fundamental.max_error == adjoint.max_error


@pytest.mark.parametrize(
    "spec, uses_eigh",
    [
        (group_spec("su2"), False),
        (group_spec("su3"), False),
        (group_spec("su3", rep_dim=8), False),
        (group_spec("sun", 4), True),
    ],
    ids=["su2", "su3", "su3-adjoint", "su4"],
)
def test_only_n_from_4_exponentiates_through_eigh(spec, uses_eigh, monkeypatch):
    """u(1), su(2) and su(3) take closed-form exponentials; LAPACK ``eigh``
    serves N >= 4 only."""
    original, seen = np.linalg.eigh, []

    def counting(*args, **kwargs):
        seen.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    monkeypatch.setattr(harness, "AXIOM_BATCH", 16)
    cfg = small_cfg(group=spec, patch=Patch((5, 5), spacing=0.2))
    for suite in SUITES:
        run_suite(cfg, suite)
    assert bool(seen) == uses_eigh


@pytest.mark.parametrize(
    "spec, patch, uses_gemm",
    [
        (group_spec("su2"), Patch((16, 16), spacing=0.2), False),
        (group_spec("su3", rep_dim=8), Patch((16, 16), spacing=0.2), False),
        (group_spec("su3"), Patch((5,) * 4, spacing=0.15), True),
        (group_spec("u1"), Patch((5,) * 4, spacing=0.15), False),
    ],
    ids=["su2-2d", "su3-adjoint-2d", "su3-4d", "u1-4d"],
)
def test_only_large_stacks_take_the_gemm(spec, patch, uses_gemm, monkeypatch):
    """The per-point GEMM serves N >= 2 stacks of at least ``GEMM_MIN_STACK``
    matrices, so 1-D and 2-D runs and u(1) keep the ``mm`` path, bit for bit."""
    original, seen = lie_core._gemm, []

    def counting(*args, **kwargs):
        seen.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(lie_core, "_gemm", counting)
    monkeypatch.setattr(harness, "AXIOM_BATCH", 16)
    cfg = small_cfg(group=spec, patch=patch)
    for suite in SUITES:
        run_suite(cfg, suite)
    assert bool(seen) == uses_gemm


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

    def test_details_carry_each_level_box(self):
        cfg = small_cfg(patch=Patch((16, 16), spacing=0.2), h_levels=(0.1, 0.07))
        details = convergence_study(cfg, "gauge_to_zero_1").details
        assert details["extents"] == [[31, 31], [44, 44]]
        assert details["lengths"] == [pytest.approx([3.0, 3.0]), pytest.approx([3.01, 3.01])]


def reference_draws(cls, rng, spec, n, batch):
    """The arrays of a random jet batch as hand-written per-type builders drew them."""

    def algebra(*stack):
        return random_algebra_entries(rng, spec, (batch, *stack))

    def vector(*stack):
        shape = (batch, *stack, spec.rep_dim)
        return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)

    if cls is JetConnection:
        return algebra(n), algebra(n, n)
    if cls is JetMatter:
        return vector(), vector(n)
    g = exp(AlgebraElement(spec, algebra())).entries
    if cls is Jet1Gauge:
        return g, algebra(n)
    a, s = algebra(n), algebra(n, n)
    return g, a, 0.5 * (s + np.swapaxes(s, -4, -3))


@pytest.mark.parametrize(
    "cls", [Jet1Gauge, Jet2Gauge, JetConnection, JetMatter], ids=lambda c: c.__name__
)
@pytest.mark.parametrize(
    "spec",
    [group_spec("u1"), group_spec("su2"), group_spec("su3", rep_dim=8), group_spec("sun", n=4)],
    ids=lambda s: f"{s.label()}-{s.rep_dim}",
)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_random_batches_keep_their_draws(cls, spec, n):
    """Suites draw their random jets through ``_random``; its draws, in order and
    value, are those of the per-type builders the reports were pinned with."""
    rng, ref_rng = seeded_rng(3, "draws"), seeded_rng(3, "draws")
    value = _random(cls, rng, spec, n, 5)
    assert type(value) is cls
    for name, ref in zip(cls.LAYOUT, reference_draws(cls, ref_rng, spec, n, 5)):
        arr = getattr(value, name)
        assert arr.dtype == ref.dtype and arr.tobytes() == ref.tobytes(), name
    assert rng.uniform() == ref_rng.uniform()


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

    @pytest.mark.parametrize("kind", ["group", "connection"])
    def test_sample_fd_needs_a_jet_kind(self, tmp_path, capsys, kind):
        out = tmp_path / "field.jgf1"
        assert cli_main(["sample", "--kind", kind, "--fd", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

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
        assert lines[0] == "suite,h,error,extent,length"
        assert len(lines) == 3
        assert [line.split(",")[3] for line in lines[1:]] == ["32x32", "63x63"]

    def test_converge_h_level_too_coarse_exit_code_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "patch": {"extent": [16, 16], "spacing": 0.2},
                    "h_levels": [10.0, 5.0],
                    "suites": ["maurer_cartan"],
                }
            )
        )
        assert cli_main(["converge", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
