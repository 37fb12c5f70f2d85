"""Harness configuration, reports, determinism, and the CLI surface."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from gaugejets import analytic, harness, lie_core
from gaugejets.cli import main as cli_main
from gaugejets.harness import (
    ConfigError,
    SUITES,
    SuiteConfig,
    SuiteResult,
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
    _trusted,
    exp,
    group_spec,
    random_algebra_entries,
    seeded_rng,
)
from gaugejets.patch import Field, Patch, RegionError, default_patch
from conftest import OVERFLOW_CONFIG, OVERFLOW_LINE_CONFIG, OVERFLOW_STAGES, SRC

# a line near the largest float: the plane waves of the matter sampler overflow there
WIDE_LINE_CONFIG = {"patch": {"extent": [6], "spacing": 1e294, "origin": 1.6e308}}

FAST_SUITES = (
    "action_axioms",
    "curvature_equivariance",
    "minimal_coupling_invariance",
    "minimal_coupling_negative",
    "utiyama_level_sets",
    "utiyama_negative",
    "mechanics_reduction",
)


def cli_process(argv):
    """``gaugejets`` run in a fresh interpreter, so its stderr shows numpy's warnings."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "gaugejets.cli", *argv], capture_output=True, text=True, env=env, timeout=300
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

    def test_unknown_suite_rejected(self):
        with pytest.raises(UnknownSuiteError):
            small_cfg(suites=("not_a_suite",))

    def test_dict_round_trip(self):
        cfg = small_cfg(suites=("action_axioms",), h_levels=(0.1, 0.05))
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
            {"output": "no/such/dir/report.json"},
            {"output": "."},
            {"patch": {"extent": [6, 6], "spacing": 0.2, "origin": [1e200, 0]}},
            {"patch": {"extent": [5, 5], "spacing": 1e308}},
            {"seed": 4294967297},
            {"seed": -4294967295},
            {"patch": {"extent": [5, 5], "spacing": 1e-310}, "suites": ["chain_rule_matter"]},
            {"patch": {"extent": [5, 5], "spacing": 1e-320}, "suites": ["chain_rule_matter"]},
            {"tolerances": {"action_axioms": 1e-11}, "suites": ["action_axioms"]},
        ],
        ids=["metric", "seed", "tolerance-key", "tolerance-list", "group-string",
             "top-level-list", "top-level-string", "output-number", "suites-string",
             "spacing-nan", "spacing-inf", "origin-nan", "extent-fraction", "n-fraction",
             "rep-dim-float", "h-level-nan", "tolerance-nan", "seed-bool", "spacing-bool",
             "origin-bool", "h-level-bool", "tolerance-bool", "unknown-key",
             "unknown-group-key", "unknown-patch-key", "spacing-string", "origin-string",
             "h-level-string", "output-dir-missing", "output-is-directory",
             "points-coincide", "points-overflow", "seed-above-range", "seed-negative",
             "spacing-subnormal", "spacing-deep-subnormal", "tolerances-override"],
    )
    def test_bad_values_rejected(self, bad, tmp_path, capsys):
        with pytest.raises(ConfigError):
            SuiteConfig.from_dict(bad)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "bad",
        [
            {"patch": {"extent": [6, 6], "spacing": 10**400}},
            {"patch": {"extent": [6, 6], "origin": [0, 10**400]}},
            {"h_levels": [10**400, 0.02]},
        ],
        ids=["spacing", "origin", "h-levels"],
    )
    def test_integer_beyond_the_floats_exits_2(self, bad, tmp_path, capsys):
        """An integer that no float holds, where the schema reads a float, is a
        config error: ``float`` raises ``OverflowError`` for it, not ``ValueError``."""
        with pytest.raises(ConfigError):
            SuiteConfig.from_dict(bad)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(bad))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_unallocatable_extent_exits_2(self, tmp_path, capsys):
        """numpy refuses a 10^15-point axis at once, without allocating any of it;
        the patch's grid rule reports the axis, and the CLI exits 2."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"patch": {"extent": [10**15, 5]}}))
        assert cli_main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "axis 0" in err and err.count("\n") == 1

    def test_smallest_normal_spacing_runs(self):
        """The spacing floor is the smallest normal float: there 1 / 2h is finite, so
        a central difference of bounded data is too."""
        cfg = small_cfg(patch=Patch((5, 5), spacing=np.finfo(float).tiny), suites=tuple(SUITES))
        assert len(run(cfg).suites) == len(SUITES)

    def test_largest_seed_runs(self):
        """Seeds span [0, 2**32); the ones outside are refused above, so none alias."""
        assert run_suite(small_cfg(seed=2**32 - 1), "gauge_to_zero_1").status == "pass"

    def test_suites_string_is_not_split(self):
        # a bare string must not be read as a sequence of one-letter suite names
        with pytest.raises(ConfigError, match="suites must be a list"):
            SuiteConfig.from_dict({"suites": "action_axioms"})


class TestRun:
    def test_empty_suite_list_passes(self):
        # no suites named: every registered suite runs, so a pass checked something
        report = run(small_cfg())
        assert report.overall == "pass"
        assert [r.name for r in report.suites] == list(SUITES)

    def test_zero_tolerance_fails(self):
        """At the smallest normal spacing h^2 underflows, so an fd tolerance is 0.0:
        an error of 0.0 within it checks nothing, and the verdict says why."""
        fd = ("jet_functoriality", "chain_rule_matter", "maurer_cartan")
        report = run(small_cfg(patch=Patch((5, 5), spacing=np.finfo(float).tiny), suites=fd))
        for res in report.suites:
            assert (res.status, res.tolerance) == ("fail", 0.0), res.name
            assert "not positive and finite" in res.details["invalid_tolerance"]

    def test_report_json_is_strict(self, tmp_path):
        """A non-finite float is written as a string, never as a bare NaN or
        Infinity token, which strict (RFC 8259) parsers refuse."""
        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        out = tmp_path / "report.json"
        suites = ("theorem_ginv1", "theorem_ginv2")
        report = run(SuiteConfig(patch=Patch((6, 6), spacing=1e-4), suites=suites, output=str(out)))
        assert [r.max_error for r in report.suites] == [math.inf, math.inf]
        data = json.loads(out.read_text(), parse_constant=refuse)
        assert [s["max_error"] for s in data["suites"]] == ["inf", "inf"]
        assert report.to_dict()["suites"][0]["max_error"] == math.inf  # the digests' form is unchanged

    @pytest.mark.parametrize(
        "config, names",
        [
            (OVERFLOW_CONFIG, OVERFLOW_STAGES),
            (OVERFLOW_LINE_CONFIG, {"mechanics_reduction": "free"}),
        ],
        ids=["plane", "line"],
    )
    def test_non_finite_density_fails_and_names_it(self, config, names, tmp_path):
        """Where the sampled data overflow, each suite that reads them fails with a
        NaN error whose details name the first non-finite stage (the density, for
        the action suites), and the CLI exits 1 instead of raising."""
        path, out = tmp_path / "overflow.json", tmp_path / "report.json"
        path.write_text(json.dumps(config))
        suites = [arg for name in names for arg in ("--suite", name)]
        assert cli_main(["run", "--config", str(path), *suites, "--out", str(out)]) == 1
        verdicts = {
            s["name"]: (s["status"], s["max_error"], s["details"]["non_finite"])
            for s in json.loads(out.read_text())["suites"]
        }
        assert verdicts == {name: ("fail", "nan", density) for name, density in names.items()}

    @pytest.mark.parametrize("config", [OVERFLOW_CONFIG, OVERFLOW_LINE_CONFIG], ids=["plane", "line"])
    def test_overflow_prints_no_warning(self, config, tmp_path):
        """Every suite runs on the overflowing data and the CLI exits 1; numpy's
        overflow and invalid warnings stay off stderr, since each NaN error
        already names its cause in its details."""
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(config))
        done = cli_process(["run", "--config", str(path)])
        assert done.returncode == 1 and "overall: fail" in done.stdout
        assert "Warning" not in done.stderr, done.stderr

    def test_sub_errors_combine_to_nan(self):
        assert math.isnan(harness._worst(1.0, math.nan)) and harness._worst(1.0, 2.0) == 2.0

    @pytest.mark.parametrize(
        "config, seed, suite, stage",
        [
            ({**OVERFLOW_CONFIG, "group": {"family": "sun", "n": 4}}, None, "jet_functoriality", "gauge_1"),
            ({**OVERFLOW_CONFIG, "group": {"family": "sun", "n": 4}}, None, "maurer_cartan", "gauge"),
            (OVERFLOW_CONFIG, 1, "chain_rule_matter", "gauge"),
            (WIDE_LINE_CONFIG, 1, "theorem_ginv1", "free"),
            (WIDE_LINE_CONFIG, 1, "mechanics_reduction", "free"),
        ],
        ids=["su4-functoriality", "su4-maurer-cartan", "chain-rule-matter", "ginv1-line", "mechanics-line"],
    )
    def test_non_finite_samples_end_in_a_named_nan(self, config, seed, suite, stage):
        """Non-finite samples, through ``eigh`` (su(4)) or the plane-wave matter
        sampler, give a NaN verdict naming its first non-finite stage, never an error."""
        cfg = SuiteConfig.from_dict({**config, "seed": seed} if seed is not None else config)
        res = run_suite(cfg, suite)
        assert (res.status, math.isnan(res.max_error), res.details["non_finite"]) == ("fail", True, stage)

    @pytest.mark.parametrize(
        "producer, call, suite, stage",
        [
            ("jet2_mul", 1, "jet_functoriality", "jet2_product"),
            ("act_jet_matter", 1, "chain_rule_matter", "moved_jet"),
            ("act_jet_connection", 1, "chain_rule_connection", "moved_jet"),
            ("jet1_inv", 1, "gauge_to_zero_1", "round_trip"),
            ("curvature", 2, "gauge_to_zero_2", "curvature"),
            ("maurer_cartan_defect", 1, "maurer_cartan", "defect"),
        ]
        + [
            ("distance", 1, suite, "comparison")
            for suite in (
                "jet_functoriality", "chain_rule_matter", "chain_rule_connection",
                "gauge_to_zero_1", "gauge_to_zero_2",
            )
        ],
    )
    def test_a_later_nan_stage_is_named(self, producer, call, suite, stage, monkeypatch):
        """On finite samples, a NaN made by a later stage is named by that stage:
        every stage before it is searched and found finite, in the order the suite
        computes them; a NaN made only by the comparison names ``comparison``."""
        original, calls = getattr(harness, producer), []

        def nan_like(x):
            if isinstance(x, Field):
                return Field(x.patch, nan_like(x.value), x.margin)
            if hasattr(x, "LAYOUT"):
                values = (getattr(x, f.name) for f in fields(x))
                return _trusted(type(x), *(nan_like(v) if isinstance(v, np.ndarray) else v for v in values))
            return np.full_like(x, math.nan)

        def poisoned(*args):
            calls.append(producer)
            out = original(*args)
            return nan_like(out) if len(calls) == call else out

        monkeypatch.setattr(harness, producer, poisoned)
        res = run_suite(small_cfg(), suite)
        assert len(calls) >= call
        assert (res.status, math.isnan(res.max_error), res.details["non_finite"]) == ("fail", True, stage)

    @pytest.mark.parametrize(
        "suite, density, violation",
        [
            ("minimal_coupling_negative", "matter_density", "violation"),
            ("utiyama_negative", "gauge_density", "min_violation"),
        ],
    )
    def test_nan_violation_fails_a_negative_control(self, suite, density, violation, monkeypatch):
        """A NaN violation is no violation: ``max(0.0, nan)`` would be 0.0 and pass."""
        original = getattr(harness, density)

        def nan_broken(*args):
            return {**original(*args), "broken": np.full(args[0].batch_shape, math.nan)}

        monkeypatch.setattr(harness, density, nan_broken)
        res = run_suite(small_cfg(), suite)
        assert res.status == "fail" and math.isnan(res.max_error) and math.isnan(res.details[violation])

    def test_deterministic_reports(self, tmp_path):
        cfg = small_cfg(suites=FAST_SUITES)
        a = strip_runtime(run(cfg).to_dict())
        b = strip_runtime(run(cfg).to_dict())
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_pass_rule_uniform(self):
        report = run(small_cfg(suites=FAST_SUITES))
        for res in report.suites:
            assert (res.status == "pass") == (res.max_error <= res.tolerance)

    def test_tolerance_override_forces_failure(self, monkeypatch):
        monkeypatch.setitem(SUITES, "action_axioms", replace(SUITES["action_axioms"], bound=1e-30))
        report = run(small_cfg(suites=("action_axioms",)))
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
    monkeypatch.setattr(harness, "BATCH", 16)
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
    monkeypatch.setattr(harness, "BATCH", 16)
    cfg = small_cfg(group=spec, patch=Patch((5, 5), spacing=0.2))
    for suite in SUITES:
        seen.clear()
        run_suite(cfg, suite)
        assert seen and all(s == spec for s in seen), (suite, seen)


@pytest.mark.parametrize("suite", ["theorem_ginv1", "theorem_ginv2", "mechanics_reduction"])
@pytest.mark.parametrize("patch", [Patch((7, 6), 0.2), Patch((5, 6, 5, 7), 0.15)], ids=["2d", "4d"])
def test_theorem_suites_sample_only_their_region(suite, patch, monkeypatch):
    """The action suites integrate over ``interior(1)`` of their patch (for
    ``mechanics_reduction`` the default line, these patches not being 1-D), so
    every sampled family and every ``exp`` of a sampled group field covers
    exactly its points; the closed forms need no boundary layer."""
    interior = (default_patch(1) if suite == "mechanics_reduction" else patch).interior(1)
    shape = tuple(b - a for a, b in zip(interior.lo, interior.hi))
    grids = []

    def spy(name, grid_of):
        original = getattr(analytic, name)

        def spying(*args):
            grids.append((name, grid_of(*args)))
            return original(*args)

        monkeypatch.setattr(analytic, name, spying)

    for name in ("sample_gauge", "sample_connection", "sample_matter"):
        spy(name, lambda grid, spec, family: grid.extent)
    spy("exp", lambda x: x.entries.shape[:-2])
    run_suite(small_cfg(group=group_spec("su3"), patch=patch), suite)
    assert {name for name, _ in grids} >= {"sample_gauge", "sample_connection", "exp"}
    assert all(grid == shape for _, grid in grids), grids


def _schema_groups(max_n):
    """u1 and su2 to su(max_n), each in its fundamental and adjoint representation."""
    out = [group_spec("u1")]
    for n in range(2, max_n + 1):
        fundamental = group_spec({2: "su2", 3: "su3"}.get(n, "sun"), n=n)
        out += [fundamental, group_spec(fundamental.family.value, n=n, rep_dim=n * n - 1)]
    return out


# m * 10^k, m in [1, 10): log-uniform over the positive floats, from the subnormals
# to past the largest (inf), whose draws ``Patch`` refuses
LOG_UNIFORM = st.builds(lambda m, k: m * 10.0**k, st.floats(1.0, 10.0, exclude_max=True), st.integers(-323, 308))


@st.composite
def accepted_configs(draw, max_n):
    """A config the schema accepts: 1-4-D, extents 5-9 (at most 2,000 points),
    per-axis spacing and origin magnitude log-uniform over the floats (an
    origin may also be 0 or negative), either metric.  Draws that ``Patch``
    refuses, points that coincide or overflow, are rejected."""
    dim = draw(st.integers(1, 4))

    def per_axis(values):
        return st.lists(values, min_size=dim, max_size=dim).map(tuple)

    extent = draw(per_axis(st.integers(5, 9)).filter(lambda e: math.prod(e) <= 2000))
    spacing = draw(per_axis(LOG_UNIFORM))
    origin = draw(per_axis(st.one_of(st.just(0.0), LOG_UNIFORM, LOG_UNIFORM.map(lambda x: -x))))
    try:
        patch = Patch(extent, spacing, origin)
    except RegionError:
        reject()
    return SuiteConfig(
        group=draw(st.sampled_from(_schema_groups(max_n))),
        patch=patch,
        seed=draw(st.integers(0, 2**31 - 1)),
        metric=draw(st.sampled_from(["euclidean", "minkowski"])),
    )


def _every_suite_ends_in_a_verdict(cfg):
    """Each suite returns a verdict; a NaN error names its first non-finite
    stage, and a tolerance that is not positive and finite says so."""
    for suite in SUITES:
        result = run_suite(cfg, suite)
        assert isinstance(result, SuiteResult) and result.status in ("pass", "fail"), suite
        if math.isnan(result.max_error):
            assert result.status == "fail" and "non_finite" in result.details, (suite, result.details)
        if not 0 < result.tolerance < math.inf:
            assert result.status == "fail" and "invalid_tolerance" in result.details, suite


@given(accepted_configs(max_n=4))
@settings(max_examples=6, derandomize=True, deadline=None)
def test_every_accepted_config_ends_in_a_verdict(cfg):
    """Every suite returns a verdict, pass or fail, and never raises, for any
    config the schema accepts, from the smallest spacing to the largest origin."""
    _every_suite_ends_in_a_verdict(cfg)


@pytest.mark.slow
@given(accepted_configs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_every_accepted_config_ends_in_a_verdict_up_to_su6(cfg):
    _every_suite_ends_in_a_verdict(cfg)


VALID_CONFIG = {
    "group": {"family": "su2", "n": 2, "rep_dim": 2},
    "patch": {"extent": [6, 6], "spacing": 0.2, "origin": [0.0, 0.0]},
    "seed": 1,
    "suites": ["gauge_to_zero_1"],
    "h_levels": [0.04, 0.02],
    "output": None,
    "metric": "euclidean",
}
CONFIG_KEYS = [
    ("group",), ("group", "family"), ("group", "n"), ("group", "rep_dim"), ("patch",),
    ("patch", "extent"), ("patch", "spacing"), ("patch", "origin"), ("seed",), ("suites",),
    ("h_levels",), ("output",), ("metric",), ("extra",), ("patch", "extra"),
]
ODD_JSON = [
    None, True, False, 0, -1, 3, 2**32, 2**64, 10**400, 0.0, -0.0, 1e-320, 0.5, 1e308,
    math.nan, math.inf, -math.inf, "", "su2", "sun", "minkowski", "/", "0.2", [], [[]],
    [5, 5], [5, 5, 5, 5, 5, 5, 5], [0.2, "0.2"], [1e308, -1e308], [math.nan, 0.1],
    [10**15, 5], [True, 5], ["gauge_to_zero_1", 5], {}, {"family": "sun"}, {"extent": [5]},
    {"n": 10**400},
]


def _only_config_errors(changes):
    data = json.loads(json.dumps(VALID_CONFIG))
    for path, value in changes:
        *parents, key = path
        section = data
        for name in parents:
            section = section.get(name) if isinstance(section, dict) else None
        if isinstance(section, dict):
            section[key] = json.loads(json.dumps(value))  # a copy: pool values are shared
    try:
        SuiteConfig.from_dict(data)
    except ConfigError:
        pass


ODD_CHANGES = st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from(ODD_JSON)), min_size=1, max_size=3)


@given(ODD_CHANGES)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_odd_config_values_raise_only_config_errors(changes):
    """A valid config with 1-3 keys set to odd JSON values (non-finite or huge
    numbers, booleans, strings, nested lists and objects) is accepted or
    refused with ``ConfigError``, never another exception."""
    _only_config_errors(changes)


@pytest.mark.slow
@given(ODD_CHANGES)
@settings(max_examples=5000, deadline=None)
def test_odd_config_values_raise_only_config_errors_many(changes):
    _only_config_errors(changes)


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
    monkeypatch.setattr(harness, "BATCH", 16)
    cfg = small_cfg(group=spec, patch=Patch((5, 5), spacing=0.2))
    for suite in SUITES:
        run_suite(cfg, suite)
    assert bool(seen) == uses_eigh


@pytest.mark.parametrize(
    "spec, patch, conjugates_by_gemm",
    [
        (group_spec("su2"), Patch((16, 16), spacing=0.2), False),
        (group_spec("su3", rep_dim=8), Patch((16, 16), spacing=0.2), False),
        (group_spec("su3"), Patch((5,) * 4, spacing=0.15), True),
        (group_spec("u1"), Patch((5,) * 4, spacing=0.15), False),
    ],
    ids=["su2-2d", "su3-adjoint-2d", "su3-4d", "u1-4d"],
)
def test_only_large_stacks_take_the_gemm(spec, patch, conjugates_by_gemm, monkeypatch):
    """Conjugation takes the per-point GEMM only for N >= 2 and stacks of at
    least ``GEMM_MIN_STACK`` matrices per point, so 1-D and 2-D runs and u(1)
    keep ``ad``'s bits; pair products take it at every size.  Each
    ``_ad_kron`` call makes one GEMM, so the GEMMs beyond those are pair
    products."""
    seen = {"_ad_kron": 0, "_gemm": 0}

    def spy(name):
        original = getattr(lie_core, name)

        def counting(*args):
            seen[name] += 1
            return original(*args)

        monkeypatch.setattr(lie_core, name, counting)

    spy("_ad_kron")
    spy("_gemm")
    monkeypatch.setattr(harness, "BATCH", 16)
    cfg = small_cfg(group=spec, patch=patch)
    for suite in SUITES:
        run_suite(cfg, suite)
    assert bool(seen["_ad_kron"]) == conjugates_by_gemm
    assert seen["_gemm"] > seen["_ad_kron"]


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
        # no --suite and no suites key: every registered suite runs
        assert cli_main(["run"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS ") == len(SUITES) and "overall: pass" in out

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

    def test_failing_suite_exit_code_1(self, tmp_path, monkeypatch):
        monkeypatch.setitem(SUITES, "action_axioms", replace(SUITES["action_axioms"], bound=1e-30))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"patch": {"extent": [16, 16]}, "suites": ["action_axioms"]}))
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["converge", "--suite", "chain_rule_matter", "--csv", "{tmp}/missing/x.csv"],
            ["converge", "--suite", "chain_rule_matter", "--csv", "{tmp}"],
            ["converge", "--suite", "chain_rule_matter", "--out", "{tmp}"],
            ["run", "--suite", "theorem_ginv2", "--out", "{tmp}"],
            ["sample", "--out", "{tmp}"],
        ],
        ids=["csv-dir-missing", "csv-is-directory", "converge-out-is-directory",
             "run-out-is-directory", "sample-out-is-directory"],
    )
    def test_bad_output_path_refused_before_any_suite(self, tmp_path, capsys, monkeypatch, argv):
        ran = []
        monkeypatch.setattr(harness, "run_suite", lambda cfg, name: ran.append(name))
        monkeypatch.setattr(harness, "convergence_study", lambda cfg, name: ran.append(name))
        assert cli_main([arg.format(tmp=tmp_path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert ran == []

    @pytest.mark.parametrize(
        "argv", [["converge"], ["sample", "--kind", "jet2-gauge"]], ids=["converge", "sample"]
    )
    def test_overflow_config_exits_2_in_one_line(self, tmp_path, argv):
        """``converge`` cannot refine the overflowing patch, and the JGF1 writer
        refuses its non-finite jets and removes the file: each exits 2 with one
        stderr line and no warning."""
        path, out = tmp_path / "overflow.json", tmp_path / "out.jgf1"
        path.write_text(json.dumps(OVERFLOW_CONFIG))
        done = cli_process([*argv, "--config", str(path), "--out", str(out)])
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error:") and done.stderr.count("\n") == 1, done.stderr
        assert not out.exists()

    def test_sample_takes_no_suite(self, tmp_path, capsys):
        """``sample`` runs no suite, so it refuses ``--suite`` instead of ignoring it."""
        out = tmp_path / "field.jgf1"
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["sample", "--kind", "group", "--suite", "maurer_cartan", "--out", str(out)])
        assert exit_info.value.code == 2 and "--suite" in capsys.readouterr().err
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
