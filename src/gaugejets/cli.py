"""Command-line harness: run suites, convergence studies, sample/inspect fields.

Exit codes: 0 all checks passed, 1 at least one suite failed, 2 usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analytic, jgf
from .harness import ConfigError, Report, SUITES, SuiteConfig, converge, run
from .jets import jet1_of, jet2_of, jet_connection_of, jet_matter_of
from .lie_core import seeded_rng

# kind -> (random family, sampler, exact attribute, finite-difference jet or None)
SAMPLES = {
    "group": (analytic.random_gauge_family, analytic.sample_gauge, "values", None),
    "jet1-gauge": (analytic.random_gauge_family, analytic.sample_gauge, "jet1", jet1_of),
    "jet2-gauge": (analytic.random_gauge_family, analytic.sample_gauge, "jet2", jet2_of),
    "connection": (analytic.random_connection_family, analytic.sample_connection, "values", None),
    "jet-connection": (
        analytic.random_connection_family,
        analytic.sample_connection,
        "jet",
        jet_connection_of,
    ),
    "jet-matter": (analytic.random_matter_family, analytic.sample_matter, "jet", jet_matter_of),
}


def _load_config(args) -> SuiteConfig:
    """The JSON config with the --seed, --suite and --out flags merged in."""
    data = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    flags = {"seed": args.seed, "suites": args.suite, "output": args.out}
    if isinstance(data, dict):
        data.update((k, v) for k, v in flags.items() if v is not None)
    return SuiteConfig.from_dict(data)


def _print_report(report: Report) -> None:
    for res in report.suites:
        extra = ""
        if res.convergence_ratios:
            extra = " ratios=" + ",".join(f"{r:.3f}" for r in res.convergence_ratios)
        elif res.mode == "exact":
            extra = " (exact)"
        print(
            f"{res.status.upper():4s} {res.name:28s} "
            f"max_error={res.max_error:.3e} tol={res.tolerance:.3e}{extra}"
        )
    print(f"overall: {report.overall} (seed={report.seed}, config={report.config_hash})")


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    report = run(cfg)
    _print_report(report)
    return 0 if report.passed else 1


def _cmd_converge(args) -> int:
    report = converge(_load_config(args))
    if args.csv:
        lines = ["suite,h,error,extent,length"]
        for res in report.suites:
            d = res.details
            for h, e, ext, lens in zip(d["h_levels"], d["errors"], d["extents"], d["lengths"]):
                extent, length = "x".join(map(str, ext)), "x".join(map(repr, lens))
                lines.append(f"{res.name},{h!r},{e!r},{extent},{length}")
        Path(args.csv).write_text("\n".join(lines) + "\n")
    _print_report(report)
    return 0 if report.passed else 1


def _cmd_sample(args) -> int:
    family, sampler, exact, fd = SAMPLES[args.kind]
    if args.fd and fd is None:
        raise ConfigError(f"--fd needs a jet kind; {args.kind} has no finite-difference jet")
    cfg = _load_config(args)
    spec, patch = cfg.group, cfg.patch
    rng = seeded_rng(cfg.seed, "sample", args.kind)
    sample = sampler(patch, spec, family(rng, spec, patch.dim))
    out = fd(sample.values) if args.fd else getattr(sample, exact)
    jgf.write_field(out, args.out)
    print(f"wrote {args.kind} field to {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    print(jgf.describe(args.path))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugejets",
        description="Verify jet-level gauge invariance claims on grid patches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default=None):
        p.add_argument("--config", help="JSON config path (defaults are built in)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument(
            "--suite",
            action="append",
            metavar="NAME",
            help=f"suite to run (repeatable); known: {', '.join(sorted(SUITES))}",
        )
        p.add_argument("--out", default=out_default, help="report/field output path")

    p_run = sub.add_parser("run", help="run verification suites")
    common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_conv = sub.add_parser("converge", help="error-vs-h convergence study")
    common(p_conv)
    p_conv.add_argument("--csv", help="also write per-level error data as CSV")
    p_conv.set_defaults(fn=_cmd_converge)

    p_sample = sub.add_parser("sample", help="emit a sampled field as a JGF1 file")
    common(p_sample, out_default="field.jgf1")
    p_sample.add_argument("--kind", choices=SAMPLES, default="jet1-gauge")
    p_sample.add_argument(
        "--fd", action="store_true", help="store finite-difference jets instead of exact ones"
    )
    p_sample.set_defaults(fn=_cmd_sample)

    p_inspect = sub.add_parser("inspect", help="pretty-print a JGF1 field file")
    p_inspect.add_argument("path")
    p_inspect.set_defaults(fn=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, jgf.FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
