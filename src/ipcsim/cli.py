"""Command-line interface.

    ipcsim run CONFIG [--case ID] [--out DIR] [--seed N] [--log-level L]
    ipcsim campaign CONFIG|--default [--jobs N] [--out DIR]
    ipcsim compare OUT_DIR --baseline cpc

Exit codes: 0 success, 1 configuration error, 2 at least one run failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    CampaignReport,
    ConfigError,
    compare,
    default_campaign,
    load_config_file,
    run_campaign,
    run_load_case,
)

log = logging.getLogger("ipcsim")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipcsim",
        description="Fault-tolerant individual pitch control simulator",
    )
    parser.add_argument("--log-level", default="INFO",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one load case from a config file")
    p_run.add_argument("config", help="JSON config (single case or campaign)")
    p_run.add_argument("--case", help="case id to run when the config holds several")
    p_run.add_argument("--out", help="output directory (series, logs, metrics)")
    p_run.add_argument("--seed", type=int, help="override the configured seed")

    p_camp = sub.add_parser("campaign", help="run every load case in a campaign")
    p_camp.add_argument("config", nargs="?", help="campaign JSON (omit with --default)")
    p_camp.add_argument("--default", action="store_true",
                        help="run the shipped 54-run default campaign")
    p_camp.add_argument("--jobs", type=int, default=1,
                        help="worker processes (>= 1; at most one per case)")
    p_camp.add_argument("--out", default="campaign_out")

    p_cmp = sub.add_parser("compare", help="cross-controller comparison table")
    p_cmp.add_argument("out_dir", help="campaign output directory")
    p_cmp.add_argument("--baseline", default="cpc")
    p_cmp.add_argument("--json", action="store_true", help="emit JSON instead of text")
    return parser


def _cmd_run(args) -> int:
    configs = load_config_file(args.config)
    if args.case is not None:
        configs = [c for c in configs if c.id == args.case]
        if not configs:
            raise ConfigError(f"no case with id {args.case!r} in {args.config}")
    if len(configs) != 1:
        raise ConfigError("config holds several cases; select one with --case")
    cfg = configs[0]
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    log.info("running %s (controller=%s, seed=%d)", cfg.id, cfg.controller, cfg.seed)
    result = run_load_case(cfg)
    if args.out:
        result.save(args.out)
        log.info("saved to %s", Path(args.out) / cfg.id)
    print(json.dumps(result.metrics, indent=1, sort_keys=True))
    return 0


def _cmd_campaign(args) -> int:
    if args.default:
        configs = default_campaign()
    elif args.config:
        configs = load_config_file(args.config)
    else:
        raise ConfigError("campaign needs a config file or --default")
    log.info("campaign: %d load cases, jobs=%d", len(configs), args.jobs)
    report: CampaignReport = run_campaign(configs, parallelism=args.jobs, out_dir=args.out)
    for status in report.statuses:
        if status.ok:
            log.info("done %-28s (%.1f s)", status.id, status.wall_time_s)
        else:
            log.error("FAILED %-28s %s", status.id, status.error)
    n_fail = len(report.failed)
    print(f"{len(report.statuses) - n_fail}/{len(report.statuses)} runs succeeded; "
          f"outputs in {args.out}")
    return 2 if n_fail else 0


def _read_metrics(mfile: Path) -> dict:
    """A run's metrics.json; ConfigError unless it holds what `compare` reads."""
    try:
        m = json.loads(mfile.read_text())
        for key in ("id", "group", "controller"):  # TypeError on a non-object
            if not isinstance(m[key], str):
                raise ValueError(f"{key} must be a string, got {m[key]!r}")
        blade = m["faulty_blade"]
        if not (blade is None or (type(blade) is int and blade in (1, 2, 3))):
            raise ValueError(f"faulty_blade must be null or 1, 2 or 3, got {blade!r}")
        for b in ("blade1", "blade2", "blade3"):
            faulty = m["faulty"][b]
            for key in ("sd_y", "adc"):  # OverflowError on an int past the float range
                if type(faulty[key]) not in (int, float) or not math.isfinite(faulty[key]):
                    raise ValueError(f"faulty {b} {key} must be finite, got {faulty[key]!r}")
                faulty[key] = float(faulty[key])
    except OSError as exc:
        raise ConfigError(f"cannot read {mfile}: {exc}") from exc
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{mfile} is not a run's metrics object "
                          f"({type(exc).__name__}: {exc})") from exc
    return m


def _cmd_compare(args) -> int:
    out_dir = Path(args.out_dir)
    metrics = {}
    for mfile in sorted(out_dir.glob("*/metrics.json")):
        m = _read_metrics(mfile)
        metrics[m["id"]] = m
    if not metrics:
        raise ConfigError(f"no run metrics found under {out_dir}")
    table = compare(metrics, baseline=args.baseline)
    print(table.to_json() if args.json else table.to_text())
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        return _cmd_compare(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 1
    except ValueError as exc:
        log.error("%s", exc)
        return 1
    except RuntimeError as exc:
        log.error("run failed: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
