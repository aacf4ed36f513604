"""Command line front end: single-episode simulation and Monte Carlo batches."""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .config import FEEDBACK_KINDS, PRESETS, ConfigError, RunConfig, load_config, preset_config
from .harness import _writable_path, compare_controllers, export_summary_csv, export_trace_csv, run_episode

_TRAJECTORY_TOKENS = {"square": "filtered_square", "triangle": "triangle", "sine": "sine"}


def _add_shared(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a JSON run configuration")
    source.add_argument("--preset", choices=PRESETS, help="shipped scenario preset")
    parser.add_argument("--trajectory", choices=sorted(_TRAJECTORY_TOKENS), help="reference waveform override")
    parser.add_argument("--steps", type=int, help="episode length override")
    parser.add_argument("--seed", type=int, help="seed (base seed for montecarlo) override")
    parser.add_argument("--feedback", choices=FEEDBACK_KINDS, help="control feedback signal override")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--force", action="store_true", help="overwrite an existing output file")


def _base_config(args: argparse.Namespace) -> RunConfig:
    """The loaded config with each override given: the ``RunConfig`` field of its name, and the trajectory's kind."""
    cfg = load_config(args.config) if args.config else preset_config(args.preset)
    names = ("steps", "seed", "feedback", "controller")  # montecarlo has no --controller
    updates = {name: value for name in names if (value := getattr(args, name, None)) is not None}
    if args.trajectory:
        updates["trajectory"] = replace(cfg.trajectory, kind=_TRAJECTORY_TOKENS[args.trajectory])
    return replace(cfg, **updates)


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"bad window {text!r}; expected lo:hi") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aldcontrol",
        description="Adaptive ensemble control simulator for plants with skewed Laplace measurement noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one episode and write its trace CSV")
    _add_shared(sim)
    sim.add_argument(
        "--controller",
        help="controller token: ensemble, rls, oracle, or single-ald:<i>",
    )

    mc = sub.add_parser("montecarlo", help="run paired Monte Carlo batches and write a summary CSV")
    _add_shared(mc)
    mc.add_argument("--runs", type=int, default=100, help="number of Monte Carlo runs per controller")
    mc.add_argument("--window", default="10:100", help="inclusive error window lo:hi")
    mc.add_argument(
        "--controllers",
        default="ensemble,rls,single-ald:0,oracle",
        help="comma separated controller tokens",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built on first use and kept for the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _base_config(args)
        _writable_path(args.out, args.force)  # before the first episode, not after the run
        if args.command == "simulate":
            trace = run_episode(cfg)
            export_trace_csv(trace, args.out, force=args.force)
            status = f"failed at step {trace.fail_step}" if trace.failed else "ok"
            print(f"wrote {args.out}: controller={cfg.controller} steps={cfg.steps} seed={cfg.seed} ({status})")
        else:
            tokens = [t.strip() for t in args.controllers.split(",") if t.strip()]
            window = _parse_window(args.window)
            summaries = compare_controllers(cfg, tokens, args.runs, window)
            export_summary_csv(summaries, args.out, force=args.force)
            for s in summaries:
                print(
                    f"{s.controller}: j_bar={s.j_bar_mean:.6g} over {s.runs_ok} runs"
                    f" ({s.runs_failed} failed), window {s.window[0]}:{s.window[1]}"
                )
            print(f"wrote {args.out}")
        return 0
    except (ValueError, OSError, MemoryError) as exc:  # a MemoryError: a run count too large to hold its errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
