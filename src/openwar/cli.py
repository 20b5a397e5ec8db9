"""Batch command-line surface.

Subcommands: validate, simulate, war, boot, pythag.  Every command is
deterministic given its flags; CSV outputs carry the run configuration as a
leading comment, and valuation.json as its "config" key (comparisons.json
is a bare list of comparisons).  Exit codes: 0 success,
1 validation failure, 2 configuration error, 3 internal (numeric or
worker) failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .events import SEASON_HEADER, parse_season
from .numerics import BandwidthError
from .pipeline import run_pipeline
from .simulate import synthetic_season_batches
from .uncertainty import WorkerError, bootstrap_war, comparison_json
from .valuation import (
    DEFAULT_CUTOFF_PITCH,
    DEFAULT_CUTOFF_POS,
    DEFAULT_RUNS_PER_WIN,
    runs_per_win,
    valuation_csv,
    valuation_json,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="openwar",
        description="Conservation-of-runs player valuation for play-by-play "
                    "baseball data.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a season CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--strict", dest="strict", action="store_true", default=True)
    p.add_argument("--lenient", dest="strict", action="store_false")

    p = sub.add_parser("simulate", help="generate a synthetic season CSV")
    p.add_argument("--games", type=int, default=50)
    p.add_argument("--teams", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")

    for name in ("war", "boot"):
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--input", required=True)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--cutoff-pos", type=int, default=DEFAULT_CUTOFF_POS)
        p.add_argument("--cutoff-pitch", type=int,
                       default=DEFAULT_CUTOFF_PITCH)
        p.add_argument("--runs-per-win", type=float,
                       default=DEFAULT_RUNS_PER_WIN)
        p.add_argument("--pythag-p", type=float, default=None)
        p.add_argument("--pythag-r", type=float, default=None)
        p.add_argument("--bandwidth-x", type=float, default=None)
        p.add_argument("--bandwidth-y", type=float, default=None)
        p.add_argument("--strict", dest="strict", action="store_true", default=True)
        p.add_argument("--lenient", dest="strict", action="store_false")
        if name == "boot":
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--replicates", type=int, default=3500)
            p.add_argument("--compare", nargs=2, action="append", default=[],
                           metavar=("PLAYER_A", "PLAYER_B"))

    p = sub.add_parser("pythag", help="runs-per-win from the Pythagorean gradient")
    p.add_argument("--pythag-p", type=float, required=True)
    p.add_argument("--pythag-r", type=float, required=True)
    return parser


def _config_echo(args):
    skip = {"command"}
    cfg = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return json.dumps(cfg, sort_keys=True)


def _write(out, texts, config_line):
    """Write `texts` (file name: text, all computed before any is written)
    into the directory `out`, each CSV after a `# config:` comment line."""
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        if name.endswith(".csv"):
            text = f"# config: {config_line}\n" + text
        (out / name).write_text(text, encoding="utf-8")


class ConfigError(Exception):
    """Flags that parse but do not make a configuration."""


def _pair(args, a, b):
    """The values of a pair of flags, or None when neither is given."""
    pair = (getattr(args, a), getattr(args, b))
    if pair.count(None) == 1:
        raise ConfigError(
            f"--{a} and --{b} must be given together".replace("_", "-"))
    return None if pair[0] is None else pair


def _resolve_rpw(args):
    pythag = _pair(args, "pythag_p", "pythag_r")
    if pythag is None:
        rpw = args.runs_per_win
    else:
        try:
            rpw = runs_per_win(*pythag)
        except ValueError as exc:
            raise ConfigError(f"--pythag-p and --pythag-r: {exc}") from exc
    if not (math.isfinite(rpw) and rpw > 0):
        raise ConfigError(f"runs per win must be positive and finite, "
                          f"not {rpw!r}")
    return rpw


def _bandwidth(args):
    pair = _pair(args, "bandwidth_x", "bandwidth_y")
    if pair is not None and not all(math.isfinite(h) and h > 0 for h in pair):
        raise ConfigError(f"--bandwidth-x and --bandwidth-y must be positive "
                          f"and finite, not {pair[0]!r} and {pair[1]!r}")
    return pair


def _non_negative(name, value):
    if value < 0:
        raise ConfigError(f"--{name} must be >= 0, not {value}")
    return value


def _seed(args):
    """The seed of `simulate` and `boot`: --seed, else OPENWAR_SEED, else 0.
    It is stored back in `args`, so the config line records it."""
    source = "--seed"
    if args.seed is None:
        source, env = "OPENWAR_SEED", os.environ.get("OPENWAR_SEED") or "0"
        try:
            args.seed = int(env)
        except ValueError:
            raise ConfigError(
                f"OPENWAR_SEED must be an integer, not {env!r}") from None
    if args.seed < 0:
        raise ConfigError(f"{source} must be >= 0, not {args.seed}")
    return args.seed


def _load(args):
    # newline="" hands the parser the line ends as written
    with open(args.input, encoding="utf-8", newline="") as fh:
        return parse_season(fh, "strict" if args.strict else "lenient")


def cmd_validate(args):
    dataset, report = _load(args)
    print(f"records: {len(dataset)}")
    print(f"dropped: {report.dropped}")
    for w in report.warnings:
        print(f"warning: {w}")
    if report.dropped:
        return EXIT_VALIDATION
    print("ok")
    return EXIT_OK


def cmd_simulate(args):
    seed = _seed(args)
    if args.games < 1:
        raise ConfigError(f"--games must be >= 1, not {args.games}")
    if args.teams < 2:
        raise ConfigError(f"--teams must be >= 2, not {args.teams}")
    batches, _ = synthetic_season_batches(args.games, seed, teams=args.teams)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    rows = 0
    with open(out, "w", encoding="utf-8") as f:
        f.write(f"# config: {_config_echo(args)}\n")
        f.write(SEASON_HEADER)
        for batch in batches:
            f.write(batch)
            rows += batch.count("\n")
    print(f"wrote {rows} plate appearances to {args.out}")
    return EXIT_OK


def _run(args, compare=()):
    """Check the flags, parse the season, check that every player named
    in the `compare` pairs plays in it, run the pipeline, then check that
    each of them has a credit to resample."""
    bandwidth, rpw = _bandwidth(args), _resolve_rpw(args)
    _non_negative("cutoff-pos", args.cutoff_pos)
    _non_negative("cutoff-pitch", args.cutoff_pitch)
    dataset, _ = _load(args)
    _check_compare(compare, dataset.player_ids, "not in the season")
    result = run_pipeline(
        dataset, bandwidth=bandwidth, cutoff_pos=args.cutoff_pos,
        cutoff_pitch=args.cutoff_pitch, rpw=rpw)
    _check_compare(compare, result.valuation.player_ids,
                   "with no credit in the season")
    return result


def _check_compare(compare, players, why):
    missing = sorted({pid for pair in compare for pid in pair}
                     - set(players))
    if missing:
        raise ConfigError(f"--compare players {why}: {', '.join(missing)}")


def cmd_war(args):
    result = _run(args)
    cfg, ledger = _config_echo(args), result.ledger
    texts = {"valuation.csv": valuation_csv(result.valuation),
             "valuation.json": valuation_json(result.valuation,
                                              json.loads(cfg)),
             "run_expectancy.csv": ledger.matrix.to_csv(),
             "fielding_surface.csv": ledger.surface_grid_csv(),
             "fielding_models.csv": ledger.fielding_models_csv()}
    out = Path(args.out)
    _write(out, texts, cfg)
    print(f"wrote valuation for {len(result.valuation)} players to {out}")
    return EXIT_OK


def cmd_boot(args):
    if args.replicates < 1:
        raise ConfigError(f"--replicates must be >= 1, not {args.replicates}")
    seed = _seed(args)
    result = _run(args, args.compare)
    credits, valuation = result.ledger.credits, result.valuation
    # the bootstrap workers are forked from this process and inherit its
    # pages, which their ru_maxrss counts: resample holding only what
    # resampling reads, not the season and the chains' internals
    del result
    dist = bootstrap_war(credits, valuation, args.replicates, seed)
    texts = {"war_quantiles.csv": dist.quantile_csv()}
    if args.compare:
        texts["comparisons.json"] = comparison_json(dist, args.compare)
    out = Path(args.out)
    _write(out, texts, _config_echo(args))
    print(f"wrote {args.replicates}-replicate quantiles to {out}")
    return EXIT_OK


def cmd_pythag(args):
    print(repr(_resolve_rpw(args)))
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "war": cmd_war,
    "boot": cmd_boot,
    "pythag": cmd_pythag,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches our config-error code
        return int(exc.code or 0) and EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        # LinAlgError subclasses ValueError, so it must be caught first
        print(json.dumps({"error": str(exc), "kind": "numeric"}), file=sys.stderr)
        return EXIT_NUMERIC
    except WorkerError as exc:
        print(json.dumps({"error": str(exc), "kind": "worker"}), file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError, ConfigError) as exc:
        # a BandwidthError is a ValueError, but the flags' fault
        kind = ("validation" if isinstance(exc, ValueError)
                and not isinstance(exc, BandwidthError) else "config")
        print(json.dumps({"error": str(exc), "kind": kind}), file=sys.stderr)
        return EXIT_VALIDATION if kind == "validation" else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
