"""Command-line front end.

Subcommands: ``gen`` (synthetic machine + trace), ``run`` (experiments from
a config file), ``bounds`` (bound sweeps over the context order), and
``parse-stats`` (parse-tree diagnostics for a trace).

Exit codes: 0 ok, 1 usage, 2 config/domain, 3 data, 4 numeric.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds as bounds_mod
from .core import (CacheSet, ConfigError, DataError, DomainError, NumericError,
                   load_trace, save_trace)
from .datagen import generate_trace, random_fsm
from .fsm import Prefetcher, save_fsm
from .harness import parse_config, run_experiment, summarize, to_csv
from .lz import LzTree, depth_split_counts, dump_tree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="unicache",
                     description="Online caching policies with finite-state benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random machine and a zero-miss trace")
    gen.add_argument("--states", type=int, required=True)
    gen.add_argument("--files", type=int, required=True)
    gen.add_argument("--cache", type=int, required=True, help="per-state file array size")
    gen.add_argument("--rounds", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-prefix", required=True,
                     help="writes <prefix>.fsm and <prefix>.trace")
    gen.add_argument("--quiet", action="store_true")

    run = sub.add_parser("run", help="run experiments from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None, help="override the config's CSV output path")
    run.add_argument("--seed-base", type=int, default=0,
                     help="offset added to every configured seed")
    run.add_argument("--quiet", action="store_true")

    bnd = sub.add_parser("bounds", help="CSV sweep of the bound evaluators over the order k")
    bnd.add_argument("--files", type=int, required=True)
    bnd.add_argument("--cache", type=int, required=True)
    bnd.add_argument("--states", type=int, required=True)
    bnd.add_argument("--rounds", type=int, required=True)
    bnd.add_argument("--max-order", type=int, default=12)

    ps = sub.add_parser("parse-stats", help="parse-tree diagnostics for a trace")
    ps.add_argument("--trace", required=True)
    ps.add_argument("--dump", default=None, help="write node lines to this file")
    return parser


def _cmd_gen(args) -> int:
    spec, arrays = random_fsm(args.states, args.files, args.cache, args.seed)
    trace = generate_trace(spec, arrays, spec.initial_state, args.rounds, args.seed + 1)
    prefetcher = Prefetcher(caches=[CacheSet(frozenset(a), args.files) for a in arrays])
    fsm_path = f"{args.out_prefix}.fsm"
    trace_path = f"{args.out_prefix}.trace"
    save_fsm(spec, fsm_path, prefetcher)
    save_trace(trace, trace_path)
    if not args.quiet:
        print(f"wrote {fsm_path} ({spec.n_states} states) and {trace_path} ({len(trace)} rounds)")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = parse_config(args.config)
    if args.seed_base:
        cfg.seeds = [s + args.seed_base for s in cfg.seeds]
    if args.out is not None:
        cfg.out = args.out
    rows = run_experiment(cfg)
    csv_text = to_csv(rows)
    if cfg.out:
        with open(cfg.out, "w", encoding="ascii") as fh:
            fh.write(csv_text)
        if not args.quiet:
            print(f"wrote {cfg.out} ({len(rows)} rows)")
    else:
        sys.stdout.write(csv_text)
    if not args.quiet:
        sys.stdout.write(summarize(rows))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    n, c, q, t = args.files, args.cache, args.states, args.rounds
    print("k,gap_vs_fsp,zero_loss_regret,miss_fraction_bound,total_bound_zero_loss")
    for k in range(args.max_order + 1):
        gap = bounds_mod.markov_vs_fsp_gap(q, k, n, c)
        zero_loss = bounds_mod.markov_regret_bound(k, 0, n, c)
        missfrac = bounds_mod.miss_fraction_bound(q, k, n, c, t)
        total = bounds_mod.fsp_total_regret_bound(q, k, n, c, t, 0)
        print(f"{k},{gap:.12g},{zero_loss:.12g},{missfrac:.12g},{total:.12g}")
    return EXIT_OK


def _cmd_parse_stats(args) -> int:
    trace = load_trace(args.trace)
    tree = LzTree(trace.n_files)
    tree.states(trace.requests)
    max_depth = max(node.depth for node in tree.nodes)
    print(f"rounds          {len(trace)}")
    print(f"files           {trace.n_files}")
    print(f"nodes           {tree.node_count}")
    print(f"phrases         {tree.phrase_count}")
    print(f"max_depth       {max_depth}")
    for k in (1, 2, 4):
        shallow, deep = depth_split_counts(tree, k)
        print(f"depth_split_{k}   {shallow} {deep}")
    if args.dump:
        with open(args.dump, "w", encoding="ascii") as fh:
            dump_tree(tree, fh)
        print(f"wrote {args.dump}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "run": _cmd_run,
        "bounds": _cmd_bounds,
        "parse-stats": _cmd_parse_stats,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, DomainError) as exc:
        print(f"unicache: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"unicache: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, OverflowError) as exc:
        print(f"unicache: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"unicache: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
