"""Command-line surface: every subcommand is a thin wrapper over one library
call, with all randomness pinned by --seed.

Subcommands: gen, build, query, scan, sweep, stats, class-analysis, corr,
contamination.
"""

from __future__ import annotations

import argparse
import json
import sys

from .binary_lsh import FAMILIES
from .dataset import generate_synthetic, load_dataset, merge_datasets, save_dataset
from .distances import METRICS
from .evaluation import (
    _resolve,
    best_tradeoff,
    bucket_statistics,
    class_analysis,
    class_metric_correlation,
    class_reports_json_lines,
    distractor_contamination,
    evaluate_grid,
    make_index,
    read_class_metric_csv,
    select_queries,
    write_sweep_csv,
)
from .persistence import load_index, save_index
from .real_lsh import DEFAULT_WIDTH


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _add_metric_k(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", choices=METRICS, default="cosine")
    p.add_argument("--k", type=int, default=10)


def _add_index_args(p: argparse.ArgumentParser, required: bool = False) -> None:
    p.add_argument("--L", type=int, required=required)
    p.add_argument("--K", type=int, required=required)
    p.add_argument("--w", type=float, default=DEFAULT_WIDTH)
    p.add_argument("--seed", type=int, required=required)


def _index_from_args(args, kind: str, ds):
    missing = [name for name in ("L", "K", "seed") if getattr(args, name) is None]
    if missing:
        raise ValueError(f"--{', --'.join(missing)} required for index kind {kind!r}")
    return make_index(kind, ds, args.L, args.K, args.w, args.seed)


def _backend_from_args(args, ds, exact):
    """``exact`` when --backend is "exact", else the index it names, built over ds."""
    return exact if args.backend == "exact" else _index_from_args(args, args.backend, ds)


def _query_json(query_id: int, k: int, metric: str, results, stats) -> str:
    return json.dumps(
        {
            "query_id": query_id,
            "k": k,
            "metric": metric,
            "results": [{"id": rid, "distance": dist} for rid, dist in results],
            "stats": {
                "distance_computations": stats.distance_computations,
                "candidates_examined": stats.candidates_examined,
            },
        }
    )


def cmd_gen(args) -> int:
    ds = generate_synthetic(args.classes, args.per_class, args.dim, args.std, args.seed)
    save_dataset(ds, args.out, args.format)
    print(f"wrote {args.out}: {len(ds)} vectors, dim={ds.dim}, {len(ds.labels)} classes", file=sys.stderr)
    return 0


def cmd_build(args) -> int:
    ds = load_dataset(args.input)
    index = _index_from_args(args, args.index, ds)
    save_index(index, args.out)
    print(f"wrote {args.out}: {args.index} index, L={args.L} K={args.K}", file=sys.stderr)
    return 0


def cmd_query(args) -> int:
    """``query`` searches the --index snapshot; ``scan`` (no --index) scans."""
    ds = load_dataset(args.input)
    search = _resolve("exact" if args.index is None else load_index(args.index, ds), ds)
    results, stats = search(ds.get(args.query_id).values, args.k, args.metric)
    print(_query_json(args.query_id, args.k, args.metric, results, stats))
    return 0


def cmd_sweep(args) -> int:
    ds = load_dataset(args.input)
    queries = select_queries(
        ds, seed=args.seed, holdout_fraction=args.holdout_fraction,
        queries_per_class=args.queries_per_class,
    )
    cells = evaluate_grid(ds, queries, args.index, args.L, args.K, args.w, args.seed, args.k, args.metric)
    reports = [report for report, _ in cells]
    write_sweep_csv(reports, args.out)
    print(f"wrote {args.out}: {len(reports)} rows", file=sys.stderr)
    if args.per_query_out:
        with open(args.per_query_out, "w", encoding="utf-8") as fh:
            fh.write("L,K,query_id,ap,seq_cost,index_cost,charged_cost,ie\n")
            fh.writelines(
                f"{r.L},{r.K},{o.query_id},{o.ap},{o.seq_cost},{o.index_cost},{o.charged_cost},{o.ie}\n"
                for r, outcomes in cells
                for o in outcomes
            )
    if args.ie_target is not None:
        best = best_tradeoff(reports, args.ie_target)
        if best is None:
            print(f"no configuration reaches IE >= {args.ie_target}")
        else:
            print(
                f"best tradeoff at IE >= {args.ie_target}: "
                f"L={best.L} K={best.K} mAP={best.mean_ap} IE={best.ie}"
            )
    return 0


def cmd_stats(args) -> int:
    ds = load_dataset(args.input)
    if args.snapshot:
        index = load_index(args.snapshot, ds)
    else:
        if args.index is None:
            raise ValueError("either --snapshot or --index with --L/--K/--seed is required")
        index = _index_from_args(args, args.index, ds)
    stats = bucket_statistics(index)
    print(json.dumps(stats.__dict__))
    return 0


def cmd_class_analysis(args) -> int:
    ds = load_dataset(args.input)
    reports = class_analysis(ds, _backend_from_args(args, ds, "exact"), k=args.k, metric=args.metric)
    text = class_reports_json_lines(reports)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}: {len(reports)} classes", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_corr(args) -> int:
    coeff, shared = class_metric_correlation(read_class_metric_csv(args.xs), read_class_metric_csv(args.ys))
    print(coeff)
    print(f"{shared} shared classes", file=sys.stderr)
    return 0


def cmd_contamination(args) -> int:
    a = load_dataset(args.input)
    b = load_dataset(args.distractor)
    merged = merge_datasets(a, b, label_namespace="distractor/")
    print(distractor_contamination(_backend_from_args(args, merged, merged), k=args.k, metric=args.metric))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lshkit",
        description="LSH indexing and retrieval evaluation over labeled feature vectors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic labeled dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", dest="per_class", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--std", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "fvec"), default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="build an index and save a snapshot")
    p.add_argument("--input", required=True)
    p.add_argument("--index", choices=tuple(FAMILIES), required=True)
    _add_index_args(p, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="query an index snapshot with a dataset member")
    p.add_argument("--index", required=True, help="index snapshot path")
    p.add_argument("--input", required=True, help="the dataset the snapshot was built over")
    p.add_argument("--query-id", dest="query_id", type=int, required=True)
    _add_metric_k(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("scan", help="exact sequential-scan query")
    p.add_argument("--input", required=True)
    p.add_argument("--query-id", dest="query_id", type=int, required=True)
    _add_metric_k(p)
    p.set_defaults(func=cmd_query, index=None)

    p = sub.add_parser("sweep", help="evaluate an (L, K) parameter grid")
    p.add_argument("--input", required=True)
    p.add_argument("--index", choices=tuple(FAMILIES), required=True)
    p.add_argument("--L", type=_int_list, required=True, help="comma-separated L values")
    p.add_argument("--K", type=_int_list, required=True, help="comma-separated K values")
    p.add_argument("--w", type=float, default=DEFAULT_WIDTH)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--holdout-fraction", dest="holdout_fraction", type=float, default=0.25)
    p.add_argument("--queries-per-class", dest="queries_per_class", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--per-query-out", dest="per_query_out", default=None,
                   help="also write per-query AP and cost rows")
    p.add_argument("--ie-target", dest="ie_target", type=float, default=None,
                   help="print the best mAP row with IE >= this target")
    _add_metric_k(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="bucket statistics of an index")
    p.add_argument("--input", required=True)
    p.add_argument("--snapshot", default=None, help="load this snapshot instead of building")
    p.add_argument("--index", choices=tuple(FAMILIES), default=None)
    _add_index_args(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("class-analysis", help="per-class AP analysis")
    p.add_argument("--input", required=True)
    p.add_argument("--backend", choices=("exact", *FAMILIES), default="exact")
    _add_index_args(p)
    p.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    _add_metric_k(p)
    p.set_defaults(func=cmd_class_analysis)

    p = sub.add_parser("corr", help="Pearson correlation of two per-class metric files")
    p.add_argument("--xs", required=True)
    p.add_argument("--ys", required=True)
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("contamination", help="distractor fraction among top-k results")
    p.add_argument("--input", required=True, help="the queried source (a)")
    p.add_argument("--distractor", required=True, help="the distractor source (b)")
    p.add_argument("--backend", choices=("exact", *FAMILIES), default="exact")
    _add_index_args(p)
    _add_metric_k(p)
    p.set_defaults(func=cmd_contamination)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        # a KeyError's str() is the repr of its message, quotes included
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
