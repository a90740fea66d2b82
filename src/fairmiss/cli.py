"""Command-line entry points.

    fairmiss run <config>         run an experiment, write CSVs
    fairmiss validate <config>    check a config without running it
    fairmiss theorem1 --alpha A --q0 Q
                                  print the exact accuracy cost of imputation
                                  on the worst-case single-feature table
    fairmiss synthetic --seed S --out PATH
                                  write the built-in synthetic dataset as CSV

FAIRMISS_LOG sets the log level: DEBUG, INFO, WARNING (the default), ERROR
or CRITICAL, in any case.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import data, harness, simulate
from .errors import ConfigError, FairmissError

LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _setup_logging() -> None:
    value = os.environ.get("FAIRMISS_LOG", "WARNING")
    if value.upper() not in LOG_LEVELS:
        raise ConfigError(f"FAIRMISS_LOG={value!r}: expected one of {', '.join(LOG_LEVELS)}")
    logging.basicConfig(level=value.upper())


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    result = harness.run_experiment(cfg)
    for rec in result.failures:
        print(f"failed repeat={rec['repeat']} grid={rec['grid_id']}: {rec['error']}")
    if result.metrics == harness.TABLE_METRICS:
        for rec in result.raw:
            print(
                f"{rec['params']}: best_constrained_accuracy={rec['f_eps_original']:.6f} "
                f"best_after_imputation={rec['f_eps_imputed_best']:.6f} "
                f"gap={rec['gap']:.6f} mask_label_mi_bits={rec['mi_bits']:.6f}"
            )
    else:
        for gid, agg in result.aggregated.items():
            print(
                f"{gid}: test_accuracy={agg['test_accuracy'][0]:.4f} "
                f"meo={agg['meo'][0]:.4f}"
            )
        print(f"pareto: {', '.join(result.pareto) if result.pareto else '(empty)'}")
    print(f"outputs written to {cfg.output.dir}")
    return 0 if result.succeeded else 1


def _cmd_validate(args) -> int:
    harness.load_config(args.config)
    print(f"{args.config}: OK")
    return 0


def _cmd_theorem1(args) -> int:
    alpha1 = args.alpha if args.alpha1 is None else args.alpha1
    dist = simulate.MaskedPositives((args.alpha, alpha1), (args.q0, 1.0 - args.q0))
    rec = harness.exact_table_analysis(dist, (args.epsilon,))[0]
    print(f"groups: alphas={dist.alphas} priors={dist.priors}")
    print(f"mixture masking rate: {dist.mixture_alpha:.6f}")
    print(f"I(mask; label) = {rec['mi_bits']:.6f} bits")
    print(f"best accuracy under equalized odds (eps={args.epsilon}):")
    print(f"  on the original table : {rec['f_eps_original']:.6f}")
    print(f"  after any imputation  : {rec['f_eps_imputed_best']:.6f}")
    print(f"  gap                   : {rec['gap']:.6f}")
    return 0


def _cmd_synthetic(args) -> int:
    ds = simulate.gen_synthetic(args.seed)
    try:
        data.write_csv(ds, args.out)
        if args.schema:
            lines = [f"{name} = feature" for name in ds.feature_names]
            lines += ["sensitive = sensitive", "label = label"]
            with open(args.schema, "w") as fh:
                fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise FairmissError(f"cannot write {exc.filename}: {exc.strerror}") from None
    print(f"wrote {ds.n_samples} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmiss",
        description="Fair binary classification on data with missing values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("validate", help="validate an experiment config")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "theorem1",
        help="exact accuracy cost of impute-then-classify on the worst-case table",
    )
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--alpha1", type=float, default=None)
    p.add_argument("--q0", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=0.0)
    p.set_defaults(func=_cmd_theorem1)

    p = sub.add_parser("synthetic", help="write the synthetic dataset to CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--schema", default="")
    p.set_defaults(func=_cmd_synthetic)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        return args.func(args)
    except FairmissError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
