"""Command-line entry point: cluster, oracle, bench, gen subcommands."""

from __future__ import annotations

import argparse
import json
import sys

from .bench import config_from_data, emit_report, run_experiment
from .errors import ConfigError, InfeasibleError, ZeusError
from .graph import load_instance, save_instance
from .makeshifts import (
    CLOSEST_CENTER,
    CLOSEST_EXPERT,
    MakeshiftOptions,
    fairness_pairs,
)
from .objectives import ObjectiveSpec, SlackVector, clustering_to_json
from .oracle import oracle_lmoc
from .synth import generate_instance
from .zeus import ProblemSpec, zeus_run

NONEXPERT_RULES = {"expert": CLOSEST_EXPERT, "center": CLOSEST_CENTER}


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors exit 1 and which takes no abbreviated flags."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(f"{self.prog}: {message}")


def objective_list(text: str) -> tuple[ObjectiveSpec, ...]:
    return tuple(ObjectiveSpec(t.strip()) for t in text.split(",") if t.strip())


def slack_list(text: str) -> SlackVector:
    return SlackVector(tuple(float(t) for t in text.split(",")))


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="json", choices=["json", "csv-edges"])
    p.add_argument("--fill", type=float, default=None)


def cluster(args) -> None:
    H = load_instance(args.input, args.format, args.fill)
    spec = ProblemSpec(
        objectives=args.objectives,
        slacks=args.slack,
        k=args.k,
        options=MakeshiftOptions(
            seed=args.seed if args.first_center == "random" else None,
            nonexpert_rule=NONEXPERT_RULES[args.nonexpert_rule],
            balance_radius_multiplier=args.balance_multiplier,
        ),
        allow_infeasible_slack=args.allow_infeasible_slack,
    )
    C, state = zeus_run(H, spec)
    doc = {
        "clustering": json.loads(clustering_to_json(H, C)),
        "trace": state.trace,
    }
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def oracle(args) -> None:
    H = load_instance(args.input, args.format, args.fill)
    objs = args.objectives
    result = oracle_lmoc(H, args.k, list(objs), fairness_pairs(H, objs))
    doc = {
        "values": {
            f"o{i + 1}_{o.kind}": v
            for i, (o, v) in enumerate(zip(objs, result.best_values))
        },
        "enumerated": result.enumerated,
        "clustering": json.loads(clustering_to_json(H, result.best_clustering)),
    }
    print(json.dumps(doc, indent=1, sort_keys=True))


def bench(args) -> None:
    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise ConfigError(f"cannot read {args.config}: {exc}") from exc
    config = config_from_data(data)
    records = run_experiment(config)
    for path in emit_report(records, config.formats, config.output_dir):
        print(path)


def gen(args) -> None:
    save_instance(generate_instance(args.kind, args.n, args.seed), args.output)
    print(args.output)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zeus-cluster",
        description="Relaxed lexicographic multi-objective clustering toolkit.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("cluster", help="run the Zeus pipeline on an instance file")
    _add_input(p)
    p.add_argument(
        "--objectives", required=True, type=objective_list, help="comma list, e.g. rs,kc"
    )
    p.add_argument("--slack", required=True, type=slack_list, help="comma list, e.g. 1,3")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--first-center", default="lowest", choices=["lowest", "random"])
    p.add_argument("--nonexpert-rule", default="center", choices=NONEXPERT_RULES)
    p.add_argument("--balance-multiplier", type=float, default=4.0)
    p.add_argument("--allow-infeasible-slack", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(run=cluster)

    p = commands.add_parser("oracle", help="brute-force optimal clustering on a tiny instance")
    _add_input(p)
    p.add_argument("--objectives", required=True, type=objective_list)
    p.add_argument("--k", required=True, type=int)
    p.set_defaults(run=oracle)

    p = commands.add_parser("bench", help="run an experiment grid from a JSON config file")
    p.add_argument("--config", required=True)
    p.set_defaults(run=bench)

    p = commands.add_parser("gen", help="generate a synthetic instance file")
    p.add_argument("--kind", required=True, choices=["rs", "f", "tf"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(run=gen)
    return parser


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        args = _parser().parse_args(argv)
        args.run(args)
        return 0
    except SystemExit as exc:  # --help: the parser exits only after printing help
        return exc.code
    except KeyboardInterrupt:
        print("aborted", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ZeusError, OSError) as exc:  # OSError: an output file cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
