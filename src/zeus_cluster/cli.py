"""Command-line entry point: cluster, oracle, bench, gen subcommands."""

from __future__ import annotations

import json
import sys

import click

from .bench import config_from_data, emit_report, run_experiment
from .errors import ConfigError, InfeasibleError, ZeusError
from .graph import load_instance, save_instance
from .makeshifts import (
    CLOSEST_CENTER,
    CLOSEST_EXPERT,
    LOWEST_INDEX,
    SEEDED_RANDOM,
    MakeshiftOptions,
    makeshift_fairness_for,
)
from .objectives import (
    F,
    KINDS,
    ObjectiveSpec,
    SlackVector,
    clustering_to_json,
)
from .oracle import oracle_lmoc
from .synth import generate_instance
from .zeus import ProblemSpec, zeus_run


def _parse_objectives(text: str) -> tuple[ObjectiveSpec, ...]:
    kinds = [t.strip() for t in text.split(",") if t.strip()]
    for kind in kinds:
        if kind not in KINDS:
            raise ConfigError(f"unknown objective {kind!r} (choose from {KINDS})")
    return tuple(ObjectiveSpec(kind) for kind in kinds)


def _parse_slacks(text: str, count: int) -> SlackVector:
    deltas = tuple(float(t) for t in text.split(","))
    if len(deltas) != count:
        raise ConfigError("slack list length must match the objective list")
    return SlackVector(deltas)


@click.group()
def cli():
    """Relaxed lexicographic multi-objective clustering toolkit."""


@cli.command()
@click.option("--input", "input_path", required=True)
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv-edges"]))
@click.option("--fill", type=float, default=None)
@click.option("--objectives", required=True, help="comma list, e.g. rs,kc")
@click.option("--slack", required=True, help="comma list, e.g. 1,3")
@click.option("--k", required=True, type=int)
@click.option("--seed", type=int, default=0)
@click.option(
    "--first-center", default="lowest", type=click.Choice(["lowest", "random"])
)
@click.option(
    "--nonexpert-rule", default="center", type=click.Choice(["expert", "center"])
)
@click.option("--balance-multiplier", type=float, default=4.0)
@click.option("--allow-infeasible-slack", is_flag=True)
@click.option("--output", "output_path", default=None)
def cluster(
    input_path,
    fmt,
    fill,
    objectives,
    slack,
    k,
    seed,
    first_center,
    nonexpert_rule,
    balance_multiplier,
    allow_infeasible_slack,
    output_path,
):
    """Run the Zeus pipeline on an instance file."""
    H = load_instance(input_path, fmt, fill)
    objs = _parse_objectives(objectives)
    spec = ProblemSpec(
        objectives=objs,
        slacks=_parse_slacks(slack, len(objs)),
        k=k,
        options=MakeshiftOptions(
            first_center_rule=SEEDED_RANDOM if first_center == "random" else LOWEST_INDEX,
            seed=seed,
            nonexpert_rule=CLOSEST_EXPERT if nonexpert_rule == "expert" else CLOSEST_CENTER,
            balance_radius_multiplier=balance_multiplier,
        ),
        allow_infeasible_slack=allow_infeasible_slack,
    )
    C, state = zeus_run(H, spec)
    doc = {
        "clustering": json.loads(clustering_to_json(H, C)),
        "trace": state.trace,
    }
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@cli.command()
@click.option("--input", "input_path", required=True)
@click.option("--format", "fmt", default="json", type=click.Choice(["json", "csv-edges"]))
@click.option("--fill", type=float, default=None)
@click.option("--objectives", required=True)
@click.option("--k", required=True, type=int)
def oracle(input_path, fmt, fill, objectives, k):
    """Brute-force optimal clustering on a tiny instance."""
    H = load_instance(input_path, fmt, fill)
    objs = _parse_objectives(objectives)
    pairs = makeshift_fairness_for(H, objs)[1] if any(o.kind == F for o in objs) else None
    result = oracle_lmoc(H, k, list(objs), pairs)
    doc = {
        "values": {
            f"o{i + 1}_{o.kind}": v
            for i, (o, v) in enumerate(zip(objs, result.best_values))
        },
        "enumerated": result.enumerated,
        "clustering": json.loads(clustering_to_json(H, result.best_clustering)),
    }
    click.echo(json.dumps(doc, indent=1, sort_keys=True))


@cli.command()
@click.option("--config", "config_path", required=True)
def bench(config_path):
    """Run an experiment grid described by a JSON config file."""
    with open(config_path) as fh:
        config = config_from_data(json.load(fh))
    records = run_experiment(config)
    written = emit_report(records, config.formats, config.output_dir)
    for path in written:
        click.echo(path)


@cli.command()
@click.option("--kind", required=True, type=click.Choice(["rs", "f", "tf"]))
@click.option("--n", required=True, type=int)
@click.option("--seed", type=int, default=0)
@click.option("--output", "output_path", required=True)
def gen(kind, n, seed, output_path):
    """Generate a synthetic instance file."""
    H = generate_instance(kind, n, seed)
    save_instance(H, output_path)
    click.echo(output_path)


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        return 1
    except click.exceptions.ClickException as exc:
        exc.show()
        return 1
    except (ConfigError,) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except InfeasibleError as exc:
        click.echo(f"infeasible: {exc}", err=True)
        return 2
    except ZeusError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except Exception as exc:  # internal failure
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
