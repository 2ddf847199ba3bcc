"""Command-line interface.

Subcommands map one-to-one onto the library modules: `gen` and `prcheck`
for pseudorandom inputs, `adversary` for avoidance colorings, `build-path`
for extraction certificates, `oracle` for exhaustive small-instance truth,
and `experiment` for manifest-driven sweeps.  All structured output is
JSON; graphs and colorings use the plain-text formats.
"""
from __future__ import annotations

import json
import sys

import click

from .adversary import theorem1_adversary
from .builder import multicolor_path_finder
from .config import DEFAULT_CONFIG, ConstantsConfig
from .errors import DipathError
from .experiment import ExperimentManifest, run_experiment
from .formats import _read_text, read_colored, read_graph, write_coloring, write_graph
from .oracle import arrowing_check, longest_mono_path, min_max_mono_path
from .pseudorandom import (
    paley_tournament,
    pseudorandomness_exact,
    random_digraph,
    random_oriented_graph,
    random_tournament,
    refute_pseudorandomness,
)


def _load_config(path: str | None) -> ConstantsConfig:
    if path is None:
        return DEFAULT_CONFIG
    try:
        return ConstantsConfig.from_json(_read_text(path))
    except (TypeError, ValueError) as exc:
        raise click.ClickException(f"bad config {path}: {exc}") from exc


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


class _Main(click.Group):
    """The command group.  A package error, a bad value (a ValueError) or a
    failed read or write (an OSError) in any subcommand ends in one
    `Error:` line and exit status 1, not a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (DipathError, ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Main)
def main() -> None:
    """Monochromatic directed-path toolkit."""


@main.command()
@click.option("--model", type=click.Choice(["random", "paley", "oriented", "digraph"]),
              required=True)
@click.option("--n", "n", type=int, default=None, help="vertex count")
@click.option("--p", "p", type=int, default=None, help="prime order (paley)")
@click.option("--density", type=float, default=0.1,
              help="edge density for oriented/digraph models")
@click.option("--seed", type=int, default=0)
@click.option("--out", "out_path", required=True, type=click.Path())
def gen(model: str, n, p, density: float, seed: int, out_path: str) -> None:
    """Generate a graph and write it in the text format."""
    if model == "paley":
        if p is None:
            raise click.UsageError("--model paley requires --p")
        g = paley_tournament(p).underlying
    else:
        if n is None:
            raise click.UsageError(f"--model {model} requires --n")
        if model == "random":
            g = random_tournament(n, seed).underlying
        elif model == "oriented":
            g = random_oriented_graph(n, round(density * n * n), seed)
        else:
            g = random_digraph(n, round(density * n * n), seed)
    write_graph(out_path, g)
    click.echo(f"wrote {g.n} vertices, {g.edge_count} edges to {out_path}")


@main.command()
@click.option("--mode", type=click.Choice(["exact", "sampled"]), default="exact")
@click.option("--k", type=int, default=None)
@click.option("--trials", type=int, default=1000)
@click.option("--seed", type=int, default=0)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
def prcheck(mode: str, k, trials: int, seed: int, in_path: str) -> None:
    """Pseudorandomness check: exact threshold or sampled refutation."""
    if mode == "sampled" and k is None:
        raise click.UsageError("--mode sampled requires --k")
    g = read_graph(in_path)
    if mode == "exact":
        report = pseudorandomness_exact(g)
        _echo_json(report.to_dict())
        return
    found = refute_pseudorandomness(g, k, trials, seed)
    payload = {"mode": "sampled", "k": k, "trials": trials,
               "counterexample": [list(found[0]), list(found[1])]
               if found else None}
    _echo_json(payload)


@main.command()
@click.option("--q", type=int, default=1)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--trace", "trace_path", type=click.Path(), default=None)
def adversary(q: int, config_path, in_path: str, out_path: str, trace_path) -> None:
    """Color a sparse graph to avoid long monochromatic paths."""
    cfg = _load_config(config_path)
    g = read_graph(in_path)
    result = theorem1_adversary(g, q, cfg)
    write_coloring(out_path, g, result.coloring)
    if trace_path:
        with open(trace_path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(result.partition.to_dict(), indent=2, sort_keys=True) + "\n")
    click.echo(f"colored {g.edge_count} edges with "
               f"{result.coloring.num_colors} colors; "
               f"certified mono-path bound {result.partition.total_bound}")


@main.command("build-path")
@click.option("--colors", type=int, default=2)
@click.option("--k", type=int, required=True)
@click.option("--n-target", type=int, default=2,
              help="recursion target for more than two colors")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--coloring", "coloring_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default=None)
def build_path(colors: int, k: int, n_target: int, config_path, in_path: str,
               coloring_path: str, out_path) -> None:
    """Extract a long monochromatic path and emit its certificate."""
    cfg = _load_config(config_path)
    g, coloring = read_colored(in_path, coloring_path, num_colors=colors)
    cert = multicolor_path_finder(g, coloring, k, n_target, cfg)
    cert.validate(g, coloring)
    payload = cert.to_dict()
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _echo_json(payload)


@main.command()
@click.option("--mode", type=click.Choice(["path", "minmax", "arrow"]),
              required=True)
@click.option("--q", type=int, default=2)
@click.option("--n", "n_target", type=int, default=None,
              help="path length target (arrow mode)")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--coloring", "coloring_path", type=click.Path(exists=True),
              default=None)
def oracle(mode: str, q: int, n_target, in_path: str, coloring_path) -> None:
    """Exhaustive ground truth on small instances."""
    if mode == "path":
        if coloring_path is None:
            raise click.UsageError("--mode path requires --coloring")
        per_color = longest_mono_path(*read_colored(in_path, coloring_path))
        _echo_json({str(c): r.to_dict() for c, r in per_color.items()})
        return
    g = read_graph(in_path)
    if mode == "minmax":
        result = min_max_mono_path(g, q)
        _echo_json(result.to_dict())
        return
    if n_target is None:
        raise click.UsageError("--mode arrow requires --n")
    answer, witness = arrowing_check(g, n_target, q)
    payload = {"arrows": answer,
               "witness": [[u, v, c] for (u, v), c in witness.items()]
               if witness else None}
    _echo_json(payload)


@main.command()
@click.option("--manifest", "manifest_path", required=True,
              type=click.Path(exists=True))
def experiment(manifest_path: str) -> None:
    """Run a manifest; nonzero exit if any run violated an invariant."""
    manifest = ExperimentManifest.from_json(_read_text(manifest_path))
    record = run_experiment(manifest)
    _echo_json(record.to_dict())
    if not record.ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
