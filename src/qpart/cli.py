"""Command-line pipeline: generate, encode, quadratize, solve, count gates, benchmark.

All randomness flows from explicit --seed flags and every writer emits
stable key ordering, so identical invocations produce byte-identical
files. Exit codes: 0 success, 2 bad input, 3 resource limit, 4 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .bench import BenchInstance, records_to_csv, report_to_json, run_suite
from .errors import InternalInvariantError, ResourceLimitError
from .gates import cnot_count_log_closed, cnot_count_onehot_closed, cnot_count_oracle
from .graphs import brooks_upper_bound, generate_random_connected, parse_graph, serialize_graph
from .logenc import bits_for_colors, encode_mgc_log
from .model import from_model_json, to_model_json
from .onehot import encode_mgc_onehot
from .pbo import ground_states
from .quadratize import quadratize, qubit_advantage_predicate
from .solve import AnnealParams, anneal


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _add_anneal_flags(p: argparse.ArgumentParser, **defaults: int) -> None:
    """Add --runs, --sweeps, --beta-start, --beta-end and --seed, defaulting
    to AnnealParams' fields, with `defaults` overriding them."""
    d = AnnealParams(**defaults)
    p.add_argument("--runs", type=int, default=d.runs, help="annealing runs")
    p.add_argument("--sweeps", type=int, default=d.sweeps, help="sweeps per run")
    p.add_argument("--beta-start", type=float, default=d.beta_start, help="initial inverse temperature")
    p.add_argument("--beta-end", type=float, default=d.beta_end, help="final inverse temperature")
    p.add_argument("--seed", type=int, default=d.seed, help="RNG seed")


def _anneal_params(args: argparse.Namespace) -> AnnealParams:
    return AnnealParams(**{f.name: getattr(args, f.name) for f in fields(AnnealParams)})


def cmd_gen(args: argparse.Namespace) -> int:
    g = generate_random_connected(args.n, args.density, args.seed)
    _write(args.out, serialize_graph(g, args.format))
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.input), args.format)
    colors = args.colors if args.colors is not None else brooks_upper_bound(g)
    if args.encoding == "onehot":
        prob = encode_mgc_onehot(g, colors)
    else:
        prob = encode_mgc_log(g, colors)
    _write(args.out, to_model_json(prob))
    return 0


def cmd_quadratize(args: argparse.Namespace) -> int:
    prob = from_model_json(_read(args.input))
    quad = quadratize(prob)
    _write(args.out, to_model_json(quad.problem))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    prob = from_model_json(_read(args.input))
    if args.exact:
        emin, states = ground_states(prob.polynomial, prob.num_variables)
        doc = {
            "method": "exhaustive",
            "min_energy": str(emin),
            "argmin": ["".join(str(b) for b in bits) for bits in states],
        }
        _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0
    samples = anneal(prob.polynomial, _anneal_params(args), prob.num_variables)
    _write(args.out, samples.to_json())
    return 0


def cmd_gates(args: argparse.Namespace) -> int:
    prob = from_model_json(_read(args.input))
    _write(args.out, cnot_count_oracle(prob.polynomial).to_json())
    return 0


def cmd_qubits(args: argparse.Namespace) -> int:
    advantage, log_count, onehot_count = qubit_advantage_predicate(args.n, args.m, args.colors)
    doc = {
        "advantage": advantage,
        "log_cnot": cnot_count_log_closed(args.m, bits_for_colors(args.colors)),
        "log_qubits": log_count,
        "onehot_cnot": cnot_count_onehot_closed(args.n, args.m, args.colors),
        "onehot_qubits": onehot_count,
        "n": args.n,
        "m": args.m,
        "colors": args.colors,
    }
    _write(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    densities = [float(x) for x in args.density.split(",") if x]
    if not densities:
        raise ValueError("--density needs at least one value")
    if args.n_min < 2 or args.n_max < args.n_min:
        raise ValueError(f"need 2 <= n-min <= n-max, got {args.n_min}..{args.n_max}")
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.colors is not None and args.colors < 1:
        raise ValueError(f"--colors must be at least 1, got {args.colors}")
    instances = []
    span = args.n_max - args.n_min + 1
    for i in range(args.count):
        n = args.n_min + (i % span)
        density = densities[i % len(densities)]
        g = generate_random_connected(n, density, args.seed + i)
        instances.append(
            BenchInstance(
                instance_id=f"g{i:03d}_n{n}_d{density:g}",
                graph=g,
                density=density,
                colors=args.colors,
            )
        )
    report = run_suite(instances, _anneal_params(args), group_by=args.group_by)
    if args.out_csv:
        _write(args.out_csv, records_to_csv(report.records))
    if args.out_json:
        _write(args.out_json, report_to_json(report))
    if not args.out_csv and not args.out_json:
        _write("-", records_to_csv(report.records))
    return 0


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Appends each flag's default to its help, unless the help names it, the
    flag is required or its default is None."""

    def _get_help_string(self, action: argparse.Action) -> str:
        if action.required or action.default is None or "(default:" in action.help:
            return action.help
        return super()._get_help_string(action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpart",
        description="Encode graph partitioning problems as QUBO/HUBO models, "
        "quadratize, solve, and benchmark them.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name: str, help_: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_, formatter_class=_HelpFormatter)
        p.set_defaults(func=func)
        return p

    p = add("gen", "generate a seeded random connected graph", cmd_gen)
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--density", type=float, default=0.5, help="edge density in (0, 1]")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--format", choices=["json", "dimacs"], default="json", help="output format")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")

    p = add("encode", "encode a graph file as a coloring Hamiltonian", cmd_encode)
    p.add_argument("--in", dest="input", required=True, help="graph file path ('-' = stdin)")
    p.add_argument("--format", choices=["json", "dimacs"], default="json", help="graph file format")
    p.add_argument("--encoding", choices=["onehot", "log"], default="log", help="encoding kind")
    p.add_argument(
        "--colors", type=int, default=None, help="color bound (default: Brooks upper bound)"
    )
    p.add_argument("--out", default="-", help="model JSON output path")

    p = add("quadratize", "reduce a logarithmic model to degree 2", cmd_quadratize)
    p.add_argument("--in", dest="input", required=True, help="model JSON path")
    p.add_argument("--out", default="-", help="model JSON output path")

    p = add("solve", "solve a model exactly or by simulated annealing", cmd_solve)
    p.add_argument("--in", dest="input", required=True, help="model JSON path")
    p.add_argument("--exact", action="store_true", help="exhaustive solve (<= 24 variables)")
    _add_anneal_flags(p)
    p.add_argument("--out", default="-", help="result JSON output path")

    p = add("gates", "CNOT count report for one phase-separation layer", cmd_gates)
    p.add_argument("--in", dest="input", required=True, help="model JSON path")
    p.add_argument("--out", default="-", help="report JSON output path")

    p = add("qubits", "qubit and CNOT counts of the two encodings", cmd_qubits)
    p.add_argument("--n", type=int, required=True, help="number of vertices")
    p.add_argument("--m", type=int, required=True, help="number of edges")
    p.add_argument("--colors", type=int, required=True, help="color bound")
    p.add_argument("--out", default="-", help="output path")

    p = add("bench", "benchmark generated instances under both encodings", cmd_bench)
    p.add_argument("--count", type=int, default=20, help="number of instances")
    p.add_argument("--n-min", type=int, default=4, help="smallest vertex count")
    p.add_argument("--n-max", type=int, default=10, help="largest vertex count")
    p.add_argument(
        "--density", default="0.2,0.5,0.8", help="comma-separated edge densities to cycle"
    )
    p.add_argument("--colors", type=int, default=None, help="color bound (default: Brooks upper bound)")
    _add_anneal_flags(p, runs=50, sweeps=200)
    p.add_argument("--group-by", choices=["n", "density"], default="n", help="aggregation key")
    p.add_argument(
        "--out-csv", help="CSV output path (CSV goes to stdout when neither --out-csv nor --out-json is set)"
    )
    p.add_argument("--out-json", help="JSON report output path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        print(f"qpart: resource limit: {exc}", file=sys.stderr)
        return 3
    except (InternalInvariantError, AssertionError) as exc:
        print(f"qpart: internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"qpart: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
