"""Command-line front end.

``dramforge run <cfg>`` executes or resumes a simulation described by a
flat key=value config with one ``[target]`` section; ``dramforge
postproc <prefix>`` turns finished output files into CSV exports plus
matching gnuplot scripts. Every behavior is a thin shell over library
calls; exit codes: 0 ok, 2 config/input error, 3 runtime or numerical
error, 4 refused resume or overwrite.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .chainio import (
    ParseError,
    Section,
    _fail,
    _field_parse,
    _format_rows,
    fmt_float,
    output_paths,
    read_chain,
    read_report,
    read_restart,
    read_sample,
    read_sections,
)
from .core import (
    SIMSPEC_FIELDS,
    BuiltinTarget,
    DramforgeError,
    NumericalError,
    ResumeRefused,
    RunAlreadyComplete,
    SimSpec,
    UsageError,
    build_target,
)
from .parallel import contribution_stats, run_multi_chain
from .refinement import autocorrelation, weighted_acf
from .sampler import run_sampler
from . import chainio

_SPEC_KINDS = dict(SIMSPEC_FIELDS)
_TARGET_KINDS = ("mvn", "rosenbrock", "gauss_mixture")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_REFUSED = 4


def parse_config(path: str) -> tuple[Section, Section]:
    """Flat key=value config with a [target] section.

    Returns (spec_pairs, target_pairs): the raw strings of the keys before
    the first section, and those of every [target] section merged, each
    key with its line. Unknown keys and sections, keys given twice and
    malformed lines are rejected with their line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from None
    spec, *rest = read_sections(path, lines, implicit="spec")
    for key in spec:
        if key not in _SPEC_KINDS:
            raise ParseError(f"{spec.where(key)}: unknown simulation key {key!r}")
    target_pairs = Section(path, "target", rest[0].line if rest else len(lines))
    for section in rest:
        if section.name != "target":
            raise ParseError(f"{section.where()}: unknown section [{section.name}]")
        for key in section:
            if not _target_key_kinds(key):
                raise ParseError(f"{section.where(key)}: unknown target key {key!r}")
            if key in target_pairs:
                raise ParseError(f"{section.where(key)}: [target] key {key!r} given twice")
        target_pairs.update(section)
        target_pairs.key_lines.update(section.key_lines)
    return spec, target_pairs


def _target_key_kinds(key: str) -> tuple:
    """The target kinds that read ``key``; none for an unknown key."""
    if key == "kind":
        return _TARGET_KINDS
    if key in ("mean", "cov"):
        return ("mvn",)
    if key == "scale":
        return ("rosenbrock",)
    if key.startswith("component"):
        idx, _, field = key[len("component"):].partition("_")
        if idx.isdigit() and field in ("weight", "mean", "cov"):
            return ("gauss_mixture",)
    return ()


def build_spec(spec_pairs: dict) -> SimSpec:
    kwargs = {key: _field_parse(key, _SPEC_KINDS[key], spec_pairs) for key in spec_pairs}
    if "ndim" not in kwargs:
        raise UsageError("config must set ndim")
    if "output_prefix" not in kwargs:
        raise UsageError("config must set output_prefix")
    kwargs["output_prefix"] = _out_prefix(kwargs["output_prefix"])
    return SimSpec(**kwargs)


def _out_prefix(prefix: str) -> str:
    """``prefix`` moved into the directory ``DRAMFORGE_OUT`` names, when it is set."""
    out_dir = os.environ.get("DRAMFORGE_OUT")
    return os.path.join(out_dir, os.path.basename(prefix)) if out_dir else prefix


def build_cli_target(target_pairs: dict, ndim: int) -> BuiltinTarget:
    """The target of ``target_pairs`` (a Section, or a plain dict), each value read by its kind."""
    kind = target_pairs.get("kind", "mvn")
    if kind not in _TARGET_KINDS:
        raise _fail(target_pairs, "kind", f"target kind must be one of {_TARGET_KINDS}, "
                                          f"got {kind!r}")
    for key in target_pairs:
        if kind not in _target_key_kinds(key):
            raise _fail(target_pairs, key, f"target key {key!r} is not used by kind {kind!r}")

    def read(key: str, codec_kind: str, default=None):
        return _field_parse(key, codec_kind, target_pairs) if key in target_pairs else default

    if kind == "mvn":
        mean = read("mean", "vector", np.zeros(ndim))
        return BuiltinTarget("mvn", {"mean": mean, "cov": read("cov", "matrix")})
    if kind == "rosenbrock":
        return BuiltinTarget("rosenbrock", {"ndim": ndim, "scale": read("scale", "f64", 100.0)})
    present = {int(key[len("component"):].partition("_")[0])
               for key in target_pairs if key.startswith("component")}
    if not present:
        raise UsageError("gauss_mixture target needs component<i>_weight/_mean entries")
    if 0 in present:
        raise UsageError("gauss_mixture components are numbered from 1, got component0_*")
    weights, means, covs = [], [], []
    for i in range(1, max(present) + 1):
        key = f"component{i}_"
        for needed in ("weight", "mean"):
            if key + needed not in target_pairs:
                raise UsageError(f"gauss_mixture target has no {key + needed} "
                                 f"(components 1..{max(present)} each need one)")
        weights.append(read(key + "weight", "f64"))
        means.append(read(key + "mean", "vector"))
        covs.append(read(key + "cov", "matrix", np.eye(ndim)))
    return BuiltinTarget("gauss_mixture", {"weights": weights, "means": means, "covs": covs})


def _apply_overrides(spec_pairs: Section, target_pairs: Section, overrides: list[str]) -> None:
    """Set each ``key=value`` of ``overrides``; its value's errors then name ``--set``."""
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("target."):
            key, pairs = key[len("target."):], target_pairs
            if not _target_key_kinds(key):
                raise UsageError(f"--set: unknown target key {key!r}")
        elif key in _SPEC_KINDS:
            pairs = spec_pairs
        else:
            raise UsageError(f"--set: unknown simulation key {key!r}")
        pairs[key] = value
        pairs.key_lines[key] = "--set"


def _run(spec: SimSpec, target) -> None:
    if spec.parallelism == "multi_chain":
        outputs, report = run_multi_chain(spec, target, spec.num_workers)
        for rank, out in enumerate(outputs, start=1):
            print(
                f"chain {rank}: {out.chain.n_rows} rows, "
                f"acceptance {out.report.mean_accept_rate:.4f}, "
                f"ESS {out.report.ess:.1f}"
            )
        verdict = "flagged" if report.flagged else "no evidence of non-convergence"
        print(f"multi-chain comparison: {verdict} (min p = {report.min_p:.4g})")
    else:
        out = run_sampler(spec, target)
        print(
            f"done: {out.chain.n_rows} rows over {spec.chain_size} iterations, "
            f"acceptance {out.report.mean_accept_rate:.4f}, "
            f"ESS {out.report.ess:.1f}, refined sample {len(out.refined)}"
        )
        print(f"outputs under prefix: {spec.output_prefix}")


def cmd_run(args) -> int:
    try:
        spec_pairs, target_pairs = parse_config(args.config)
        _apply_overrides(spec_pairs, target_pairs, args.set or [])
        spec = build_spec(spec_pairs)
        target = build_target(build_cli_target(target_pairs, spec.ndim))
        if target.ndim != spec.ndim:
            raise UsageError(f"target has ndim {target.ndim}, simulation spec says {spec.ndim}")
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.force:
            chainio.remove_outputs(spec)
        if chainio.inspect_outputs(spec) == "incomplete" and not args.resume:
            raise ResumeRefused(
                f"prefix {spec.output_prefix!r} holds an incomplete run "
                "(use --resume to continue it, or --force to start over)"
            )
        _run(spec, target)
    except RunAlreadyComplete as exc:
        print(f"refused: {exc} (use --force to start over)", file=sys.stderr)
        return EXIT_REFUSED
    except ResumeRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, DramforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _write_gnuplot(path: str, title: str, plots: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("set datafile separator ','\n")
        fh.write("set key autotitle columnhead\n")
        fh.write(f"set title '{title}'\n")
        fh.write("set grid\n")
        fh.write("plot " + ", \\\n     ".join(plots) + "\n")


def _postproc_stats(prefix: str, report) -> str:
    csv_path = f"{prefix}_stats.csv"
    passes = [f"iac_pass{i}" for i in range(1, len(report.iac_history) + 1)]
    metrics = ["ess", *passes, "mean_accept_rate", "accepted_count", "burnin_loc", "size_ratio"]
    values = [*map(fmt_float, [report.ess, *report.iac_history, report.mean_accept_rate]),
              report.accepted_count, report.burnin_loc, fmt_float(report.size_ratio)]
    _write_csv(csv_path, ["metric", "value"], "%s,%s\n", [metrics, values])
    _write_gnuplot(
        f"{prefix}_stats.gp", "run statistics",
        [f"'{csv_path}' using 0:2:xtic(1) with boxes"],
    )
    return csv_path


def _write_csv(path: str, header: list[str], row_format: str, columns: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(_format_rows(row_format, columns))


def _postproc_acf(prefix: str, chain, sample_states) -> str:
    csv_path = f"{prefix}_acf.csv"
    nv = chain.total_weight
    nref = sample_states.shape[0]
    max_lag = min(1000, nv - 1, max(nref - 1, 1))
    dims = range(chain.ndim)
    # A series of fewer than 2 points has no autocorrelation: the chain's
    # columns stay empty below 2 verbose rows, the refined sample's below 2
    # points.
    chain_acf = [weighted_acf(chain.states[:, d], chain.weight, max_lag) for d in dims if nv > 1]
    refined_acf = [autocorrelation(sample_states[:, d], max_lag) for d in dims if nref > 1]
    row_format = "%d" + (",%.17g" if chain_acf else ",") * chain.ndim
    row_format += (",%.17g" if refined_acf else ",") * chain.ndim + "\n"
    header = ["lag"] + [f"chain_var{d + 1}" for d in dims] + [f"refined_var{d + 1}" for d in dims]
    columns = [list(range(max_lag + 1))] + [acf.tolist() for acf in chain_acf + refined_acf]
    _write_csv(csv_path, header, row_format, columns)
    plots = [f"'{csv_path}' using 1:{2 + d} with lines" for d in range(2 * chain.ndim)]
    _write_gnuplot(f"{prefix}_acf.gp", "chain vs refined autocorrelation", plots)
    return csv_path


def _postproc_covmat(prefix: str, checkpoints, ndim: int) -> str:
    csv_path = f"{prefix}_covmat.csv"
    i, j = np.triu_indices(ndim)
    upper = np.array([ck.cov[i, j] for ck in checkpoints]).reshape(-1, i.size)
    header = ["checkpoint", "iteration"]
    header += [f"cov_{a + 1}_{b + 1}" for a, b in zip(i.tolist(), j.tolist())]
    columns = [[ck.checkpoint_index for ck in checkpoints], [ck.iteration for ck in checkpoints],
               *upper.T.tolist()]
    _write_csv(csv_path, header, "%d,%d" + ",%.17g" * i.size + "\n", columns)
    plots = [f"'{csv_path}' using 2:{3 + k} with lines" for k in range(i.size)]
    _write_gnuplot(f"{prefix}_covmat.gp", "proposal covariance evolution", plots)
    return csv_path


def _postproc_contrib(prefix: str, chain, n_workers: int) -> str:
    csv_path = f"{prefix}_contrib.csv"
    stats = contribution_stats(chain.process_id, n_workers)
    p, ranks = stats.fitted_p, range(1, n_workers + 1)
    columns = [list(ranks), stats.counts.tolist(), (stats.counts / stats.counts.sum()).tolist(),
               [p * (1.0 - p) ** (k - 1) for k in ranks]]
    _write_csv(csv_path, ["rank", "count", "empirical", "fitted"], "%d,%d,%.17g,%.17g\n",
               columns)
    _write_gnuplot(
        f"{prefix}_contrib.gp", "per-rank contribution vs geometric fit",
        [f"'{csv_path}' using 1:3 with boxes", f"'{csv_path}' using 1:4 with lines"],
    )
    return csv_path


def cmd_postproc(args) -> int:
    prefix = _out_prefix(args.prefix)
    try:
        report = read_report(f"{prefix}_report.txt")
        spec = report.spec
        paths = output_paths(prefix, spec.file_encoding)
        if args.what == "stats":
            csv_path = _postproc_stats(prefix, report)
        elif args.what == "acf":
            chain = read_chain(paths["chain"])
            states, _ = read_sample(paths["sample"])
            csv_path = _postproc_acf(prefix, chain, states)
        elif args.what == "covmat":
            _, checkpoints = read_restart(paths["restart"])
            csv_path = _postproc_covmat(prefix, checkpoints, spec.ndim)
        else:
            chain = read_chain(paths["chain"])
            csv_path = _postproc_contrib(prefix, chain, spec.num_workers)
    except FileNotFoundError as exc:
        print(f"error: missing output file {exc.filename!r}", file=sys.stderr)
        return EXIT_CONFIG
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {csv_path} and its gnuplot script")
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One per process: main may run many times in one process, and a
    # parser's objects form cycles that only the cyclic collector frees.
    parser = argparse.ArgumentParser(
        prog="dramforge",
        description="Delayed-rejection adaptive Metropolis sampler with restartable runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run or resume a simulation from a config file")
    run_p.add_argument("config", help="key=value config with a [target] section")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    run_p.add_argument("--resume", action="store_true",
                       help="continue an incomplete run for this prefix")
    run_p.add_argument("--force", action="store_true",
                       help="delete this run's files (for this config's encoding and "
                            "chain count) and start over")
    post_p = sub.add_parser("postproc", help="export plot-ready data from a finished run")
    post_p.add_argument("prefix", help="output prefix of the finished run")
    post_p.add_argument("--what", choices=("stats", "acf", "covmat", "contrib"),
                        required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return (cmd_run if args.command == "run" else cmd_postproc)(args)


if __name__ == "__main__":
    sys.exit(main())
