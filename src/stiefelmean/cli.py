"""Command-line front end.

Subcommands:

* ``gen``      generate a seeded sample set and write it to a file;
* ``mean``     read a sample-set file, run the fixed-point mean (optionally
               weighted), write the mean point and a CSV iteration trace;
* ``validate`` check every block of a file against the orthonormality
               invariant and print the defects;
* ``exp``      run one of the built-in experiments, write its CSV and print
               the CSV's summary lines.

Exit codes: 0 on success, 1 on usage errors (bad flags, unreadable or
malformed files), 2 on numerical-domain errors (invariant violations, maps
evaluated outside their domain), with the error, and its iteration and
sample where known, on one line of standard error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiments, fileio
from .averaging import AveragingConfig, fixed_point_mean
from .errors import DomainError, FileFormatError, StiefelMeanError, ValidationError
from .manifold import (
    TOL_ORTH,
    Dims,
    _check_real,
    _orthonormality_defects,
    derive_seed,
    generate_center,
    generate_samples,
    # unused since validate batches its defects; perfbench/tracer.py
    # rebinds cli.orthonormality_defect by name, so it stays bound
    orthonormality_defect,  # noqa: F401
    perturb_initial_guess,
)
from .maps import MapPair

# short spellings of experiment kinds; every kind also answers to its own name
_KIND_ALIASES = {
    "discrepancy": "discrepancy_stats",
    "runtime-n": "runtime_vs_n",
    "runtime-p": "runtime_vs_p",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this CLI reserves 2 for
    # numerical-domain failures, so usage problems are rerouted.
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="stiefelmean", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded sample set file")
    gen.add_argument("--p", type=int, required=True, help="ambient row count")
    gen.add_argument("--n", type=int, required=True, help="column count")
    gen.add_argument("--N", type=int, required=True, dest="n_samples",
                     help="number of samples")
    gen.add_argument("--sigma", type=float, required=True, help="spread scale")
    gen.add_argument("--seed", type=int, required=True, help="generation seed")
    gen.add_argument("--out", required=True, help="output file path")
    gen.add_argument("--no-center", action="store_true",
                     help="omit the center block from the file")

    mean = sub.add_parser("mean", help="fixed-point mean of a sample-set file")
    mean.add_argument("--in", dest="infile", required=True, help="sample-set file")
    mean.add_argument("--pair", default="mixed",
                      help="map pair: polar, ortho or mixed (default: mixed)")
    mean.add_argument("--weights", help="file of positive per-sample weights; only ratios matter")
    mean.add_argument("--out", help="mean point output (default: <in>.mean.txt)")
    mean.add_argument("--trace", help="CSV trace output (default: <in>.trace.csv)")
    mean.add_argument("--max-iters", type=int, default=100)
    mean.add_argument("--conv-tol", type=float, default=1e-10)
    mean.add_argument("--epsilon-init", type=float, default=0.01,
                      help="scale of the random rotation applied to the first "
                           "sample to form the initial guess")
    mean.add_argument("--init-seed", type=int, default=None,
                      help="seed of the initial-guess rotation (default: "
                           "derived from the file's seed, so runs stay "
                           "deterministic)")

    val = sub.add_parser("validate", help="check a file's blocks for orthonormality")
    val.add_argument("file", help="sample-set or point file")

    exp = sub.add_parser("exp", help="run a built-in experiment")
    exp.add_argument("--kind", required=True,
                     choices=sorted([*experiments._KINDS, *_KIND_ALIASES]),
                     help="experiment kind")
    exp.add_argument("--seed", type=int, required=True)
    exp.add_argument("--outdir", default=".", help="directory for the CSV")
    exp.add_argument("--paper-scale", action="store_true",
                     help="full-size protocol instead of desk-scale defaults")
    exp.add_argument("--p", type=int, help="override the row count (runtime-p sweeps it)")
    exp.add_argument("--n", type=int, help="override the column count (runtime-n sweeps it)")
    exp.add_argument("--N", type=int, dest="n_samples",
                     help="override the sample count")
    exp.add_argument("--sigma", type=float, help="override the spread")
    exp.add_argument("--trials", type=int, help="override the trial count")
    exp.add_argument("--sweep", help="override the dimension sweep, e.g. 5,10,20")
    return parser


def _cmd_gen(args) -> int:
    dims = Dims(args.p, args.n)
    center = generate_center(dims, args.seed)
    cloud = generate_samples(center, args.sigma, args.n_samples, args.seed)
    fileio.write_sample_set(args.out, cloud, include_center=not args.no_center)
    print(f"wrote {args.n_samples} samples on St({args.p},{args.n}) to {args.out}")
    return 0


def _read_weights(path, expected: int):
    weights = []
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        # lines are counted as in sample files, an undecodable byte included
        lines = fileio._decode(data).splitlines()
    except FileFormatError as exc:
        raise _UsageError(f"{path}: {exc}") from None
    for lineno, line in enumerate(lines, start=1):
        token = line.strip()
        if not token:
            continue
        where = f"{path}: line {lineno}"
        try:
            weights.append(_check_real(float(token), "weight", positive=True))
        except ValidationError as exc:
            raise _UsageError(f"{where}: {exc}") from None
        except ValueError:
            raise _UsageError(f"{where}: could not parse weight '{token}'") from None
    if len(weights) != expected:
        raise _UsageError(
            f"{path}: expected {expected} weights (one per sample), got {len(weights)}"
        )
    return weights


def _cmd_mean(args) -> int:
    try:
        pair = MapPair.from_name(args.pair)
    except ValidationError as exc:
        raise _UsageError(str(exc)) from exc
    cloud = fileio.read_sample_set(args.infile)
    weights = None if args.weights is None else _read_weights(args.weights, len(cloud))
    config = AveragingConfig(
        pair=pair, max_iters=args.max_iters, conv_tol=args.conv_tol, weights=weights,
    )
    init_seed = args.init_seed
    if init_seed is None:
        init_seed = derive_seed(cloud.seed, 1)
    initial = perturb_initial_guess(cloud.stack[0], args.epsilon_init, init_seed)
    report = fixed_point_mean(cloud, config, initial)

    out = args.out or f"{args.infile}.mean.txt"
    trace = args.trace or f"{args.infile}.trace.csv"
    fileio.write_point(out, report.final_point, sigma=cloud.sigma, seed=cloud.seed)
    report.write_trace_csv(trace)

    status = "converged" if report.converged else "did NOT converge"
    last = f"last step {report.step_sizes[-1]:.3e}, " if report.step_sizes else ""
    print(f"{pair.label} mean {status} after {report.iterations_used} iterations "
          f"({last}residual field {report.residual_field_norm:.3e})")
    if report.iterates_delta_to_center is not None:
        print(f"discrepancy to the stored center: {report.iterates_delta_to_center[-1]:.6e}")
    print(f"mean point written to {out}; iteration trace written to {trace}")
    return 0


def _cmd_validate(args) -> int:
    header, blocks = fileio.read_matrix_blocks(args.file)
    labels = []
    if header["has_center"]:
        labels.append("center")
    labels.extend(f"sample {k}" for k in range(header["count"]))
    defects = _orthonormality_defects(blocks)
    print("\n".join(
        f"{label}: orthonormality defect {d:.6e} [{'ok' if d < TOL_ORTH else 'INVALID'}]"
        for label, d in zip(labels, defects)
    ))
    worst = float(defects.max())
    if worst >= TOL_ORTH:
        print(f"validation failed: worst defect {worst:.6e} >= {TOL_ORTH:.1e}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_exp(args) -> int:
    kind = _KIND_ALIASES.get(args.kind, args.kind)
    overrides = {}
    for name in ("p", "n", "n_samples", "sigma", "trials"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if args.sweep is not None:
        try:
            overrides["sweep"] = tuple(int(v) for v in args.sweep.split(","))
        except ValueError:
            raise _UsageError(f"bad sweep '{args.sweep}': expected integers "
                              "separated by commas") from None
    spec = experiments.default_spec(kind, args.seed,
                                    paper_scale=args.paper_scale, **overrides)
    result = experiments.run_experiment(spec)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / experiments.csv_filename(spec)
    result.write_csv(path)
    print(f"{kind} finished; CSV written to {path}")
    print("\n".join(result.summary()))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    handler = {
        "gen": _cmd_gen,
        "mean": _cmd_mean,
        "validate": _cmd_validate,
        "exp": _cmd_exp,
    }[args.command]
    try:
        return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FileFormatError as exc:
        print(f"file format error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"numerical domain error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"numerical validation error: {exc}", file=sys.stderr)
        return 2
    except StiefelMeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
