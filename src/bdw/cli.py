"""Command-line interface for fitting and simulating the bivariate model.

Every command writes through one writer a JSON report with stable key
order (``pmf-table`` a CSV grid); with the same inputs and seed the output
is byte-identical, so reports can be diffed and checksummed.  Verbosity is
controlled by the ``BDW_LOG`` environment variable (standard logging level
names); only then is ``logging`` imported.

Each command handler imports the layers it runs, so a process starts on
only those: ``pmf-table`` and ``moments`` run on the laws of ``weibull``
and ``bivariate`` alone, and ``simulate`` adds the samplers of
``sampling``; none of them loads a fitting module, the data commands'
handlers (``fit_commands``) or the data layer, which only the readers of
data import, and no command loads the paper's property results
(``properties``).  A command
that reads data runs its handler in ``fit_commands``, which returns the
report's parts for the one writer here; ``fit-dw`` and a column's
``gof`` run on ``weibull``, ``datasets`` and ``univariate`` alone, and
never load the joint law of ``bivariate``.  The law
layers import numpy only in the functions that build arrays, so
``moments``, ``pmf-table``, ``--help`` and every refusal of a law's
options run without it: ``pmf-table`` writes its grid row by row from
scalar DW log-mass tables.  So does ``simulate``, which draws the
uniforms of ``numpy.random.default_rng(seed)`` from the package's own
seeded stream, and so does ``fit-bayes``, whose generator draws that
generator's gamma, exponential, binomial and uniform values and whose
Gibbs sweep runs on ``math``; so do ``fit-dw``, ``fit-ml`` and ``gof``,
whose fits and fit checks run on ``math``: no command loads numpy, and
the reports of ``simulate`` and ``fit-bayes`` follow libm, not numpy's
SIMD kernels.  Only the JSON writer imports ``json``, so ``pmf-table``
and ``--help`` load no ``json`` either.

``run`` is the program entry (``bdw`` and ``python -m bdw.cli``); ``main``
serves in-process callers.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn, Sequence

from .weibull import _MAX_COUNT, _MAX_GRID_BOUND, _count

if TYPE_CHECKING:
    from .datasets import BivariateDataset

__all__ = ["load_csv", "main", "run"]

SCHEMA_VERSION = 1
# the law options of simulate, pmf-table and moments, and fit-bayes' priors
_LAW = ("alpha", "p0", "p1", "p2")
_PRIOR = ("a", "b", "a0", "a1", "a2", "c", "d")
# the --dataset choices: the names of datasets.BUILTIN, sorted, written out
# so that the law commands do not load the data layer
_DATASETS = ("football", "nasal")


def _info(msg: str, *args) -> None:
    # to the "bdw" logger when logging is loaded: by main under BDW_LOG, or
    # by an in-process caller; a plain command never imports it
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger("bdw").info(msg, *args)


def _int_field(token: str, lineno: int) -> int:
    text = token.strip()
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"line {lineno}: {text!r} is not an integer") from None
    if value < 0:
        raise ValueError(f"line {lineno}: negative value {value}")
    if value > _MAX_COUNT:
        raise ValueError(f"line {lineno}: {value} exceeds the largest count 2**63 - 1")
    return value


def _looks_like_header(row: list[str]) -> bool:
    # a header holds text that is no number; a row of numbers, fractions
    # and blanks included, is data, and its non-integers are refused
    for token in row:
        text = token.strip()
        try:
            float(text)
        except ValueError:
            if text:
                return True
    return False


def load_csv(path: str) -> BivariateDataset:
    """Read paired counts from a two-column CSV, optional single header."""
    import csv

    from .datasets import BivariateDataset

    pairs: list[tuple[int, int]] = []
    # utf-8-sig drops the byte-order mark that Excel's "CSV UTF-8" writes,
    # which would otherwise make line 1 read as a header
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not tok.strip() for tok in row):
                continue
            if lineno == 1 and _looks_like_header(row):
                continue
            if len(row) != 2:
                raise ValueError(
                    f"line {lineno}: expected two columns, got {len(row)}"
                )
            pairs.append(
                (_int_field(row[0], lineno), _int_field(row[1], lineno))
            )
    if not pairs:
        raise ValueError(f"{path}: no data rows")
    return BivariateDataset(tuple(pairs))


def _dataset(args: argparse.Namespace) -> tuple[BivariateDataset, dict]:
    if args.dataset is not None:
        from .datasets import builtin_dataset

        data = builtin_dataset(args.dataset)
        source = {"dataset": args.dataset, "n": len(data.pairs)}
    else:
        data = load_csv(args.input)
        source = {"path": args.input, "n": len(data.pairs)}
    _info("loaded %d pairs", len(data.pairs))
    return data, source


def _law(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name) for name in _LAW}


def _write(chunks: Iterable[str], output: str | None, what: str) -> None:
    # chunk by chunk as they are produced, so a long output is never held
    # whole; the file opens here, after the command's checks have passed
    if output:
        with open(output, "w") as fh:
            fh.writelines(chunks)
        _info("%s written to %s", what, output)
    else:
        sys.stdout.writelines(chunks)


def _emit(args: argparse.Namespace, source: dict, config: dict, results: dict) -> None:
    # imported here, as load_csv imports csv: pmf-table writes no JSON; the
    # seed is that of a command that takes one, else None
    import json

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "input": source,
        "seed": getattr(args, "seed", None),
        "config": config,
        "results": results,
    }
    _write((json.dumps(report, indent=2, sort_keys=True) + "\n",), args.output, "report")


def _cmd_data(args: argparse.Namespace) -> None:
    # a command that reads data: its fit handler runs on what it reads
    from . import fit_commands

    data, source = _dataset(args)
    handler = getattr(fit_commands, "_cmd_" + args.command.replace("-", "_"))
    _emit(args, source, *handler(args, data))


def _cmd_simulate(args: argparse.Namespace) -> None:
    from .bivariate import BDWParams
    from .sampling import _Stream, sample

    config = _law(args)
    params = BDWParams(**config)
    if args.n < 1:
        raise ValueError("sample size must be at least 1")
    # the uniforms of numpy's default_rng(seed), drawn without numpy
    draws = sample(params, _Stream(args.seed), size=args.n)
    config["n"] = args.n
    _emit(args, {"generator": "bdw"}, config, {"pairs": draws})


def _grid_csv(rows: Iterable[list[float]]) -> Iterator[str]:
    # the pmf-table CSV of a grid's pmf rows: its header, then one chunk per row
    return chain(["x1,x2,pmf\n"], (
        "".join([f"{i},{j},{mass!r}\n" for j, mass in enumerate(row)])
        for i, row in enumerate(rows)
    ))


def _cmd_pmf_table(args: argparse.Namespace) -> None:
    from . import bivariate

    params = bivariate.BDWParams(**_law(args))
    k = bivariate._table_bound(params) if args.k is None else _count(args.k, "--k")
    bivariate._check_grid(k, k)
    _write(_grid_csv(bivariate._pmf_rows(params, k, k)), args.output, "grid")


def _cmd_moments(args: argparse.Namespace) -> None:
    from .bivariate import BDWParams, moments

    config = _law(args)
    m = moments(BDWParams(**config))
    results = {name: getattr(m, name) for name in m._fields}
    _emit(args, {"generator": "bdw"}, config, results)


def _command(sub, name: str, help: str, func=None) -> argparse.ArgumentParser:
    # a law command runs func on the four law options; a command without one
    # reads data, and its handler in fit_commands runs on it
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func or _cmd_data)
    if func is not None:
        for option in _LAW:
            p.add_argument(f"--{option}", type=float, required=True)
    else:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument(
            "--dataset", choices=_DATASETS, help="built-in dataset name"
        )
        group.add_argument("--input", help="CSV file with two integer columns")
    return p


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdw",
        description="Bivariate discrete Weibull fitting and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "fit-dw", "fit one-dimensional discrete Weibull")
    p.add_argument("--column", choices=("x1", "x2", "min"), required=True)
    p.add_argument("--no-absorb-tail", action="store_true")

    _command(sub, "fit-ml", "maximum-likelihood joint fit")

    p = _command(sub, "fit-bayes", "Bayesian joint fit")
    p.add_argument("--draws", "-M", type=int, default=10_000,
                   help="Gibbs draws per round")
    p.add_argument("--rounds", "-N", type=int, default=20,
                   help="outer imputation rounds")
    p.add_argument("--seed", type=_seed_value, default=0)
    p.add_argument("--burn-in", type=float, default=0.1)
    for option in _PRIOR:
        p.add_argument(f"--{option}", type=float, default=1e-4)

    p = _command(sub, "gof", "chi-square goodness of fit")
    p.add_argument("--column", choices=("x1", "x2", "min", "joint"),
                   default="joint")
    p.add_argument("--estimator", choices=("minchisq", "ml"), default=None,
                   help="a column's fit (default minchisq); joint fits by ml")
    p.add_argument("--no-absorb-tail", action="store_true")

    p = _command(sub, "simulate", "draw joint samples", _cmd_simulate)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=_seed_value, default=0)

    p = _command(sub, "pmf-table", "joint PMF grid as CSV", _cmd_pmf_table)
    p.add_argument("--k", type=int, default=None,
                   help=f"grid bound, at most {_MAX_GRID_BOUND}; "
                        "default leaves < 1e-6 mass outside")

    _command(sub, "moments", "means, variances and correlation", _cmd_moments)

    # last in every command's usage and help
    for p in sub.choices.values():
        p.add_argument("--output")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if "BDW_LOG" in os.environ:
        import logging

        # a level's name; any other value, a name of logging's that is no
        # level (BASIC_FORMAT) included, reads as WARNING
        level = getattr(logging, os.environ["BDW_LOG"].upper(), None)
        logging.basicConfig(
            stream=sys.stderr,
            level=level if isinstance(level, int) else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "gof" and args.column == "joint" and (
        args.no_absorb_tail or args.estimator == "minchisq"
    ):
        parser.error(
            "gof --column joint fits by ml and always absorbs the tail: "
            "--estimator minchisq and --no-absorb-tail apply to a single column"
        )
    try:
        args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation; Python's own is empty
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


def run() -> NoReturn:
    """Run :func:`main` on ``sys.argv`` and exit with its status.

    On every way out, argparse's ``SystemExit`` included, the live objects
    are first frozen into the collector's permanent generation: the
    interpreter's final collection, most of a short command's exit time,
    skips them, and the OS reclaims their memory. atexit handlers and the
    flush of the standard streams still run.
    """
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
