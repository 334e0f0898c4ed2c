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

Each command's options are declared once, in one table (``_COMMANDS``).
A well-formed line (see ``_read``) is read off the table directly into the
namespace argparse would give, so ``import bdw.cli`` and every such
command load no ``argparse``, nor the ``gettext`` and ``locale`` that it
imports.  Every other line, ``--help`` included, goes to the parser that
``_build_parser`` builds from the same table: argparse alone writes
usage, help and refusals.

``run`` is the program entry (``bdw`` and ``python -m bdw.cli``); ``main``
serves in-process callers.
"""

from __future__ import annotations

import gc
import os
import sys
from itertools import chain
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, NoReturn, Sequence

from .weibull import _MAX_COUNT, _MAX_GRID_BOUND, _count

if TYPE_CHECKING:
    import argparse

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


def _seed_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        problem = f"seed must be an integer, got {text!r}"
    else:
        if 0 <= value < 2**64:
            return value
        problem = "seed must fit in 64 unsigned bits"
    import argparse  # only to refuse a seed, as argparse reports it

    raise argparse.ArgumentTypeError(problem)


# Every command's options, declared once, each as its option strings and
# argparse's keywords: _build_parser builds argparse's tree from them, and
# _read reads a well-formed line directly.  A command run by _cmd_data
# reads data and takes exactly one of the data options; any other command
# takes the four law options; every command takes its own options, then
# --output, last in its usage and help.
_DATA_OPTIONS = (
    (("--dataset",), {"choices": _DATASETS, "help": "built-in dataset name"}),
    (("--input",), {"help": "CSV file with two integer columns"}),
)
_LAW_OPTIONS = tuple(((f"--{name}",), {"type": float, "required": True}) for name in _LAW)
_NO_TAIL = (("--no-absorb-tail",), {"action": "store_true", "default": False})
_SEED = (("--seed",), {"type": _seed_value, "default": 0})
_OUTPUT = (("--output",), {})
# name: (help line, handler, own options)
_COMMANDS = {
    "fit-dw": ("fit one-dimensional discrete Weibull", _cmd_data, (
        (("--column",), {"choices": ("x1", "x2", "min"), "required": True}),
        _NO_TAIL,
    )),
    "fit-ml": ("maximum-likelihood joint fit", _cmd_data, ()),
    "fit-bayes": ("Bayesian joint fit", _cmd_data, (
        (("--draws", "-M"), {"type": int, "default": 10_000, "help": "Gibbs draws per round"}),
        (("--rounds", "-N"), {"type": int, "default": 20, "help": "outer imputation rounds"}),
        _SEED,
        (("--burn-in",), {"type": float, "default": 0.1}),
        *(((f"--{name}",), {"type": float, "default": 1e-4}) for name in _PRIOR),
    )),
    "gof": ("chi-square goodness of fit", _cmd_data, (
        (("--column",), {"choices": ("x1", "x2", "min", "joint"), "default": "joint"}),
        (("--estimator",), {"choices": ("minchisq", "ml"), "default": None,
                            "help": "a column's fit (default minchisq); joint fits by ml"}),
        _NO_TAIL,
    )),
    "simulate": ("draw joint samples", _cmd_simulate, (
        (("--n",), {"type": int, "required": True}),
        _SEED,
    )),
    "pmf-table": ("joint PMF grid as CSV", _cmd_pmf_table, (
        (("--k",), {"type": int, "default": None,
                    "help": f"grid bound, at most {_MAX_GRID_BOUND}; "
                            "default leaves < 1e-6 mass outside"}),
    )),
    "moments": ("means, variances and correlation", _cmd_moments, ()),
}


def _options(name: str) -> tuple[tuple, tuple]:
    # a command's data or law options, then the rest of its options
    _, func, own = _COMMANDS[name]
    return _DATA_OPTIONS if func is _cmd_data else _LAW_OPTIONS, (*own, _OUTPUT)


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="bdw",
        description="Bivariate discrete Weibull fitting and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, func, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        lead, rest = _options(name)
        group = p.add_mutually_exclusive_group(required=True) if lead is _DATA_OPTIONS else p
        for strings, keywords in lead:
            group.add_argument(*strings, **keywords)
        for strings, keywords in rest:
            p.add_argument(*strings, **keywords)
    return parser


def _joint_conflict(args: argparse.Namespace) -> bool:
    # gof --column joint fits by ml and absorbs the tail
    return args.command == "gof" and args.column == "joint" and (
        args.no_absorb_tail or args.estimator == "minchisq"
    )


def _read(argv: list) -> SimpleNamespace | None:
    """The namespace argparse would give a well-formed line, else None.

    A line is well-formed when its first token is a command and each later
    token is one of that command's option strings, written in full, with no
    destination given twice; when each value does not start with ``-``,
    converts by its option's type and lies in its choices; and when every
    required option is there, exactly one of ``--dataset`` and ``--input``
    for a command that reads data, and gof's options do not conflict.
    Every other line, help included, is argparse's to read or refuse.
    """
    if not argv or not all(isinstance(token, str) for token in argv) or argv[0] not in _COMMANDS:
        return None
    lead, rest = _options(argv[0])
    options = [(strings[0][2:].replace("-", "_"), strings, keywords)
               for strings, keywords in (*lead, *rest)]
    declared = {string: (dest, keywords) for dest, strings, keywords in options
                for string in strings}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in declared:
            return None
        dest, keywords = declared[token]
        if dest in given:
            return None
        if keywords.get("action") == "store_true":
            given[dest] = True
            continue
        text = next(tokens, "-")
        if text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # argparse converts it again, and reports the error
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        given[dest] = value
    if lead is _DATA_OPTIONS and ("dataset" in given) == ("input" in given):
        return None
    values = {"command": argv[0], "func": _COMMANDS[argv[0]][1]}
    for dest, _, keywords in options:
        if dest in given:
            values[dest] = given[dest]
        elif keywords.get("required"):
            return None
        else:
            values[dest] = keywords.get("default")
    args = SimpleNamespace(**values)
    return None if _joint_conflict(args) else args


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
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _read(argv)
    if args is None:
        # argparse writes every usage, help and refusal
        parser = _build_parser()
        args = parser.parse_args(argv)
        if _joint_conflict(args):
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
