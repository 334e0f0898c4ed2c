"""Run one ``bdw`` command in-process with spans around each layer's public calls.

Usage: ``python perfbench/traced.py SPANS_JSON OP_ID -- <bdw arguments>``
with ``src`` on ``PYTHONPATH``.  Each function listed in ``TARGETS`` is
replaced, in every ``bdw`` module that holds a reference to it, by a
wrapper that records a span: name, start, end, parent span, whether it
raised, and the module the call went through.  Spans stay in memory and
are written once the command returns.  A target missing from the tree
under test is listed as absent.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

TARGETS = {
    "cli": ["load_csv"],
    "fit_ml": [
        "bdw_loglik", "init_estimates", "impute_dataset", "inner_em_mobw",
        "nested_em", "observed_info_ci",
    ],
    "mobw": ["ml_predict", "complete_loglik"],
    "univariate": ["dw_fit_minchisq", "dw_fit_ml"],
    "bivariate": [
        "sample", "joint_pmf", "joint_sf", "joint_cdf", "joint_pmf_grid", "moments",
    ],
    "fit_bayes": [
        "augmented_gibbs", "sample_lambdas_conditional", "sample_alpha_conditional",
        "credible_interval", "hpd_interval",
    ],
    "gof": ["chisq_bdw", "chisq_dw"],
}


class Tracer:
    """Span recorder; a span is ``[name, start, end, parent, raised, via, attrs]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str, via: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, False, via, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int, raised: bool) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][4] = raised
        self.stack.pop()

    def wrap(self, fn, name: str, via: str, after=None):
        def traced(*args, **kwargs):
            idx = self.open(name, via)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, True)
                raise
            self.close(idx, False)
            if after is not None:
                # the benchmark's own work gets a span, so it is not
                # counted as the caller's self time
                own = self.open("bench.after", "bench")
                self.spans[idx][6] = after(args, out)
                self.close(own, False)
            return out

        return traced


def _dataset_shape(args, report) -> dict:
    data = args[0]
    return {"rows": len(data.pairs), "cells": len(data.cells)}


def _draws(args, post) -> dict:
    from ess import min_bulk_ess

    return {"min_ess": min_bulk_ess(post.draws), "M": int(post.M), "N": int(post.N)}


AFTER = {"fit_ml.nested_em": _dataset_shape, "fit_bayes.augmented_gibbs": _draws}


def install(tracer: Tracer, modules: dict) -> list[str]:
    """Wrap every target wherever it is referenced; return the absent ones."""
    absent = []
    for home, names in TARGETS.items():
        for fname in names:
            fn = getattr(modules.get(home), fname, None)
            if fn is None:
                absent.append(f"{home}.{fname}")
                continue
            span = f"{home}.{fname}"
            for via, mod in modules.items():
                if getattr(mod, fname, None) is fn:
                    setattr(mod, fname, tracer.wrap(fn, span, via, AFTER.get(span)))
    return absent


def main() -> int:
    out_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON OP_ID -- <bdw arguments>")
    tracer = Tracer()
    idx = tracer.open("cli.import", "cli")
    import bdw.cli

    tracer.close(idx, False)
    modules = {}
    for name in TARGETS:
        try:
            modules[name] = importlib.import_module(f"bdw.{name}")
        except ImportError:
            continue
    absent = install(tracer, modules)
    idx = tracer.open("cli.main", "cli")
    try:
        code = bdw.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    tracer.close(idx, code != 0)
    with open(out_path, "w") as fh:
        json.dump(
            {
                "op": op_id,
                "t_start": T_START,
                "t_end": time.perf_counter(),
                "absent": absent,
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
