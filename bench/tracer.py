"""Span recorder for the traced benchmark run, patched in from outside `src/`.

Run as a child process, one per pipeline step:

    python bench/tracer.py --spans SPANS.json cli <contextlab arguments...>
    python bench/tracer.py --spans SPANS.json oracle <finite_oracle arguments...>

It imports the entry (`contextlab.cli` or the finite-oracle driver), wraps
each public function in TARGETS in every module namespace that holds a
binding to it, runs the step in-process and writes the spans as JSON when it
ends.  Every namespace matters: `cli` and `analysis` use `from .x import y`,
so a patch of only the defining module would miss their calls.

A span is `[name, start, end, parent, items]`: perf_counter seconds, the
index of the enclosing span (-1 at top level) and a dict of exact counts
computed from the call's arguments and result after the span has ended, so
counting costs no span time.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
from pathlib import Path
from time import perf_counter


def _nbytes(stream) -> int:
    return sum(col.nbytes for col in (stream.trial, stream.x, stream.y, stream.a, stream.b))


def _fsum_terms(args, result) -> dict:
    n1, n2 = args["model"].source_dist.shape
    return {"fsum_terms": n1 * n2}


# (span name, defining module, attribute path, counts from (arguments, result),
#  namespaces to patch or None for every one holding a binding)
TARGETS = (
    ("seeding.substream", "contextlab.seeding", "substream", None, None),
    (
        "simulate.run_experiment",
        "contextlab.simulate",
        "run_experiment",
        lambda a, r: {"trials": len(r), "stream_bytes": _nbytes(r)},
        None,
    ),
    ("simulate.SettingsSchedule.indices", "contextlab.simulate", "SettingsSchedule.indices", None, None),
    ("simulate.wing_outcome", "contextlab.simulate", "wing_outcome", None, None),
    (
        "models.FiniteContextualModel.sampling_tables",
        "contextlab.models",
        "FiniteContextualModel.sampling_tables",
        None,
        None,
    ),
    (
        "simulate.write_stream_csv",
        "contextlab.simulate",
        "write_stream_csv",
        lambda a, r: {"rows": len(a["stream"]), "bytes": Path(a["path"]).stat().st_size},
        None,
    ),
    ("simulate.read_stream_csv", "contextlab.simulate", "read_stream_csv", lambda a, r: {"rows": len(r)}, None),
    (
        "analysis.estimate_correlations",
        "contextlab.analysis",
        "estimate_correlations",
        lambda a, r: {"trials": len(a["stream"])},
        None,
    ),
    ("analysis.no_signaling_report", "contextlab.analysis", "no_signaling_report", None, None),
    # only the binding `analysis` uses: the no-signaling tables.  The purity
    # battery's homogeneity test reaches the same function through randtests.
    ("analysis.chi_square_table", "contextlab.randtests", "chi_square_table", None, ("contextlab.analysis",)),
    ("analysis.model_curves", "contextlab.analysis", "model_curves", lambda a, r: {"points": a["n_points"]}, None),
    ("models.load_model", "contextlab.models", "load_model", None, None),
    # one source contraction per call; coincidence_expectation adds the
    # joint-detection contraction and reaches pair_expectation as a child span
    ("models.pair_expectation", "contextlab.models", "pair_expectation", _fsum_terms, None),
    ("models.coincidence_expectation", "contextlab.models", "coincidence_expectation", _fsum_terms, None),
    (
        "coins.e4_run",
        "contextlab.coins",
        "e4_run",
        lambda a, r: {"draws": a["draws_per_round"] * a["rounds"]},
        None,
    ),
    ("coins.write_coin_csv", "contextlab.coins", "write_coin_csv", None, None),
    ("coins.read_coin_csv", "contextlab.coins", "read_coin_csv", None, None),
    ("coins.hole_protocol", "contextlab.coins", "hole_protocol", None, None),
    ("randtests.runs_test", "contextlab.randtests", "runs_test", None, None),
    ("randtests.frequency_test", "contextlab.randtests", "frequency_test", None, None),
    ("randtests.block_variance_test", "contextlab.randtests", "block_variance_test", None, None),
    ("randtests.homogeneity_test", "contextlab.randtests", "homogeneity_test", None, None),
    ("randtests.autocorrelation_test", "contextlab.randtests", "autocorrelation_test", None, None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Recorder:
    """Keeps spans in memory; `wrap` returns a recording twin of a function."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        signature = inspect.signature(fn) if counts else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = counts(bound.arguments, result)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Patch every target in every loaded namespace that binds it."""
    # load every defining module, so each target exists and shows zero calls
    # where the entry never uses it (the finite-oracle driver never imports coins)
    for module in {t[1] for t in TARGETS}:
        importlib.import_module(module)
    modules = [m for m in list(sys.modules.values()) if m is not None]
    for name, module, path, counts, only in TARGETS:
        owner = sys.modules[module]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = recorder.wrap(name, original, counts)
        if outer:  # a method: the class object is shared by every namespace
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            if only is not None and mod.__name__ not in only:
                continue
            namespace = getattr(mod, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(mod, key, wrapper)
    cli = sys.modules.get("contextlab.cli")
    if cli is not None:  # commands are dispatched through this table
        for command, fn in list(cli.COMMANDS.items()):
            cli.COMMANDS[command] = recorder.wrap(f"cli.{command}", fn)


def layer_totals(spans) -> dict:
    """Per span name: calls, total seconds, self seconds and summed counts."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict = {}
    for i, (name, start, end, _, counts) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - child_time[i]
        for key, value in (counts or {}).items():
            t[key] = t.get(key, 0) + value
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans as JSON")
    parser.add_argument("entry", choices=("cli", "oracle"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    if opts.entry == "cli":
        from contextlab.cli import run_command as run
    else:
        from finite_oracle import main as run
    recorder = Recorder()
    install(recorder)
    status = run(opts.args)
    Path(opts.spans).write_text(json.dumps(recorder.spans))
    return status


if __name__ == "__main__":
    sys.exit(main())
