"""The span targets of bench/tracer.py still match the library they patch.

The tracer resolves each target by module and attribute path, and binds a
count hook's arguments to the target's parameters by name, so renaming a
traced function or one of those parameters would crash every traced
benchmark run.  These tests only read bench/.
"""

import dis
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contextlab.models import save_model
from contextlab.simulate import SelectiveModel, discretize

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

_spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# every argument the count hooks read, by name
HOOK_ARGUMENTS = {"stream", "path", "n_points", "draws_per_round", "rounds", "model"}


def resolve(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def arguments_read(hook) -> set:
    """The constant keys a hook subscripts, in its own code and in what it calls."""
    code = hook.__code__
    found = set()
    instructions = list(dis.get_instructions(code))
    for load, use in zip(instructions, instructions[1:]):
        # newer interpreters compile a subscript to BINARY_OP "[]"
        subscript = (use.opname, use.argrepr) in (("BINARY_SUBSCR", ""), ("BINARY_OP", "[]"))
        if load.opname == "LOAD_CONST" and isinstance(load.argval, str) and subscript:
            found.add(load.argval)
    for name in code.co_names:  # a helper such as _fsum_terms
        helper = getattr(tracer, name, None)
        if inspect.isfunction(helper):
            found |= arguments_read(helper)
    return found


@pytest.mark.parametrize("target", tracer.TARGETS, ids=tracer.SPAN_NAMES)
def test_every_target_resolves(target):
    _, module, path, _, only = target
    original = resolve(module, path)
    assert callable(original)
    for namespace in only or ():
        bindings = vars(importlib.import_module(namespace)).values()
        assert any(value is original for value in bindings), namespace


def test_the_generation_layers_are_traced():
    for span in ("simulate.run_experiment", "simulate.wing_outcome",
                 "models.FiniteContextualModel.sampling_tables"):
        assert span in tracer.SPAN_NAMES


def test_every_argument_a_count_hook_reads_is_a_parameter_of_its_target():
    read = set()
    for name, module, path, counts, _ in tracer.TARGETS:
        if counts is None:
            continue
        needed = arguments_read(counts)
        assert needed <= set(inspect.signature(resolve(module, path)).parameters), name
        read |= needed
    assert read == HOOK_ARGUMENTS


@pytest.fixture
def traced(tmp_path):
    """Run `bench/tracer.py` on one entry and return its per-span totals."""

    def run(entry, *args):
        spans = tmp_path / f"{entry}.json"
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans), entry, *args],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return tracer.layer_totals(json.loads(spans.read_text()))

    return run


def test_the_tracer_installs_and_counts_a_cli_run(traced):
    argv = ["bell-run", "--n-trials", "300", "--schedule-seed", "1", "--out", "s.csv"]
    totals = traced("cli", *argv)
    # bell-run writes each chunk as it is generated, so no whole stream exists
    assert "simulate.run_experiment" not in totals and "simulate.write_stream_csv" not in totals
    assert totals["simulate.wing_outcome"]["calls"] == 2
    assert totals["cli.bell-run"]["calls"] == 1
    totals = traced("cli", "bell-analyze", "--stream", "s.csv")
    assert totals["analysis.estimate_correlations"]["trials"] == 300
    assert totals["cli.bell-analyze"]["calls"] == 1


def test_the_tracer_installs_and_counts_a_finite_oracle_run(traced, tmp_path):
    x, y = (0.0, 0.5, 1.0), (0.25, 0.75)
    model = discretize(SelectiveModel(2.0, 0.25), x, y, n_source=8, n_alice=10, n_bob=10)
    save_model(model, tmp_path / "model.json")
    totals = traced("oracle", "model.json", "oracle.json", "--trials", "400", "--seed", "3")
    assert totals["simulate.run_experiment"]["trials"] == 400
    # one chunk: one table lookup per setting of each wing
    assert totals["models.FiniteContextualModel.sampling_tables"]["calls"] == 5
    assert totals["models.pair_expectation"]["fsum_terms"] > 0
