"""contextlab benchmark: one workload, end to end or traced layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, so nothing is installed or built.  The load is a closed loop with
one client: each pipeline step is a fresh `python` process that the harness
starts and waits for before it starts the next, so at most one child runs
at a time.

With `--trace 0` the harness first times fresh imports of the workload's
entry module (`setup_s`, the median of several), then repeats the whole
pipeline untraced while `--seconds` allow, and reports medians over the
repetitions.  With `--trace 1` it alternates untraced and traced
repetitions; a traced step runs in-process under `bench/tracer.py`, which
records spans around each layer's public functions.  Per-layer metrics come
from those spans, from `python -X importtime` and from the untraced steps'
own wall time and peak RSS (`os.wait4` on each child's pid).

Every repetition's artifacts must hash like the first one's, and the first
repetition's artifacts pass the workload's checks.  Checks run after all
timing.  Failed steps plus failed checks over all attempted ones is the
failed ratio.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}};
metric names and units are those declared in BENCHMARK.json.  A run record
with the seed, library versions, CPU, checks and artifact sha256s is written
to .bench_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import NamedTuple

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RUNS = ROOT / ".bench_runs"
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
TIME_LIMIT_S = 150.0  # children still running this long into a run are killed
CLI_COMMANDS = ("bell-run", "bell-analyze", "sweep", "coins-run", "stream-test")
NOT_ARTIFACTS = (".log", ".spans.json")


class StepRun(NamedTuple):
    command: str
    status: int
    wall_s: float
    peak_rss_mb: float


@dataclass
class Rep:
    """One repetition of a workload's pipeline."""

    path: Path
    traced: bool
    wall_s: float = 0.0
    steps: list[StepRun] = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def failed_steps(self) -> int:
        return sum(s.status != 0 for s in self.steps)


class Harness:
    def __init__(self, workload: workloads.Workload, run_dir: Path):
        self.workload = workload
        self.run_dir = run_dir
        self.deadline = perf_counter() + TIME_LIMIT_S
        paths = [str(ROOT / "src"), str(BENCH)]
        if os.environ.get("PYTHONPATH"):
            paths.append(os.environ["PYTHONPATH"])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}

    def spawn(self, argv, cwd: Path, log: Path) -> tuple[int, float, float]:
        """Run one child to completion: (exit status, wall s, its own peak RSS MB)."""
        with log.open("wb") as out:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(1.0, self.deadline - perf_counter()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def fresh_import(self, *flags) -> tuple[float, Path]:
        log = self.run_dir / "import.log"
        status, wall, _ = self.spawn(
            [sys.executable, *flags, "-c", f"import {self.workload.setup_import}"], self.run_dir, log
        )
        if status != 0:
            raise RuntimeError(f"importing {self.workload.setup_import} failed:\n{log.read_text()}")
        return wall, log

    def repetition(self, index: int, traced: bool) -> Rep:
        rep = Rep(self.run_dir / f"rep-{index:02d}", traced)
        rep.path.mkdir()
        start = perf_counter()
        for i, step in enumerate(self.workload.steps):
            if traced:
                argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", f"{i}.spans.json", step.entry]
            elif step.entry == "cli":
                argv = [sys.executable, "-m", "contextlab"]
            else:
                argv = [sys.executable, str(BENCH / "finite_oracle.py")]
            status, wall, rss = self.spawn([*argv, *step.args], rep.path, rep.path / f"{i}.log")
            rep.steps.append(StepRun(step.command, status, wall, rss))
        rep.wall_s = perf_counter() - start
        rep.digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(rep.path.iterdir())
            if not p.name.endswith(NOT_ARTIFACTS)
        }
        return rep

    def repeat(self, seconds: float, traced_too: bool) -> list[Rep]:
        """Repetitions while the next one is expected to end inside `seconds`."""
        reps: list[Rep] = []
        start = perf_counter()
        while True:
            reps.append(self.repetition(len(reps), traced=False))
            if traced_too:
                reps.append(self.repetition(len(reps), traced=True))
            elapsed = perf_counter() - start
            per_round = elapsed / (len(reps) // (2 if traced_too else 1))
            if elapsed + per_round > seconds:
                return reps


def spans_of(rep: Rep) -> list:
    """The spans of every step of a traced repetition, parents re-indexed."""
    spans: list = []
    for i in range(len(rep.steps)):
        path = rep.path / f"{i}.spans.json"
        if not path.exists():  # the step failed, which the failed count shows
            continue
        offset = len(spans)
        for name, start, end, parent, counts in json.loads(path.read_text()):
            spans.append([name, start, end, parent + offset if parent >= 0 else -1, counts])
    return spans


def import_times(log: str, entry: str) -> dict:
    """Seconds per package from a `python -X importtime` log.

    A package's time is the cumulative time of its outermost lines, since
    `scipy` loads `scipy.stats` through importlib, which the log does not
    list; only the submodules that `scipy.stats` imports appear.
    """
    rows = []
    for line in log.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                depth = (len(name) - len(name.lstrip())) // 2
                rows.append((depth, name.strip(), int(cumulative) / 1e6))

    def outermost(package: str) -> float:
        total, ancestors = 0.0, []  # parents follow their children in the log
        for depth, name, seconds in reversed(rows):
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            inside = (name == package or name.startswith(package + "."))
            if inside and not any(a[1] for a in ancestors):
                total += seconds
            ancestors.append((depth, inside))
        return total

    return {
        "import.contextlab_cli_s": outermost(entry),
        "import.scipy_stats_s": outermost("scipy"),
        "import.numpy_s": outermost("numpy"),
    }


def rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def end_to_end(workload, reps: list[Rep], setup: list[float]) -> dict:
    wall = median(r.wall_s for r in reps)
    return {
        "setup_s": median(setup),
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "peak_rss_mb": median(max(s.peak_rss_mb for s in r.steps) for r in reps),
    }


# (span, count it records, the rate metric's suffix)
RATES = (
    ("simulate.run_experiment", "trials", "trials_per_s"),
    ("simulate.write_stream_csv", "rows", "rows_per_s"),
    ("simulate.read_stream_csv", "rows", "rows_per_s"),
    ("analysis.estimate_correlations", "trials", "trials_per_s"),
    ("coins.e4_run", "draws", "draws_per_s"),
)


def per_layer(plain: list[Rep], traced: list[Rep], imports: list[dict]) -> dict:
    """Times are medians over repetitions.  Counts are exact and the same in
    every repetition, so they come from the first traced one."""
    metrics = {k: median(d[k] for d in imports) for k in imports[0]}
    totals = [tracer.layer_totals(spans_of(r)) for r in traced]

    def seconds(span, key="s"):
        return median(t.get(span, {}).get(key, 0.0) for t in totals)

    def count(span, key):
        return totals[0].get(span, {}).get(key, 0)

    for span in tracer.SPAN_NAMES:
        metrics[f"{span}.calls"] = count(span, "calls")
        metrics[f"{span}.s"] = seconds(span)
    for span, key, suffix in RATES:
        metrics[f"{span}.{suffix}"] = rate(count(span, key), metrics[f"{span}.s"])
    metrics["simulate.run_experiment.self_s"] = seconds("simulate.run_experiment", "self_s")
    metrics["simulate.run_experiment.stream_bytes"] = count("simulate.run_experiment", "stream_bytes")
    metrics["simulate.write_stream_csv.bytes"] = count("simulate.write_stream_csv", "bytes")
    metrics["analysis.model_curves.points"] = count("analysis.model_curves", "points")
    metrics["models.fsum_terms"] = count("models.pair_expectation", "fsum_terms") + count(
        "models.coincidence_expectation", "fsum_terms"
    )
    for command in CLI_COMMANDS:
        mine = [[s for s in r.steps if s.command == command] for r in plain]
        metrics[f"cli.{command}.wall_s"] = median(sum(s.wall_s for s in m) for m in mine)
        metrics[f"cli.{command}.peak_rss_mb"] = median(max((s.peak_rss_mb for s in m), default=0.0) for m in mine)
        metrics[f"cli.{command}.self_s"] = seconds(f"cli.{command}", "self_s")
    metrics["trace.overhead_s"] = median(r.wall_s for r in traced) - median(r.wall_s for r in plain)
    return metrics


def machine_facts() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def measure(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Run one benchmark run and return its result and run record."""
    if str(ROOT / "src") not in sys.path:  # preparation and checks use the library in-process
        sys.path.insert(0, str(ROOT / "src"))
    workload = workloads.build(name, seed, scale)
    run_dir = RUNS / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    harness = Harness(workload, run_dir)
    if workload.prepare is not None:
        workload.prepare(run_dir)
    harness.fresh_import()  # compiles bytecode and warms the file cache
    if trace:
        imports = [
            import_times(harness.fresh_import("-X", "importtime")[1].read_text(), workload.setup_import)
            for _ in range(IMPORTTIME_SAMPLES)
        ]
        setup = []
    else:
        setup = [harness.fresh_import()[0] for _ in range(SETUP_SAMPLES)]
    reps = harness.repeat(seconds, traced_too=trace)

    first = reps[0]
    checks = [(f"artifacts of {r.path.name} hash like {first.path.name}'s", r.digests == first.digests, "")
              for r in reps[1:]]
    if first.failed_steps == 0:
        try:
            checks += workload.check(first.path)
        except Exception as exc:  # malformed artifacts fail the checks, not the run
            checks.append(("artifacts readable", False, repr(exc)))
    else:
        logs = "\n".join((first.path / f"{i}.log").read_text()[-2000:] for i in range(len(first.steps)))
        checks.append(("pipeline completed", False, logs))
    attempted = sum(len(r.steps) for r in reps) + len(checks)
    failed = sum(r.failed_steps for r in reps) + sum(not ok for _, ok, _ in checks)

    plain = [r for r in reps if not r.traced]
    if trace:
        metrics = per_layer(plain, [r for r in reps if r.traced], imports)
    else:
        metrics = end_to_end(workload, plain, setup)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        **machine_facts(),
        "items": workload.items,
        "setup_samples": setup,
        "repetitions": [
            {"traced": r.traced, "wall_s": r.wall_s, "steps": [s._asdict() for s in r.steps]} for r in reps
        ],
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
        "failed_ratio": failed / attempted,
        "artifact_sha256": first.digests,
        "metrics": metrics,
    }
    shutil.rmtree(run_dir)
    (RUNS / f"{run_dir.name}.json").write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0, help="shrink the workload (the benchmark's tests)")
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "contextlab" / "__init__.py").is_file():
        print(f"error: no contextlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if opts.trace else spec["end_to_end"]
    result = measure(opts.workload, opts.seed, opts.seconds, bool(opts.trace), opts.scale)
    metrics, record = result["metrics"], result["record"]
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ {m['name'] for m in declared})}")
    print(f"workload {opts.workload}, seed {opts.seed}, {len(record['repetitions'])} repetitions")
    print(f"python {record['python']}, numpy {record['numpy']}, scipy {record['scipy']}, "
          f"nproc {record['nproc']}, cpu {record['cpu']}")
    for name, ok, detail in ((c["name"], c["passed"], c["detail"]) for c in record["checks"]):
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    for digest_name, digest in record["artifact_sha256"].items():
        print(f"sha256 {digest} {digest_name}")
    for m in declared:
        print(f"{m['name']} = {metrics[m['name']]} {m['unit']}")
    print(f"failed_ratio = {record['failed_ratio']} 1")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
