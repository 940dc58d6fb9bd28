"""The byte contract at each CPU dispatch level the host offers.

numpy picks its float64 `exp`, `log` and `pow` kernels (and some float32 ones)
by CPU feature, and glibc picks FMA or non-FMA `cos`, `exp`, `log` and `pow`.
A few pinned commands run in one child process per level, whose environment
alone lowers the level, and every artifact they write must have the sha256 of
the native run's.  No machine setting is changed.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from contextlab.models import save_model
from contextlab.simulate import SelectiveModel, discretize

umath = pytest.importorskip("numpy._core._multiarray_umath")

ROOT = Path(__file__).resolve().parent.parent

# Artifacts whose bytes may follow the host's CPU level, each with the reason.
# None today: the quadrature takes its node tables and powers from Python's
# `math` module, and no artifact moved at either lower level on an AVX-512 host.
HOST_BOUND: dict[str, str] = {}

# level -> (the numpy features the host must have, the child's environment)
AVX512_OFF = "X86_V4 AVX512_ICL AVX512_SPR"
LEVELS = {
    "numpy-avx512-off": (
        AVX512_OFF.split(),
        {"NPY_DISABLE_CPU_FEATURES": AVX512_OFF},
    ),
    "numpy-avx2-fma-and-glibc-fma-avx2-off": (
        ["X86_V3", *AVX512_OFF.split()],
        {"NPY_DISABLE_CPU_FEATURES": "X86_V3 " + AVX512_OFF, "GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"},
    ),
}

COMMANDS = [
    ["bell-run", "--model", "selective", "--sharpness", "2.7", "--asymmetry", "0.25",
     "--n-trials", "20000", "--out", "s.csv"],
    ["bell-analyze", "--stream", "s.csv", "--report", "analyze.json"],
    ["sweep", "--trials-per-point", "2000", "--report", "sweep.json", "--plot-data", "sweep.dat"],
    ["demo", "--quick", "--out-dir", "demo"],
    ["bell-run", "--model", "MODEL", "--n-trials", "20000", "--out", "finite.csv"],
    ["stream-test", "--stream", "finite.csv", "--kind", "bell", "--report", "stream-test.json"],
]

# runs the commands, then prints whether each named numpy feature is on
CHILD = """
import json, sys
import numpy._core._multiarray_umath as umath
from contextlab.cli import run_command
for argv in json.loads(sys.argv[1]):
    assert run_command(argv) == 0, argv
print(json.dumps([umath.__cpu_features__[name] for name in sys.argv[2:]]))
"""


def run_level(out: Path, model: Path, env: dict, features: list) -> dict:
    """Run `COMMANDS` in `out` under `env`; the sha256 of every file they wrote."""
    out.mkdir()
    argv = [[str(model) if a == "MODEL" else a for a in command] for command in COMMANDS]
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    base = {k: v for k, v in os.environ.items()
            if k not in ("CONTEXTLAB_OUTDIR", "NPY_DISABLE_CPU_FEATURES", "GLIBC_TUNABLES")}
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argv), *features],
        env={**base, **env, "PYTHONPATH": path}, cwd=out, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    # the level took effect: each feature it turns off is off in the child
    assert json.loads(done.stdout.splitlines()[-1]) == [False] * len(features)
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


@pytest.fixture(scope="module")
def native(tmp_path_factory):
    """The model file every level reads, and the native run's digests."""
    base = tmp_path_factory.mktemp("cpu-levels")
    model = base / "discretized.json"
    settings = ((0.0, math.pi / 4), (math.pi / 8, 3 * math.pi / 8))
    save_model(discretize(SelectiveModel(2.0, 0.25), *settings, n_source=36, n_alice=40, n_bob=40), model)
    digests = run_level(base / "native", model, {}, [])
    assert len(digests) == 17  # each command's artifacts, with their config echoes and sidecars
    return base, model, digests


@pytest.mark.parametrize("level", LEVELS)
def test_every_artifact_keeps_its_bytes_at_a_lower_cpu_level(level, native):
    features, env = LEVELS[level]
    # a feature the host lacks, or this numpy does not dispatch on, leaves nothing to turn off
    missing = [n for n in features if n not in umath.__cpu_dispatch__ or not umath.__cpu_features__.get(n)]
    if missing:
        pytest.skip(f"no dispatched {', '.join(missing)} on this host")
    base, model, want = native
    got = run_level(base / level, model, env, features)
    assert sorted(got) == sorted(want)
    changed = sorted(name for name in want if got[name] != want[name] and name not in HOST_BOUND)
    assert not changed, f"bytes moved at {level}: {changed}"
