"""Why |S| <= 2 needs one shared probability space, and only then.

If all four CHSH observables are random variables on a single space (one
source space, one instrument space per wing reused by every setting, no
missed detections), every deterministic strategy is one of 16 vertices, and
each vertex gives S = +-2.  Mixtures are convex combinations, so nothing on
that shared space can beat 2.  Streams sampled from explicitly degenerate
models stay below the bound up to sampling noise; the contextual models with
per-setting spaces (see demo 03) are simply not of this form, which is why
the bound does not apply to them.
"""

import numpy as np

from contextlab.analysis import (
    DEFAULT_CHSH_SETTINGS,
    chsh,
    estimate_correlations,
    lhv_bound_enumeration,
)
from contextlab.models import shared_space_model
from contextlab.simulate import SettingsSchedule, run_counts

result = lhv_bound_enumeration()
print(" A(a) A(a') B(b) B(b')     S")
for aa, ap, bb, bp, s in result.vertices:
    print(f"{aa:+5d} {ap:+5d} {bb:+4d} {bp:+5d} {s:+6d}")
print(f"\nmax |S| over the 16 deterministic strategies: {result.max_abs_s:g}")
print(result.note)

a, ap, b, bp = DEFAULT_CHSH_SETTINGS
print("\nstreams from random shared-space models (20k trials each):")
for seed in range(8):
    model = shared_space_model(np.random.default_rng(seed))
    schedule = SettingsSchedule("random", (a, ap), (b, bp), seed=100 + seed)
    folded = run_counts(model, schedule, 20_000, master_seed=seed)
    r = chsh(estimate_correlations(folded), a, ap, b, bp, "raw")
    print(
        f"  seed {seed}: S = {r.s_value:+.4f} +- {r.se:.4f}   "
        f"|S| <= 2 + 5 SE: {abs(r.s_value) <= 2 + 5 * r.se}"
    )
