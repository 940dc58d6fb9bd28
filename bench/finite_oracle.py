"""Finite-oracle workload driver: the library path no CLI command reaches.

    python bench/finite_oracle.py MODEL.json OUT.json --trials N --seed S

Loads a finite contextual model file, runs the finite generation branch of
`run_experiment` on a cycle schedule over every declared setting pair, folds
the stream, audits no-signaling, and evaluates the exact `pair_expectation`
and `coincidence_expectation` of every pair.  OUT.json holds the estimates
and the exact values (floats written by `json`, so they round-trip exactly).
Its module-level imports are what `setup_s` times for this workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from contextlab.analysis import estimate_correlations, no_signaling_report
from contextlab.models import SettingPair, coincidence_expectation, load_model, pair_expectation
from contextlab.simulate import SettingsSchedule, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model")
    parser.add_argument("out")
    parser.add_argument("--trials", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    opts = parser.parse_args(argv)

    model = load_model(opts.model)
    schedule = SettingsSchedule("cycle", model.alice_settings, model.bob_settings)
    stream = run_experiment(model, schedule, opts.trials, master_seed=opts.seed)
    estimates = estimate_correlations(stream)
    signaling = no_signaling_report(stream)
    pairs = []
    for x in model.alice_settings:
        for y in model.bob_settings:
            est = estimates[SettingPair(x, y)]
            pairs.append(
                {
                    "x": x,
                    "y": y,
                    "n": est.n_trials,
                    "counts": est.counts.tolist(),
                    "raw_expectation": est.raw_expectation,
                    "raw_se": est.raw_se,
                    "pair_expectation": pair_expectation(model, x, y),
                    "coincidence_expectation": coincidence_expectation(model, x, y),
                }
            )
    doc = {
        "n_trials": len(stream),
        "pairs": pairs,
        "no_signaling": [t.to_dict() for t in signaling.all_tests()],
    }
    Path(opts.out).write_text(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
