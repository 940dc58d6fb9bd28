"""Wing-local detection selection pushes coincidence CHSH past 2.

The selective model keeps the Malus response but lets each instrument miss
events, with survival probability (|cos 2 delta| * |cos delta|^eta)^d for
alignment delta.  Surviving pairs concentrate near instrument alignment, so
statistics conditioned on both wings clicking are no longer bound by the
shared-space inequality, while the model stays local and the RAW singles
keep no trace of the other wing's setting.

The sweep calibrates the sharpness d on a grid, cross-checking every Monte
Carlo CHSH value against a deterministic quadrature oracle.
"""

from contextlab.analysis import (
    DEFAULT_CHSH_SETTINGS,
    calibration_sweep,
    no_signaling_report,
)
from contextlab.simulate import SelectiveModel, SettingsSchedule, run_counts

ETA = 0.25  # asymmetry exponent; 0 would keep post-selected singles flat

sweep = calibration_sweep(trials_per_point=100_000, master_seed=1, asymmetry=ETA)
print(f"{'d':>5} {'|S| quad':>10} {'|S| MC':>8} {'discrepancy':>12} {'min coinc rate':>15}")
for row in sweep.rows:
    print(
        f"{row.sharpness:5.1f} {abs(row.s_quadrature):10.4f} "
        f"{abs(row.s_monte_carlo):8.4f} {row.discrepancy:12.4f} "
        f"{row.min_coincidence_rate:15.4f}"
    )
best = sweep.best
print(
    f"\ncalibrated sharpness d = {best.sharpness:g}: coincidence |S| = "
    f"{abs(best.s_monte_carlo):.3f} > 2 (and past 2.3), from a locally causal model"
)

# No-signaling audit on one mixed-settings experiment at the calibrated d.
a, ap, b, bp = DEFAULT_CHSH_SETTINGS
model = SelectiveModel(best.sharpness, ETA)
schedule = SettingsSchedule("random", (a, ap), (b, bp), seed=7)
folded = run_counts(model, schedule, 400_000, master_seed=8)
report = no_signaling_report(folded, alpha_raw=0.01, alpha_postselected=0.001)

print("\nraw singles across the counterpart's settings (must stay flat):")
for t in report.raw_tests:
    print(f"  {t.name:<40} p = {t.p_value:8.4f}  {'REJECT' if t.reject else 'ok'}")
print("post-selected singles (conditioned on coincidence; may shift):")
for t in report.postselected_tests:
    print(f"  {t.name:<40} p = {t.p_value:8.3g}  {'setting-dependent' if t.reject else 'flat'}")
print(
    "\nThe post-selected dependence is a property of the selected sub-ensemble,"
    "\nnot a signal: the raw distributions on each wing never move."
)
