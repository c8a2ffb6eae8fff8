"""Check the model against the data by time rescaling.

If the fitted cumulative rate is right, mapping each position through
it turns the gaps between successive records into unit exponentials.
The KS test then quantifies how exponential they look. The same check
is run on data simulated from the model itself as a control.
"""

import numpy as np

from pipecorr import (
    KS_ESTIMATED_PARAMS_CAVEAT,
    PowerLawRate,
    demo_records,
    exponential_transform,
    fit_mle,
    gof_report,
    simulate_first_m,
)

# ----------------------------------------------------------------------
# 1. Transform the survey through its own fit
# ----------------------------------------------------------------------
records = demo_records(17)
fitted = fit_mle(records)
u = exponential_transform(records, fitted)
print("rescaled increments (should look like Exp(1) draws):")
print("  " + "  ".join("%.3f" % v for v in u))
print("  sum = %.3f (telescopes to m = 17 by construction)" % u.sum())

# Three near-tied neighbouring positions produce three tiny increments;
# they are what pulls the KS statistic up.
tiny = np.sort(u)[:3]
print("  three smallest: %s  <- the near-tied record pairs" % ", ".join("%.5f" % v for v in tiny))

report = gof_report(records, fitted)
print("\nKS test against Exp(1): D = %.4f, p = %.3f" % (report.ks_statistic, report.p_value))
print("  (%s)" % KS_ESTIMATED_PARAMS_CAVEAT)

# ----------------------------------------------------------------------
# 2. Sensitivity: an alternative exponential reduction
# ----------------------------------------------------------------------
alt = gof_report(records, fitted, method="log-ratio")
print("\nlog-ratio variant (drops the first record, n = %d): D = %.4f, p = %.2g" % (
    alt.n, alt.ks_statistic, alt.p_value))
print("  far more sensitive to the near-tied pairs, hence the tiny p.")

# ----------------------------------------------------------------------
# 3. Control: the same check on data the model actually generated
# ----------------------------------------------------------------------
print("\ncontrol run on simulated paths (m = 60):")
for seed in (5, 6, 7):
    sim_records = simulate_first_m(PowerLawRate(1.3, 0.25), 60, seed=seed)
    rep = gof_report(sim_records, fit_mle(sim_records))
    print("  seed %d: D = %.4f, p = %.3f" % (seed, rep.ks_statistic, rep.p_value))
print("well-specified data pass comfortably; the survey's p is pulled down by the tied pairs.")
