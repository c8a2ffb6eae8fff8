"""Predict where the next corrosion indication will appear.

Given the first 17 positions, the 18th has a known conditional
distribution under the fitted model. This script computes its mean,
median and a 95% interval, then compares them with the position that
was actually observed (50.545 km).
"""

import numpy as np

from pipecorr import PredictionQuery, conditional_density, demo_records, fit_mle, predict

records = demo_records()
fitted = fit_mle(records.prefix(17))
observed_18 = records.positions[17]

# ----------------------------------------------------------------------
# 1. Point and interval prediction for the 18th record
# ----------------------------------------------------------------------
result = predict(fitted, s=18, level=0.95)
print("prediction for the 18th indication, given the first 17:")
print("  mean    %.4f km" % result.mean)
print("  median  %.4f km" % result.median)
print("  95%% interval [%.4f, %.4f] km" % (result.interval_low, result.interval_high))
print("  observed %.3f km -> inside the interval: %s" % (
    observed_18, result.interval_low <= observed_18 <= result.interval_high))

# ----------------------------------------------------------------------
# 2. The whole predictive density, not just summaries
# ----------------------------------------------------------------------
# The density lives on y > 50.370 km (the last fitted record) and for a
# one-step-ahead forecast it decreases from that edge.
query = PredictionQuery(fitted=fitted, s=18)
y = np.linspace(fitted.r_m, 65.0, 300)
f = conditional_density(query, y)
mass_near = np.trapezoid(f[:100], y[:100])
print("\npredictive density: support starts at %.3f km" % fitted.r_m)
print("  f(50.5) = %.4f, f(53) = %.4f, f(60) = %.4f" % tuple(
    conditional_density(query, [50.5, 53.0, 60.0])))
print("  probability within the first %.1f km past the edge: %.3f" % (
    y[99] - fitted.r_m, mass_near))

# ----------------------------------------------------------------------
# 3. Looking several records ahead
# ----------------------------------------------------------------------
print("\nlooking further out (same 17-record fit):")
for s in (19, 20, 22):
    res = predict(fitted, s=s)
    print("  record %d: mean %.2f km, 95%% interval [%.2f, %.2f]" % (
        s, res.mean, res.interval_low, res.interval_high))
print("intervals widen with the horizon, as they should.")
