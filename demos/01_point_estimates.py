"""Point estimates and confidence intervals on a dependent series.

The series is a three-term moving average with standard normal marginal,
so both targets are known in closed form: q2 = 1/(2 sqrt(pi)) and
h2 = log(2 sqrt(pi)).  The estimator never sees the generating process;
it only counts observation pairs that land within eps of each other.
"""

from epsentropy.asymptotics import exp_pivot_ci, normal_ci
from epsentropy.core import RngStream
from epsentropy.estimators import EstimateConfig, estimate_report, suggest_eps
from epsentropy.processes import generate, ma2_normal_process

spec = ma2_normal_process()
series = generate(spec, 2000, RngStream(7, 0))

# r bounds the dependence range fed into the variance plug-in; the process
# is 2-dependent, so r = 6 is a comfortable overshoot
config = EstimateConfig(eps=0.1, r=6)
report = estimate_report(series.sample, config)

print("process truth    q2 = %.6f   h2 = %.6f" % (spec.truth.q2, spec.truth.h2))
print("point estimates  q2 = %.6f   h2 = %.6f" % (report.q2_hat, report.h2_hat))
print("close pairs      %d of %d   (smallest gap %.3e)"
      % (report.n_pairs_close, report.n * (report.n - 1) // 2, report.min_distance))
print("variance pieces  zeta = %.6f   w = %.4f" % (report.zeta_hat, report.w_hat))
print()

for target in ("q2", "h2"):
    ci = normal_ci(report, target=target, regime="sqrtn", level=0.95)
    print("95%% %s interval        [%.6f, %.6f]" % (target, ci.lower, ci.upper))

# an interval that needs no variance estimate at all: the smallest
# inter-point distance (counted with the report) is approximately an Exp(1)
# pivot after scaling
pivot = exp_pivot_ci(report.n, report.d, report.min_distance, level=0.95)
print("95%% q2 pivot interval  [%.6f, %.6f]  (from the minimum gap alone)"
      % (pivot.lower, pivot.upper))
print()

# a data-driven radius for the n * eps^{d/2} regime
print("suggested eps for this sample: %.4f" % suggest_eps(series.sample, alpha=1.0))
