"""Coincidence estimation for integer symbol sequences.

For discrete data q2 = sum p(v)^2 is the collision probability, and exact
ties replace eps-balls.  The same lagged triple machinery yields a variance
plug-in s2; it degenerates to zero for a uniform alphabet, where q2_hat has
no first-order fluctuation left.
"""

import numpy as np

from epsentropy.core import RngStream
from epsentropy.discrete import DiscreteSample, discrete_report, discrete_residual
from epsentropy.montecarlo import ks_test

# a 1-dependent binary chain: X_t = 1{U_t + U_{t+1} > 1.2}
# P(X=1) = 0.32, so q2 = 0.68^2 + 0.32^2 = 0.5648 exactly


def chain(n, stream):
    u = stream.generator().random(n + 1)
    return DiscreteSample((u[:-1] + u[1:] > 1.2).astype(np.int64))


q2_true = 0.68**2 + 0.32**2

sample = chain(4000, RngStream(31, 0))
report = discrete_report(sample, r=1)
print("one draw, n=%d:  q2_hat %.4f  (truth %.4f)   h2_hat %.4f   s2 %.5f"
      % (report.n, report.qn, q2_true, report.h2_hat, report.s2_hat))
print()

# batch of standardized errors, as in the continuous case
residuals = [discrete_residual(discrete_report(chain(500, RngStream(31, i)), r=1),
                               q2_true, "q")
             for i in range(1, 301)]
d_stat, p = ks_test(residuals, "std_normal")
print("300 replicates of n=500:  residual KS vs N(0,1)  D = %.4f  p = %.4f" % (d_stat, p))
print()

# uniform alphabet: s2 estimates a quantity that is exactly zero
gen = RngStream(31, 999).generator()
for n in (500, 4000, 32000):
    s2 = discrete_report(DiscreteSample(gen.integers(0, 4, size=n)), r=1).s2_hat
    print("uniform 4-symbol alphabet, n=%-6d  s2 = %+.2e" % (n, s2))
print("(for such degenerate cases the residual is refused rather than inflated)")
