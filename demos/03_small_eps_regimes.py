"""What happens to close-pair counts when eps shrinks much faster than 1/n.

Two regimes below the normal one:
  * eps ~ n^{-2/d}: the raw count N_n converges to a Poisson law,
  * the smallest inter-point distance, rescaled, converges to Exp(1).
Both give usable small-sample tools: a Poisson key-collision probability
and a variance-free confidence interval.
"""

from epsentropy.asymptotics import PoissonApprox, exp_pivot_ci
from epsentropy.core import RngStream, unit_ball_volume
from epsentropy.montecarlo import ks_test, probe_poisson_regime
from epsentropy.paircount import min_interpoint_distance
from epsentropy.processes import generate, iid_uniform_process

spec = iid_uniform_process(1)
n = 500

# ---- Poisson regime: eps tuned so the expected count is exactly 2 ----
eps = 2.0 / n**2
out = probe_poisson_regime(spec, n=n, eps=eps, n_sim=500, base_seed=11)
print("Poisson regime, n=%d, eps=%.2e" % (n, eps))
print("  target mean %.3f   observed mean %.3f   TV distance to Po(2) %.4f"
      % (out.mu, out.count_mean, out.tv_distance))

approx = PoissonApprox.from_plugin(n, d=1, eps=eps, q2=1.0)
print("  chance of zero collisions: predicted %.4f   observed %.4f"
      % (approx.p_zero, sum(1 for c in out.counts if c == 0) / len(out.counts)))
print()

# ---- Exp(1) pivot: rescaled minimum gap ----
scale = 0.5 * unit_ball_volume(1) * spec.truth.q2 * n * n
pivots = []
covered = 0
n_sim = 500
for i in range(n_sim):
    sample = generate(spec, n, RngStream(12, i)).sample
    y = min_interpoint_distance(sample)
    pivots.append(scale * y)
    if exp_pivot_ci(sample.n, sample.d, y, level=0.9).contains(spec.truth.q2):
        covered += 1

d_stat, p = ks_test(pivots, "exp1")
print("Exp(1) pivot, %d replicates of n=%d" % (n_sim, n))
print("  KS vs Exp(1): D = %.4f   p = %.4f" % (d_stat, p))
print("  90%% interval coverage of q2=1: %.3f" % (covered / n_sim))
