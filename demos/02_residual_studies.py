"""Monte Carlo residual studies: do standardized errors look N(0,1)?

A study draws many independent series from one process, estimates q2 or h2
on each, standardizes the error with the plug-in variance, and KS-tests the
batch against the standard normal.  Large p-values mean the limit law and
its variance plug-in are jointly doing their job at this sample size.
"""

from epsentropy.estimators import EstimateConfig
from epsentropy.montecarlo import SimulationPlan, run_residual_study
from epsentropy.processes import lognormal_onedep_process, ma2_normal_process

studies = [
    ("MA(2) normal, entropy residual", SimulationPlan(
        spec=ma2_normal_process(),
        n=300,
        n_sim=200,
        config=EstimateConfig(eps=0.1, r=6),
        kind="h_sqrtn",
        base_seed=20260215,
    )),
    ("lognormal 1-dependent, q2 residual", SimulationPlan(
        spec=lognormal_onedep_process(),
        n=300,
        n_sim=200,
        config=EstimateConfig(eps=0.05, r=4),
        kind="q_sqrtn",
        base_seed=20260215,
    )),
]

for label, plan in studies:
    out = run_residual_study(plan)
    res = out.residuals
    mean = sum(res) / len(res)
    var = sum((x - mean) ** 2 for x in res) / (len(res) - 1)
    print(label)
    print("  truth %.6f   replicates %d x n=%d" % (plan.truth(), plan.n_sim, plan.n))
    print("  residual mean %+.3f   variance %.3f" % (mean, var))
    print("  KS vs N(0,1): D = %.4f   p = %.4f" % (out.ks_statistic, out.ks_p_value))
    print()

# replicate i always consumes stream i of the base seed, so studies are
# reproducible and any one replicate can be re-run alone
