"""Entropy and integral-functional estimation from eps-close observation pairs.

The estimators in this package work for stationary sequences with short-range
(m-dependent) dependence, not just iid data: the variance plug-ins include
the lagged-coincidence corrections that dependence requires.  See the module
docstrings for the division of labor:

* ``core``        shared sample type, ball volumes, normal quantile, RNG streams
* ``paircount``   exact close-pair / lagged-triple counting (rank windows on
                  the first coordinate, filtered in blocks for d >= 2)
* ``estimators``  point estimates, variance plug-ins, pivotal residuals
* ``asymptotics`` confidence intervals and the Poisson/window approximations
* ``processes``   reference m-dependent generators with known truths
* ``gof``         maximum-entropy goodness-of-fit ratio
* ``discrete``    coincidence estimates for integer symbol sequences
* ``montecarlo``  replicated studies, KS testing, regime probes
* ``epskeys``     approximate key discovery for numeric tables
* ``cli``         command line front door

The package itself re-exports nothing: import from the submodules, e.g.
``from epsentropy.estimators import EstimateConfig, estimate_report``.
"""

__version__ = "0.1.0"
