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
Importing the package loads no submodule.  ``epsentropy.<module>`` resolves
lazily: the first access imports that submodule, so a caller that imported
only ``epsentropy`` (or ``epsentropy.cli``) can still reach
``epsentropy.montecarlo``.  Where no bytecode cache is written
(``PYTHONDONTWRITEBYTECODE``), each process compiles every module it imports
from source, so a process should import only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({
    "asymptotics", "cli", "core", "discrete", "epskeys", "estimators", "gof",
    "montecarlo", "paircount", "processes",
})


def __getattr__(name: str):
    # PEP 562: called only for a name the package does not have yet
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
