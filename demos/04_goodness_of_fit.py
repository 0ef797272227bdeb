"""Goodness of fit against the maximum-entropy law of a given covariance.

Among all densities with covariance Sigma, quadratic entropy is maximized
by a compact elliptical law (a Pearson type II).  The ratio
exp(h2_hat) / (K_d sqrt(det Sigma_hat)) is therefore at most 1 in the limit,
with equality exactly at the maximizer, so "ratio well below 1" rejects it.
The ratio is scale-invariant, no standardization step is needed.
"""

from epsentropy.core import RngStream
from epsentropy.gof import gof_statistic, k_d
from epsentropy.processes import (
    gaussian_ma_process,
    generate,
    iid_uniform_process,
    pearson2_process,
)

print("constants K_d:  d=1 %.4f   d=2 %.4f   d=3 %.4f" % (k_d(1), k_d(2), k_d(3)))
print()

n = 4000
eps = 0.05

# null: the maximizer itself
null = generate(pearson2_process([0.0], [[1.0]]), n, RngStream(21, 0)).sample
res = gof_statistic(null, eps=eps)
print("Pearson II sample     ratio %.4f   reject %s" % (res.ratio, res.reject))

# alternatives with the same second moments
normal = generate(gaussian_ma_process([1.0]), n, RngStream(21, 1))
res = gof_statistic(normal.sample, eps=eps)
print("normal sample         ratio %.4f   reject %s" % (res.ratio, res.reject))

uniform = generate(iid_uniform_process(1), n, RngStream(21, 2)).sample
res = gof_statistic(uniform, eps=0.02)
print("uniform sample        ratio %.4f   reject %s" % (res.ratio, res.reject))

# the normal is close to the bound (ratio about 0.95), the uniform closer
# still; heavier tails push the ratio down fast, e.g. exponential data
import numpy as np

from epsentropy.core import SeriesSample

u = RngStream(21, 3).generator().random(n)
expo = SeriesSample(-np.log(u).reshape(-1, 1))
res = gof_statistic(expo, eps=0.03)
print("exponential sample    ratio %.4f   reject %s" % (res.ratio, res.reject))
