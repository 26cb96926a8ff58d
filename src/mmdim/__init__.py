"""Exact horseshoe systems on n-cubes with prescribed metric mean dimension.

The package builds piecewise-affine horseshoe maps over exact rational
arithmetic, stacks them along size/leg schedules whose separated-set growth
has known limits, and checks those limits two ways: symbolically, through
log-rate profiles of exact rationals, and numerically, through greedy
separated-set scans in the iterated-maximum (Bowen) metric.

Import from the submodules (`mmdim.constructions`, `mmdim.symbolic`,
`mmdim.estimators`, ...); the package itself loads none of them, so each
command of `mmdim.cli` loads only the layers it runs.
"""

__version__ = "0.1.0"
