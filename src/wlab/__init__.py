"""wlab: a numerical laboratory for elliptic Weingarten surfaces.

Modules by concern: `relation` (curvature relations and their rescaling,
ellipticity certification), `jets` (pointwise curvature and residual
evaluation), `grid` (graph patches, their artifacts, the CSV writer),
`solver` (the Dirichlet graph PDE and blow-up bookkeeping), `geometry`
(parallel surfaces and rotational profiles), `diagram` (curvature-diagram
audits), `linop` (the linearized operator), `cli` (the batch front end).
"""

__version__ = "0.1.0"
