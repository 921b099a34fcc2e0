"""Numerical geometry of thermodynamic state spaces.

Fundamental relations (built-in catalog or a small infix DSL) are turned
into a conformally rescaled Hessian metric on the space of equilibrium
states; curvature is computed through truncated Taylor-jet arithmetic and
cross-checked against finite differences and closed-form references.
"""

from .errors import (DefinitionError, DegenerateMetric, DomainViolation,
                     EmptyGrid, GeothermoError, InversionFailure, NonFinite,
                     ParseError, PreconditionFailure, SingularDenominator,
                     SingularPrefactor, UnboundParameter, UnknownIdentifier)
from .geometry import (CurvatureResult, MetricTensor, christoffel,
                       curvature_at, metric_at, natural_metric, ricci_scalar)
from .jets import Jet, Jet4, fd_jet4, jet_eval, jet_poly
from .systems import (SystemSpec, catalog, catalog_ids, evaluate,
                      from_definition, get_system)
from .transforms import (IntensiveVector, equations_of_state,
                         first_law_residual, invert_representation,
                         partial_legendre, reduced_variables, to_vP,
                         total_legendre, u_from_vP)

__version__ = "0.1.0"

__all__ = [
    "GeothermoError", "DomainViolation", "NonFinite", "ParseError",
    "DefinitionError",
    "UnknownIdentifier", "UnboundParameter", "SingularPrefactor",
    "DegenerateMetric", "InversionFailure", "SingularDenominator",
    "PreconditionFailure", "EmptyGrid",
    "Jet", "Jet4", "jet_eval", "jet_poly", "fd_jet4",
    "SystemSpec", "catalog", "catalog_ids", "get_system", "evaluate",
    "from_definition",
    "MetricTensor", "CurvatureResult", "natural_metric", "metric_at",
    "christoffel", "ricci_scalar", "curvature_at",
    "IntensiveVector", "equations_of_state",
    "partial_legendre", "total_legendre", "invert_representation",
    "to_vP", "u_from_vP", "reduced_variables", "first_law_residual",
]
