"""Segregated harmonic configurations on the unit disk.

Reconstruction of segregated states U = |Re F| from factored holomorphic
functions, admissibility testing, nodal-graph extraction with index-formula
verification, zero splitting, and a companion competition-diffusion solver.
"""

from .desingularize import reduce_to_simple, split_zero
from .nodal import counts, trace, verify_index
from .rational import (
    RationalFactored,
    monomial,
    multiply,
    order_at,
    rational,
    winding_count,
)
from .states import (
    admissibility,
    analytic_state,
    dirichlet_energy,
    find_base_point,
    hopf_l1,
    local_exponent,
    multiplicity_at,
    reconstruct,
)

__all__ = [
    "RationalFactored",
    "rational",
    "monomial",
    "multiply",
    "order_at",
    "winding_count",
    "admissibility",
    "analytic_state",
    "find_base_point",
    "reconstruct",
    "multiplicity_at",
    "local_exponent",
    "dirichlet_energy",
    "hopf_l1",
    "trace",
    "counts",
    "verify_index",
    "split_zero",
    "reduce_to_simple",
]
