"""Dynamics of the map x -> x + 1/x over binary finite fields.

Subpackages:
  gf2_arith      exact GF(2^t) arithmetic, orders, traces, factorization
  theta_graph    the functional graph over the projective line, decomposed
  order_dynamics order/trace classification of the subgroup of order q^2+1
  orbit_records  its json records, kept per Frobenius orbit
  dickson_curve  Dickson root sets, Kloosterman sums, Koblitz point counts
  cli            command-line verification harness and exporters

Field elements and points are packed ints throughout: bit i of an element
is its coefficient of x^i, and the point at infinity of GF(2^t) is 2^t.
"""

from thetamap.gf2_arith import (
    FieldError,
    FieldSpec,
    Factorization,
    factorize,
    make_field,
)
from thetamap.theta_graph import ThetaGraph, build_graph, theta_index

__all__ = [
    "FieldError",
    "FieldSpec",
    "Factorization",
    "factorize",
    "make_field",
    "ThetaGraph",
    "build_graph",
    "theta_index",
]
