"""Simulation and verification toolkit for 2D linear cocycles.

Submodules:

- ``gl2``: closed-form 2x2 linear algebra and projective geometry
- ``scalars``: inverse-CDF scalar distributions
- ``cocycle``: matrix distributions, orbit windows, cocycle products
- ``estimation``: Lyapunov exponents, Oseledets directions, angle tails
- ``skyscraper``: tower vectors, renewal base dynamics, step labels
- ``flexible``: prescribed-splitting cocycle construction and verification
- ``verify``: named invariant battery (also behind ``osl verify``)
- ``cli``: command-line front end
"""

# verify and cli load only when imported by name (``from oseledets import
# cli``), so ``python -m oseledets.cli`` does not find cli already loaded
from . import gl2, scalars, cocycle, estimation, skyscraper, flexible  # noqa: F401

__version__ = "0.1.0"
