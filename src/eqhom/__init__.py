"""Exact equivariant cellular (co)homology and amenability certificates.

Submodules:

* ``intlinalg`` -- sparse arbitrary-precision integer matrices, Smith
  normal forms with transforms, kernels, cokernels, chain-complex
  homology.
* ``groups`` -- presentations, coset enumeration, free / free-abelian /
  product models, and integer representations: the regular module, the
  augmentation ideal and its tensor powers.
* ``complexes`` -- simplicial complexes, edge-path fundamental groups,
  universal covers over finite groups, homology with local coefficients.
* ``duality`` -- orientations, cup/cap products, chain-level duality
  checks, the degree-one obstruction class, essentiality pairings, and
  the forget-equivariance map to the cover.
* ``group_homology`` -- the normalized bar resolution and the
  augmentation-ideal kernel formula, computed independently.
* ``coarse`` -- Cayley balls, exact max-flow, bounded-divergence flow
  certificates, isoperimetric ratios, and certificate reports.
* ``cli`` -- the ``eqhom`` command-line tool.

Everything is exact: the only numbers anywhere are Python integers and
rationals.
"""

__version__ = "0.1.0"
