"""contextqm: finite-dimensional observable algebras with contextual states.

The package models quantum systems as block-diagonal matrix algebras,
measurement contexts as joint eigenbases, and individual systems as
elementary states carrying one character per context.  On top of that sit
Born-consistent ensembles, a numerical GNS construction, and truncated
ladder-operator Green's functions for the harmonic oscillator.
"""

__version__ = "0.1.0"
