"""Exact engine for sl(2,R)-invariant distributions on the nilpotent cone.

Symbolic modules work over the rationals and assert identities with zero
tolerance; the oracle module re-derives a slice of the same facts in
floating point through quadrature against the parametrized cone measure.

Each name is imported from the module that defines it (``nilcone.sl2``,
``nilcone.characters``, ``nilcone.transversal``, ``nilcone.solver``,
``nilcone.oracle``, ``nilcone.cli``); the package root holds only
``__version__``, so importing one module loads only what that module uses.
"""

__version__ = "0.1.0"
