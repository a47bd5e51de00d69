"""Numerical toolkit for the stochastic-optimal-control route to the
Dirac equation: exact gamma-matrix algebra, the second-order proper-time
operator and its first-order factorization, plane-wave dispersion and
mode evolution, the optimal control law, and the complex controlled
diffusion -- each with machine-checkable identities.

The API is the modules, ``diracsoc.<module>``; the package re-exports nothing.
"""

__version__ = "0.1.0"
