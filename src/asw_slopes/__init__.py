"""Exact slope arithmetic for Artin-Schreier-Witt towers over finite fields.

Two independent computational pathways -- character sums over Teichmueller
points and a nuclear operator matrix -- feed one exact verification layer
for slope periodicity, Hodge bounds, polygon turning points, and the
weight-slope law of the block factorization.
"""

from . import errors, gf, padic, series, newton, expsum, dwork, tower, eigencurve

__version__ = "0.1.0"
