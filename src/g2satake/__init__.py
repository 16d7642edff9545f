"""Genus-two sextics, their Satake sextics, and K3 elliptic fibrations.

Exact (arbitrary-precision rational) implementations of the Igusa-Clebsch
invariants, the even Siegel modular form dictionary, the Satake sextic
with its discriminant identity, the explicit moduli map on absolute
invariants, and the four Jacobian elliptic fibrations on the associated
Kummer and Shioda-Inose K3 surfaces with Kodaira fiber classification,
plus numeric genus-two theta constants tying the two worlds together.
"""

__version__ = "0.1.0"
