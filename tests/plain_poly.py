"""The plain double-precision polynomial steps the hierarchy's kernels stand for.

engine._hierarchy_core once ran on its backend's poly_add, poly_mul and
poly_scale.  Its kernels (mirrored_sum, f_term_sum, known_part, t_row,
influences) now stand for loops of those steps, and the tests pin each
kernel to its loop bit for bit; these are the steps as the double backend
spelled them.
"""

import numpy as np

from pslet.engine import _F64Backend


class F64Plain:
    """Truncated polynomial arithmetic on coefficient arrays, constant term first."""

    poly_diff = staticmethod(_F64Backend.poly_diff)
    get = staticmethod(_F64Backend.get)
    set_ = staticmethod(_F64Backend.set_)

    @staticmethod
    def poly_add(a, b, sign=1.0):
        """a + sign * b, the shorter operand padded with zeros.

        With no zero buffer to add into, a -0.0 of an operand stays -0.0.  A
        sign of 1.0 multiplies exactly, so it is left out.
        """
        if len(a) >= len(b):
            out = a.copy()
            out[: len(b)] += b if sign == 1.0 else sign * b
        else:
            out = b.copy() if sign == 1.0 else sign * b
            out[: len(a)] += a
        return out

    @staticmethod
    def poly_mul(a, b, cap):
        return np.convolve(a, b)[: cap + 1]

    @staticmethod
    def poly_scale(a, z):
        return a * z
