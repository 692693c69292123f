"""The radial potential of both dot systems, with closed-form derivatives.

Lengths are measured in effective Bohr radii a*, energies in effective
Rydberg Ry*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonPositiveRadius


@dataclass(frozen=True)
class HybridPotential:
    """V(q) = a_osc * q**2 + c_coul / q.

    a_osc must be positive for bound states; c_coul >= 0 gives a repulsive
    Coulomb core.  All derivatives are closed-form: the oscillator part dies
    after n = 2 and the Coulomb part contributes (-1)^n n! c / q^(n+1).
    """

    a_osc: float
    c_coul: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.a_osc) and math.isfinite(self.c_coul)):
            raise ValueError(f"a_osc and c_coul must be finite, got {self.a_osc}, {self.c_coul}")
        if self.a_osc < 0.0:
            raise ValueError("a_osc must be non-negative")
        if self.c_coul < 0.0:
            raise ValueError("c_coul must be non-negative")

    def value(self, q: float) -> float:
        return self.derivative(q, 0)

    def derivative(self, q: float, n: int) -> float:
        if q <= 0.0:
            raise NonPositiveRadius(f"radius must be positive, got {q}")
        if n < 0:
            raise ValueError("derivative order must be non-negative")
        if n == 0:
            return self.a_osc * q * q + self.c_coul / q
        if n == 1:
            return 2.0 * self.a_osc * q - self.c_coul / q**2
        if n == 2:
            return 2.0 * self.a_osc + 2.0 * self.c_coul / q**3
        if self.c_coul == 0.0:
            return 0.0
        return self.c_coul * (-1.0) ** n * math.factorial(n) / q ** (n + 1)
