"""Physical constants shared by every operator.

Natural units (hbar = c = m = e = 1) are the default; everything is
configurable.  ``epsilon`` is the charge sign: +1 for the particle
branch, -1 for the antiparticle branch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class PhysicalConstants:
    hbar: float = 1.0
    c: float = 1.0
    m: float = 1.0
    e: float = 1.0
    epsilon: int = 1

    def __post_init__(self) -> None:
        for name in ("hbar", "c", "m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.epsilon not in (1, -1):
            raise ValueError(f"epsilon must be +1 or -1, got {self.epsilon}")

    @property
    def mc(self) -> float:
        return self.m * self.c

    @property
    def mass_shell(self) -> float:
        """The squared-momentum value (m c)^2 that on-shell modes satisfy."""
        return (self.m * self.c) ** 2

    def with_epsilon(self, epsilon: int) -> "PhysicalConstants":
        return replace(self, epsilon=epsilon)
