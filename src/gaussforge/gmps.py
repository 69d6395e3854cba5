"""Exact integer lower bounds on EPR bonds for Gaussian matrix product states.

A chain of N sites holding M infinitely entangled ancilla bonds per link,
projected site by site, carries N(2M+1)(2M)/2 parameters; matching the
N(N-1)/2 parameters of a target N-mode pure state requires
``2M(2M+1) >= N - 1``.  For translationally invariant rings the target
count drops to the number of distinct pairwise distances
``theta(N) = (N - N mod 2)/2`` and the bound becomes
``M(2M+1) >= theta(N)``.  theta is larger for even N, which raises the
even-ring threshold and underlies nearest-neighbor entanglement
frustration in odd rings.

The two bounds coincide for every N >= 2: 2M(2M+1) is even, so it is at
least N - 1 iff M(2M+1) >= ceil((N - 1)/2) = floor(N/2) = theta(N).  Both
are one exact integer search on theta(N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import _integer


@dataclass(frozen=True)
class BondAnalysis:
    """Bond-count bounds for one ring/chain size.

    Attributes:
        n_modes: number of sites N.
        theta: distinct pairwise distances on the ring, (N - N mod 2)/2.
        min_bonds_general: minimal M with 2M(2M+1) >= N - 1.
        min_bonds_invariant: minimal M with M(2M+1) >= theta.
        parity_note: "odd" or "even".
        scaling_ratio: min_bonds_general / sqrt(N), the square-root
            scaling check.
    """

    n_modes: int
    theta: int
    min_bonds_general: int
    min_bonds_invariant: int
    parity_note: str
    scaling_ratio: float

    def to_dict(self) -> dict:
        return {
            "n_modes": self.n_modes,
            "theta": self.theta,
            "min_bonds_general": self.min_bonds_general,
            "min_bonds_invariant": self.min_bonds_invariant,
            "parity": self.parity_note,
            "scaling_ratio": self.scaling_ratio,
        }


def _min_bonds(target: int) -> int:
    """Smallest integer M >= 1 with M(2M+1) >= target, searched up from an isqrt seed."""
    m = max(1, (math.isqrt(8 * target + 1) - 1) // 4)  # never above the answer
    while m * (2 * m + 1) < target:
        m += 1
    return m


def min_bonds_general(n_modes: int) -> int:
    """Smallest integer M >= 1 with 2M(2M+1) >= N - 1, exact search."""
    return _min_bonds(theta(_integer(n_modes, "n_modes", 2)))


def theta(n_modes: int) -> int:
    """Distinct pairwise distances on an N-site ring: (N - N mod 2)/2."""
    return _integer(n_modes, "n_modes", 1) // 2  # N - N mod 2 is even


def min_bonds_invariant(n_modes: int) -> int:
    """Smallest integer M >= 1 with M(2M+1) >= theta(N), exact search."""
    return _min_bonds(theta(_integer(n_modes, "n_modes", 2)))


def parity_table(n_min: int, n_max: int) -> list:
    """Bond analysis over an inclusive range of sizes.

    Args:
        n_min: smallest size, at least 2.
        n_max: largest size, at least n_min.
    """
    n_min = _integer(n_min, "n_min", 2)
    n_max = _integer(n_max, "n_max")
    if n_max < n_min:
        raise ValueError(f"n_max ({n_max}) must be >= n_min ({n_min})")
    rows = []
    bonds = _min_bonds(n_min // 2)  # both bounds, by the identity in the module docstring
    for n in range(n_min, n_max + 1):
        target = n // 2  # theta(n); it never falls as n grows, so the bound only climbs
        while bonds * (2 * bonds + 1) < target:
            bonds += 1
        rows.append(
            BondAnalysis(
                n_modes=n,
                theta=target,
                min_bonds_general=bonds,
                min_bonds_invariant=bonds,
                parity_note="odd" if n % 2 else "even",
                scaling_ratio=bonds / math.sqrt(n),
            )
        )
    return rows


def table_csv(rows) -> str:
    """Render bond analyses as CSV with columns N, theta, M_general, M_invariant, parity."""
    lines = ["N,theta,M_general,M_invariant,parity"]
    for row in rows:
        lines.append(
            f"{row.n_modes},{row.theta},{row.min_bonds_general},"
            f"{row.min_bonds_invariant},{row.parity_note}"
        )
    return "\n".join(lines) + "\n"
