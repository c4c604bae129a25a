"""Pole bookkeeping for Plancherel measures along a cuspidal embedding.

A discrete series embedded as sigma -> nu^x rho x ... x nu^y rho |x
sigma_ds (exponents descending in steps of one) changes its Jordan
blocks in a way that can be read off two equivalent routes:

* analytically, by counting poles and zeros at the origin of four
  L-function ratios multiplying the Plancherel measure of the base, or
* by a closed-form case split on the sign of y.

Both routes are implemented independently and the test suite checks
them against each other; the analytic route is the oracle.
"""

from __future__ import annotations

from .algebra import CuspidalSymbol
from .halfint import HalfInt


class PreconditionError(ValueError):
    """An embedding violates a hypothesis of the update rule."""


class LRatio:
    """The ratio L(s + num_shift) / L(s + den_shift) of one self-dual
    Rankin-Selberg L-function, which has a single simple pole at 0."""

    __slots__ = ("numerator_shift", "denominator_shift")

    def __init__(self, numerator_shift, denominator_shift):
        self.numerator_shift = HalfInt(numerator_shift)
        self.denominator_shift = HalfInt(denominator_shift)

    def order_at_zero(self) -> int:
        """+1 for a pole, -1 for a zero, 0 otherwise."""
        order = 0
        if self.numerator_shift == 0:
            order += 1
        if self.denominator_shift == 0:
            order -= 1
        return order

    def __repr__(self):
        return f"LRatio(num={self.numerator_shift}, den={self.denominator_shift})"


class EmbeddingDatum:
    """The datum of sigma -> nu^x rho x ... x nu^y rho |x sigma_ds
    together with the Jordan blocks of the base at rho."""

    __slots__ = ("rho", "x", "y", "base_jord")

    def __init__(self, rho: CuspidalSymbol, x, y, base_jord=()):
        if not isinstance(rho, CuspidalSymbol):
            raise TypeError("rho must be a CuspidalSymbol")
        x, y = HalfInt(x), HalfInt(y)
        span = x - y
        if not span.is_integer or int(span) < 0:
            raise ValueError(f"x - y must be a nonnegative integer, got x={x}, y={y}")
        if not rho.matches_parity(x.twice + 1):
            raise ValueError(f"2x+1 = {x.twice + 1} does not have the block parity of {rho.id}")
        blocks = frozenset(base_jord)
        for z in blocks:
            if not isinstance(z, int) or isinstance(z, bool) or z < 1:
                raise ValueError("base Jordan blocks must be positive integers")
            if not rho.matches_parity(z):
                raise ValueError(f"base block {z} does not have the parity of {rho.id}")
        self.rho = rho
        self.x = x
        self.y = y
        self.base_jord = blocks

    def __repr__(self):
        return f"EmbeddingDatum({self.rho.id}, x={self.x}, y={self.y}, base_jord={sorted(self.base_jord)})"


def intertwining_ratios(z: int, emb: EmbeddingDatum):
    """The two distinct L-ratios governing the block z; each occurs twice
    in the Plancherel measure by the s to -s symmetry."""
    half = HalfInt.from_twice(z - 1)  # (z-1)/2
    first = LRatio(-emb.x + half, -emb.y + half + 1)
    second = LRatio(emb.y + half, emb.x + half + 1)
    return first, second


def _check_block(z: int, emb: EmbeddingDatum):
    if not isinstance(z, int) or isinstance(z, bool) or z < 1:
        raise ValueError("a Jordan block is a positive integer")
    if not emb.rho.matches_parity(z):
        raise ValueError(f"block {z} does not have the parity of {emb.rho.id}")


def plancherel_order_raw(z: int, emb: EmbeddingDatum) -> int:
    """Signed order, before clamping, of the Plancherel measure at the
    origin: the base order, 2 when z is in the base Jordan blocks and 0
    otherwise, plus twice the order of each distinct ratio."""
    _check_block(z, emb)
    first, second = intertwining_ratios(z, emb)
    base = 2 if z in emb.base_jord else 0
    return base + 2 * (first.order_at_zero() + second.order_at_zero())


def plancherel_order(z: int, emb: EmbeddingDatum) -> int:
    """Order of the Plancherel measure at the origin, clamped to {0, 2}.

    The measure of a discrete series has order zero or two.  The raw
    sum is even and can leave that window through stacked poles or a
    zero that outweighs them; the clamp maps a raw order <= 0 to 0 and
    one >= 2 to 2.  Returns 2 exactly when z is a Jordan block after
    the embedding.
    """
    raw = plancherel_order_raw(z, emb)
    if raw >= 2:
        return 2
    return 0


def jordan_set_from_pole_orders(emb: EmbeddingDatum, z_max: int) -> frozenset[int]:
    """Analytic route: collect the blocks z <= z_max of the correct
    parity whose Plancherel order comes out 2."""
    found = []
    for z in range(1, z_max + 1):
        if not emb.rho.matches_parity(z):
            continue
        if plancherel_order(z, emb) == 2:
            found.append(z)
    return frozenset(found)


def jord_update(emb: EmbeddingDatum) -> frozenset[int]:
    """Closed-form route for the Jordan blocks after the embedding.

    For y > 0 the block 2y-1 must already be present; it is consumed
    and 2x+1 appears.  For y <= 0 both 2x+1 and 1-2y appear.  The case
    split follows the proof of the update rule, whose boundary case is
    y = 0, not y < 0.  We additionally require x >= 0, so that the
    grown block 2x+1 is positive.  That much is automatic when the
    embedding comes from a discrete series, and it is exactly the
    hypothesis under which the denominator zero at x = -(z-1)/2 - 1
    never fires, which is what makes the closed form agree with the
    pole-order route.
    """
    x, y = emb.x, emb.y
    if x.twice < 0:
        raise PreconditionError(f"the top exponent must be nonnegative, got x={x}")
    grown = emb.x.twice + 1  # 2x+1
    if y.twice > 0:
        consumed = y.twice - 1  # 2y-1
        if consumed not in emb.base_jord:
            raise PreconditionError(f"2y-1 = {consumed} missing from the base Jordan blocks")
        return (emb.base_jord | {grown}) - {consumed}
    mirrored = 1 - y.twice  # 1-2y
    return emb.base_jord | {grown, mirrored}
