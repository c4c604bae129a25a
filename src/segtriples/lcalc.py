"""Pole bookkeeping for Plancherel measures along a cuspidal embedding.

A discrete series embedded as sigma -> nu^x rho x ... x nu^y rho |x
sigma_ds (exponents descending in steps of one) changes its Jordan
blocks in a way that can be read off two equivalent routes:

* analytically, by counting poles and zeros at the origin of four
  L-function ratios multiplying the Plancherel measure of the base, or
* by a closed-form case split on the sign of y.

Both routes are implemented independently and the test suite checks
them against each other; the analytic route is the oracle.  The pole
scan evaluates the four shifts of those ratios at every block and counts
their poles and zeros in doubled integers, building no object per block;
``LRatio`` and ``intertwining_ratios`` are the same shifts in readable
form, and the reference the test suite holds the scan against.
"""

from __future__ import annotations

from .algebra import CuspidalSymbol
from .halfint import HalfInt, _immutable


class PreconditionError(ValueError):
    """An embedding violates a hypothesis of the update rule."""


class LRatio:
    """The ratio L(s + num_shift) / L(s + den_shift) of one self-dual
    Rankin-Selberg L-function, which has a single simple pole at 0.
    Ratios are frozen."""

    __slots__ = ("numerator_shift", "denominator_shift")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, numerator_shift, denominator_shift):
        _set_numerator(self, HalfInt.of(numerator_shift))
        _set_denominator(self, HalfInt.of(denominator_shift))

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
    together with the Jordan blocks of the base at rho.  Data are
    frozen."""

    __slots__ = ("rho", "x", "y", "base_jord")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, rho: CuspidalSymbol, x, y, base_jord=()):
        if not isinstance(rho, CuspidalSymbol):
            raise TypeError("rho must be a CuspidalSymbol")
        x, y = HalfInt.of(x), HalfInt.of(y)
        span = x.twice - y.twice
        if span % 2 or span < 0:
            raise ValueError(f"x - y must be a nonnegative integer, got x={x}, y={y}")
        if not rho.matches_parity(x.twice + 1):
            raise ValueError(f"2x+1 = {x.twice + 1} does not have the block parity of {rho.id}")
        blocks = tuple(base_jord)
        for z in blocks:
            if problem := rho.block_error(z):
                raise ValueError(f"base {problem}")
        _set_rho(self, rho)
        _set_x(self, x)
        _set_y(self, y)
        _set_base_jord(self, frozenset(blocks))

    def __repr__(self):
        return f"EmbeddingDatum({self.rho.id}, x={self.x}, y={self.y}, base_jord={sorted(self.base_jord)})"


_set_numerator = LRatio.numerator_shift.__set__
_set_denominator = LRatio.denominator_shift.__set__
_set_rho = EmbeddingDatum.rho.__set__
_set_x = EmbeddingDatum.x.__set__
_set_y = EmbeddingDatum.y.__set__
_set_base_jord = EmbeddingDatum.base_jord.__set__


def _shifts(z: int, x2: int, y2: int) -> tuple[int, int, int, int]:
    """Twice the four shifts at the block z, for x2 = 2x and y2 = 2y:
    numerator and denominator of the first ratio, then of the second."""
    half = z - 1  # twice (z-1)/2
    return half - x2, half - y2 + 2, half + y2, half + x2 + 2


def _raw_order(z: int, x2: int, y2: int, base_jord) -> int:
    """plancherel_order_raw on a checked block, in integers: a shift of
    zero is a pole in a numerator and a zero in a denominator."""
    n1, d1, n2, d2 = _shifts(z, x2, y2)
    base = 2 if z in base_jord else 0
    return base + 2 * ((n1 == 0) - (d1 == 0) + (n2 == 0) - (d2 == 0))


def intertwining_ratios(z: int, emb: EmbeddingDatum):
    """The two distinct L-ratios governing the block z at emb.rho; each
    occurs twice in the Plancherel measure by the s to -s symmetry."""
    if problem := emb.rho.block_error(z):
        raise ValueError(problem)
    n1, d1, n2, d2 = map(HalfInt.from_twice, _shifts(z, emb.x.twice, emb.y.twice))
    return LRatio(n1, d1), LRatio(n2, d2)


def plancherel_order_raw(z: int, emb: EmbeddingDatum) -> int:
    """Signed order, before clamping, of the Plancherel measure at the
    origin: the base order, 2 when z is in the base Jordan blocks and 0
    otherwise, plus twice the order of each distinct ratio."""
    if problem := emb.rho.block_error(z):
        raise ValueError(problem)
    return _raw_order(z, emb.x.twice, emb.y.twice, emb.base_jord)


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
    """Analytic route: the Jordan blocks z <= z_max at emb.rho whose
    Plancherel order comes out 2.

    The blocks come from ``rho.blocks_upto``, which yields only positive
    integers of rho's parity, so no z is checked again; each is scored
    by its raw order, which is >= 2 exactly when the clamped order is 2.
    """
    x2, y2, base_jord = emb.x.twice, emb.y.twice, emb.base_jord
    return frozenset(z for z in emb.rho.blocks_upto(z_max) if _raw_order(z, x2, y2, base_jord) >= 2)


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
