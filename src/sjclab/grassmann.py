"""Sign conventions of the complex Grassmann algebra on generators l1, ..., lL.

Basis monomials are encoded as bitmasks (bit i set means generator l(i+1) is
present), always taken in increasing index order.  The one dense engine,
``fields.gcontract`` (which ``fields``, ``components`` and ``fierz`` run
on), and the flat superfield dicts (``superfield``) take their product and
conjugation signs from here; the exact sparse reference algebra they are
tested against lives with the tests.  ``merge_sign`` is cached, since the
superfield products, the literal parser and ``fields`` ask for the same few
mask pairs over and over.
"""

from __future__ import annotations

import functools


class GrassmannError(ValueError):
    pass


@functools.lru_cache(maxsize=4096)  # every mask pair of an L = 4 superfield
def merge_sign(mask_a: int, mask_b: int) -> int:
    """Sign from sorting the concatenation of two ordered monomials.

    Counts pairs (i in a, j in b) with i > j; each inversion contributes
    a factor -1.  Returns 0 if the monomials share a generator.
    """
    if mask_a & mask_b:
        return 0
    sign = 1
    b = mask_b
    while b:
        j = b & -b
        # generators in a strictly above j must hop over it
        above = mask_a & ~(j | (j - 1))
        if above.bit_count() & 1:
            sign = -sign
        b ^= j
    return sign


def reversal_sign(mask: int) -> int:
    """Sign (-1)^(k(k-1)/2) from reversing a k-generator monomial: -1 iff k mod 4 is 2 or 3."""
    return -1 if mask.bit_count() & 2 else 1


def format_complex(c: complex) -> str:
    if c.imag == 0:
        return repr(c.real)
    return f"({c.real!r}{c.imag:+}j)"
