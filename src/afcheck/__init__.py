"""afcheck: exact verification of asymptotic Fermat criteria over number fields.

The package factors rational primes into prime ideals, enumerates S-unit
equation solutions inside bounded exponent boxes, computes 2-Selmer square
classes, evaluates Frey-curve local invariants symbolically in the exponent,
and turns all of that into per-criterion verdicts with explicit witnesses
and bounded-search caveats.
"""

from .numberfield import FieldElement, NumberField, make_field

__all__ = [
    "FieldElement",
    "NumberField",
    "make_field",
]

__version__ = "0.1.0"
