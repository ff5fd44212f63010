"""Field facts that only the tests read: membership of a subfield, the
trace taken in it, and the divisors of a factored number."""

from thetamap.gf2_arith import Factorization, FieldError, FieldSpec


def in_subfield(f: FieldSpec, a: int, d: int) -> bool:
    """True iff a is fixed by the d-th Frobenius power: a^(2^d) = a."""
    v = a
    for _ in range(d):
        v = f.sqr(v)
    return v == a


def subfield_trace(f: FieldSpec, a: int, d: int) -> int:
    """Absolute trace Tr_d(a) of an element of the subfield GF(2^d).

    Raises unless d | t and a actually lies in GF(2^d); the trace at the
    wrong level is a contract violation, never a silent coercion.
    """
    mask = f.trace_mask(d)
    if not in_subfield(f, a, d):
        raise FieldError(f"{a:#x} not in GF(2^{d})")
    return (a & mask).bit_count() & 1


def divisors(fact: Factorization) -> list[int]:
    """All positive divisors, ascending."""
    divs = [1]
    for p, e in fact.primes:
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)
