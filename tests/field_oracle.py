"""Field facts that only the tests read: membership of a subfield, the
trace taken in it, the divisors of a factored number, D_m(x) by the plain
recurrence, and a field given by its text record."""

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


def dickson_bits(spec: FieldSpec, m: int, x: int) -> int:
    """D_m(x) by the linear recurrence, on packed ints: the oracle the tests
    hold the fast evaluations against."""
    if m < 1:
        raise FieldError(f"Dickson degree m={m} must be positive")
    d0, d1 = 0, x
    for _ in range(m - 1):
        d0, d1 = d1, spec.mul(x, d1) ^ d0
    return d1


def field_from_record(record: str) -> FieldSpec:
    """The field of a ``gf2_arith.field_to_record`` text,
    ``t=<int> modulus=<hex> generator=<hex>``; FieldError if malformed."""
    try:
        parts = dict(p.split("=", 1) for p in record.split())
        t = int(parts["t"])
        modulus = int(parts["modulus"], 16)
        gen = int(parts["generator"], 16)
    except (KeyError, ValueError) as exc:
        raise FieldError(f"bad field record: {record!r}") from exc
    return FieldSpec(t, modulus, generator=gen)
