"""Domain-level failures, and the field rules that every JSON reader applies:
malformed input raises ValueError (the command line exits 2), and well-formed
input that is refused raises DomainError (exit 1)."""

NAME = (int, str)  # the types of a vertex name in graph JSON
_SPELLED = {int: "an int", str: "a string", list: "a list"}


def typed(value, types, what):
    """value, if its type is one of ``types``, else ValueError.  The type itself
    is compared, so JSON true is no int and a string is no list."""
    if type(value) not in types:
        raise ValueError("%s %r is not %s" % (what, value, " or ".join(map(_SPELLED.get, types))))
    return value


def distinct(values, what):
    """values, if no two are equal, else ValueError naming the first repeat."""
    seen = set()
    for v in values:
        if v in seen:
            raise ValueError("repeated %s %r" % (what, v))
        seen.add(v)
    return values


class DomainError(Exception):
    """A structurally valid input that the requested operation rejects."""


class ContractibleGraphError(DomainError):
    """Core of a contractible graph without a base vertex."""


class FoldabilityError(DomainError):
    """Foldability cannot be restored by the supported conjugations."""


class NotABasisError(DomainError):
    """A tuple of words that was required to be a free basis is not one."""


class TrivialFactorError(DomainError):
    """A construction produced a trivial or improper free factor."""
