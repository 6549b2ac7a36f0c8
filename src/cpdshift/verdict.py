"""Structured results of decision procedures.

A Verdict carries a three-valued outcome, the name of the operation that
produced it, the tag of the rule that certified the answer, and whatever
certificate data the rule yields.  Sufficient criteria answer "yes" when their
hypotheses hold; "no" means the hypotheses fail, not that the opposite
property was certified, unless the rule itself is a characterization.

Record is the immutable value base of every result and input class of the
package.
"""

from __future__ import annotations

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"

# sets a field of a Record in its __init__, past the guard on assignment
_set = object.__setattr__


class Record:
    """An immutable value made of the fields its subclass lists in __slots__.

    __init__ takes one value per field, in __slots__ order.  Equality, hash
    and repr read the fields in that order, and so does pickling, which passes
    them back to __init__ positionally.  A subclass that validates its input
    or has defaults writes its own __init__ and sets its fields with _set;
    assigning or deleting a field afterwards raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} values")
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Verdict(Record):
    __slots__ = ("outcome", "criterion", "citation", "witness", "note")

    def __init__(
        self,
        outcome: str,
        criterion: str,
        citation: str,
        witness: dict | None = None,
        note: str = "",
    ):
        if outcome not in (YES, NO, INCONCLUSIVE):
            raise ValueError(f"unknown outcome {outcome!r}")
        _set(self, "outcome", outcome)
        _set(self, "criterion", criterion)
        _set(self, "citation", citation)
        _set(self, "witness", {} if witness is None else witness)
        _set(self, "note", note)

    @property
    def is_yes(self) -> bool:
        return self.outcome == YES

    @property
    def is_no(self) -> bool:
        return self.outcome == NO

    @property
    def is_inconclusive(self) -> bool:
        return self.outcome == INCONCLUSIVE

    def to_json(self) -> dict:
        doc = {
            "criterion": self.criterion,
            "outcome": self.outcome,
            "witnesses": dict(self.witness),
            "citation": self.citation,
        }
        if self.note:
            doc["note"] = self.note
        return doc


class InvalidTripletError(ValueError):
    """Raised when an operation requires a validated triplet and got none."""


class NotApplicableError(ValueError):
    """Raised when a criterion's standing hypotheses exclude the input."""
