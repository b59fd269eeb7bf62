"""Base of the package's immutable value types.

A subclass names its fields in ``__slots__``, takes them in that order in
``__init__`` and sets them there with ``object.__setattr__``.  It gets
equality (with instances of the same class only), a hash, a repr and
copying from those fields, and refuses assignment.
Records without validation or operators are ``typing.NamedTuple`` instead.
The interval types of ``cubicfam`` and ``fibmap`` share one disjointness
test, ``pairwise_disjoint``.
"""


class Value:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__name__, ", ".join(shown))

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of %s" % (name, type(self).__name__))


def pairwise_disjoint(intervals) -> bool:
    """Whether no two closed intervals (values with lo <= hi) meet: sorted
    by lo, each one ends before the next begins."""
    ordered = sorted(intervals, key=lambda iv: iv.lo)
    return all(u.hi < v.lo for u, v in zip(ordered, ordered[1:]))
