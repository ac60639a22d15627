"""The one unchecked constructor of the checked value types.

``EpsSeries``, ``Neutrix``, ``ExternalNumber`` and the formula nodes are
frozen, slotted dataclasses whose public constructors check their fields.
Values already valid by construction, the arithmetic's results and the
formula parser's nodes, are built by :func:`trusted` instead; each binding
of it states what its arguments must already satisfy.
"""

from dataclasses import fields

_new = object.__new__


def trusted(cls):
    """The constructor of ``cls`` that fills its slots without the checks.

    The generated ``__init__`` of a frozen dataclass sets each field through
    ``object.__setattr__``, at about three times the cost, and runs the
    check, ``__post_init__``.  It is written out per number of fields (one
    to three): a generic ``*values`` loop costs twice as much.
    """
    setters = [getattr(cls, field.name).__set__ for field in fields(cls)]
    if len(setters) == 1:
        [set_a] = setters

        def build(a):
            value = _new(cls)
            set_a(value, a)
            return value

    elif len(setters) == 2:
        set_a, set_b = setters

        def build(a, b):
            value = _new(cls)
            set_a(value, a)
            set_b(value, b)
            return value

    else:
        set_a, set_b, set_c = setters

        def build(a, b, c):
            value = _new(cls)
            set_a(value, a)
            set_b(value, b)
            set_c(value, c)
            return value

    return build
