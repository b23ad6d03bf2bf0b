"""The ``coerce`` classmethod of optional feature configs.

Serving features are switched by one argument each, and every such
argument accepts the same spellings; classes bind this function as
``coerce = classmethod(coerce_optional)``.
"""

from __future__ import annotations


def coerce_optional(cls, value):
    """``None``/``False`` -> ``None`` (feature off); ``True`` ->
    ``cls()``; a dict -> ``cls(**value)``; an instance -> itself."""
    if value is None or value is False:
        return None
    if value is True:
        return cls()
    if isinstance(value, dict):
        return cls(**value)
    if isinstance(value, cls):
        return value
    raise TypeError(f"cannot coerce {value!r} into {cls.__name__}")
