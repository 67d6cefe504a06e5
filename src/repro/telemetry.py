"""Declared counters: the one counter mechanism of ``src/``.

A layer declares its counters once — their names, a one-line meaning
each, and any ratios as formulas *over named counters* — and gets back a
class whose instances hold exactly those counters and nothing else::

    CacheStats = declare(
        "CacheStats",
        "Counters for one cache's lifetime.",
        {"hits": "lookups answered", "misses": "lookups that fell through"},
        ratios={"hit_rate": Ratio("share of lookups answered",
                                  ("hits",), ("hits", "misses"))},
    )
    stats = CacheStats()
    stats.hits += 1                # a native slot store, no hook runs
    stats.hit_rate                 # derived on read from the counters
    total = a.copy().merge(b)      # adds counter by counter
    total.to_dict()                # raw counters, then ratios rounded once

A ratio is never stored: it exists only as a read of the counters it is
declared over.  Code that adds two snapshots therefore can never see one,
so "ratio of sums, not sum of ratios" holds by construction wherever
snapshots are merged — gateway history, pool workers — and the formula is
written once, at the declaration.  Across snapshots, diff raw counters,
not ratios.

The generated class has a fixed ``__slots__`` (the way ``namedtuple``
generates its class), so reading or bumping an undeclared name raises
``AttributeError``, and it pickles by reference: bind it to a module-level
name equal to its declared name.
"""

from __future__ import annotations

import sys
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple, Type


class Ratio(NamedTuple):
    """``sum(numerator) / sum(denominator)`` over counters of the
    declaration it belongs to (a term spelled ``"-name"`` subtracts);
    0.0 while the denominator is zero."""

    meaning: str
    numerator: Tuple[str, ...]
    denominator: Tuple[str, ...]

    def of(self, counters: "Counters") -> float:
        below = _signed_sum(counters, self.denominator)
        return _signed_sum(counters, self.numerator) / below if below else 0.0


def _signed_sum(counters: "Counters", terms: Sequence[str]):
    return sum(
        -getattr(counters, term[1:]) if term[0] == "-" else getattr(counters, term)
        for term in terms
    )


class Counters:
    """Base of every declared counter set (see :func:`declare`)."""

    __slots__ = ()
    #: counter name → one-line meaning, in wire order.
    COUNTERS: Mapping[str, str] = {}
    RATIOS: Mapping[str, Ratio] = {}
    #: attribute → declaration of the counters it maps names to.
    GROUPS: Mapping[str, Type["Counters"]] = {}
    #: declaration → the counters :meth:`merge` adds from one of it.
    PARTS: Mapping[Type["Counters"], Tuple[str, ...]] = {}

    def __init__(self, **values: int) -> None:
        for name in self.COUNTERS:
            setattr(self, name, values.pop(name, 0))
        for name in self.GROUPS:
            setattr(self, name, {})
        if values:
            raise TypeError(
                f"{type(self).__name__} declares no counter {sorted(values)}"
            )

    def merge(self, other: "Counters") -> "Counters":
        """Add ``other``'s counters into this set, in place; returns it.

        ``other`` must be of this declaration — its named groups then
        merge name by name — or of a declared part, which adds the
        counters taken from it.  Anything else raises: two declarations
        that happen to share a counter name are never added."""
        names = self.PARTS.get(type(other))
        if names is None:
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        for name in names:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if type(other) is type(self):
            for group in self.GROUPS:
                mine = getattr(self, group)
                for key, counters in getattr(other, group).items():
                    if key in mine:
                        mine[key].merge(counters)
                    else:
                        mine[key] = counters.copy()
        return self

    def copy(self) -> "Counters":
        """An independent snapshot (grouped counters are copied too)."""
        return type(self)().merge(self)

    def to_dict(self) -> Dict:
        """JSON-serializable rendering — the ``{"op": "stats"}`` wire
        shape: raw counters, then the ratios derived from them (six
        places), then each named group."""
        payload: Dict = {name: getattr(self, name) for name in self.COUNTERS}
        for name in self.RATIOS:
            payload[name] = round(getattr(self, name), 6)
        for group in self.GROUPS:
            payload[group] = {
                key: counters.to_dict()
                for key, counters in getattr(self, group).items()
            }
        return payload

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_dict()})"


def declare(
    name: str,
    doc: str,
    counters: Optional[Mapping[str, str]] = None,
    ratios: Optional[Mapping[str, Ratio]] = None,
    groups: Optional[Mapping[str, Type[Counters]]] = None,
    parts: Optional[Mapping[Type[Counters], Optional[Sequence[str]]]] = None,
) -> Type[Counters]:
    """Generate the counter class of one layer.

    ``counters`` maps each counter to its one-line meaning; ``ratios``
    each derived ratio to its :class:`Ratio`.  ``parts`` composes: each
    key is another declaration whose named counters (``None`` = all of
    them, meanings included) this one also holds and can ``merge`` from —
    how a total is declared as "those counters, summed".  ``groups`` are
    attributes holding a ``{name: counters}`` map of one declaration
    (per model name, per engine), merged name by name.
    """
    declared = dict(counters or {})
    taken: Dict[Type[Counters], Tuple[str, ...]] = {}
    for part, wanted in (parts or {}).items():
        taken[part] = tuple(part.COUNTERS if wanted is None else wanted)
        declared.update((counter, part.COUNTERS[counter]) for counter in taken[part])
    ratios = dict(ratios or {})
    groups = dict(groups or {})
    namespace = {
        "__slots__": (*declared, *groups),
        "__doc__": doc,
        "__module__": sys._getframe(1).f_globals.get("__name__", __name__),
        "COUNTERS": declared,
        "RATIOS": ratios,
        "GROUPS": groups,
    }
    for ratio_name, ratio in ratios.items():
        unknown = [
            term for term in ratio.numerator + ratio.denominator
            if term.lstrip("-") not in declared
        ]
        if unknown:
            raise ValueError(f"{name}.{ratio_name} is over undeclared {unknown}")
        namespace[ratio_name] = property(ratio.of, doc=ratio.meaning)
    cls = type(name, (Counters,), namespace)
    cls.PARTS = {cls: tuple(declared), **taken}
    return cls
