"""Record classes without generated code.

:class:`Record` is the base of the engine's structural classes — the
SQL AST, source spans, analysis findings, plan nodes
and the per-statement records. A subclass declares its fields as
annotations, in order, a default as a class attribute::

    class ColumnRef(Record):
        column: str
        qualifier: Optional[str] = None

and gets the semantics of a ``@dataclass(frozen=True)`` with the same
body: positional-or-keyword ``__init__`` (then ``__post_init__`` when
the class defines one), ``repr`` as ``ColumnRef(column='x',
qualifier=None)``, ``==`` field by field between instances of the same
class only (as one tuple compares another, so an identical NaN object
is equal to itself), ``hash`` of the field tuple, and assignment or
deletion raising :class:`FrozenInstanceError`. ``class Scan(Record,
frozen=False)`` is the mutable form: assignable, and unhashable, as a
plain ``@dataclass`` is.

The base reads the annotations once per class, in ``__init_subclass__``,
into the ``_fields`` tuple; every method is shared, so defining a class
compiles nothing. A subclass adds fields after its bases' and redeclares
none. Metadata is attached out of band (source spans) with
``object.__setattr__``: it is no field, so it never takes part in
``==``, ``hash``, ``repr`` or :func:`replace`.

Fields are set and read as attributes, never through ``__dict__``:
touching an instance's ``__dict__`` makes CPython (3.11+) trade its
inline attribute values for a real dictionary, and every later
attribute read gets slower. A frozen class that writes its own
``__init__`` sets its fields with ``object.__setattr__`` for the same
reason.
"""

from __future__ import annotations

from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, ClassVar, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R", bound="Record")

if TYPE_CHECKING:
    from typing_extensions import dataclass_transform
else:
    def dataclass_transform(**_: object) -> Callable[[_T], _T]:
        return lambda cls: cls


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


@dataclass_transform(frozen_default=True)
class Record:
    """The base of record classes: see the module docstring."""

    __slots__ = ()

    #: field names, in declaration order (base classes' first)
    _fields: ClassVar[tuple[str, ...]] = ()
    #: field name -> default value, for the fields that have one
    _defaults: ClassVar[dict[str, Any]] = {}
    #: ``record -> tuple of its field values`` (see :func:`_key_of`)
    _key: ClassVar[Any]

    def __init_subclass__(cls, frozen: bool = True, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        body = cls.__dict__
        own = body.get("__annotations__", {})
        fields = [*cls._fields, *own]
        defaults = {**cls._defaults, **{
            name: body[name] for name in own if name in body}}
        required = [name for name in fields if name not in defaults]
        if required and fields.index(required[-1]) >= len(required):
            raise TypeError(
                f"non-default argument {required[-1]!r} follows default "
                f"argument in {cls.__name__}")
        cls._fields = tuple(fields)
        cls._defaults = defaults
        setattr(cls, "_key", staticmethod(_key_of(cls._fields)))
        if "__post_init__" in body and "__init__" not in body:
            setattr(cls, "__init__", _init_then_post_init)
        if not frozen:
            setattr(cls, "__setattr__", object.__setattr__)
            setattr(cls, "__delattr__", object.__delattr__)
            setattr(cls, "__hash__", None)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(self, args, kwargs)
        setter = object.__setattr__
        for name, value in zip(fields, args):
            setter(self, name, value)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._fields, self._key(self))) + ")"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _key_of(fields: tuple[str, ...]) -> Callable[[Any], tuple[Any, ...]]:
    """A reader of the field values' tuple, in C for two or more."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(fields[0])
        return lambda record: (get(record),)
    return lambda record: ()


def _init_then_post_init(self: Any, *args: Any, **kwargs: Any) -> None:
    Record.__init__(self, *args, **kwargs)
    self.__post_init__()


def _bind(record: Record, args: tuple[Any, ...],
          kwargs: dict[str, Any]) -> tuple[Any, ...]:
    """Every field's value, in order, from a call that is not one
    positional argument per field: keywords and defaults fill in, and a
    wrong call raises the ``TypeError`` a dataclass raises."""
    fields = record._fields
    name = type(record).__qualname__
    if len(args) > len(fields):
        raise TypeError(
            f"{name}.__init__() takes {len(fields) + 1} positional "
            f"arguments but {len(args) + 1} were given")
    values = list(args)
    defaults = record._defaults
    missing = []
    for field in fields[len(args):]:
        if field in kwargs:
            values.append(kwargs.pop(field))
        elif field in defaults:
            values.append(defaults[field])
        else:
            missing.append(field)
    for keyword in kwargs:
        if keyword in fields:
            raise TypeError(
                f"{name}.__init__() got multiple values for argument "
                f"{keyword!r}")
        raise TypeError(
            f"{name}.__init__() got an unexpected keyword argument "
            f"{keyword!r}")
    if missing:
        raise TypeError(
            f"{name}.__init__() missing {len(missing)} required "
            f"argument(s): " + ", ".join(map(repr, missing)))
    return tuple(values)


def replace(record: _R, **changes: Any) -> _R:
    """A new record of ``record``'s class with ``changes`` applied to
    its fields; built through ``__init__``, so ``__post_init__`` runs
    and no out-of-band metadata is carried over."""
    values = dict(zip(record._fields, record._key(record)))
    values.update(changes)
    return type(record)(**values)
