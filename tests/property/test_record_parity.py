"""The record base (``repro.records.Record``) against the frozen
dataclasses it replaced: every AST node class and ``Span`` gets a
``dataclasses.make_dataclass(..., frozen=True)`` twin with the same fields and defaults, and the same generated values —
NaN (one shared object and fresh ones), ``-0.0``, ``1``/``1.0``/``True``,
strings, tuples and nested nodes — build one tree of each. ``repr``,
``==``, ``!=``, ``hash``, construction errors and the refusal to assign
or delete an attribute must agree.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.records import Record
from repro.sql import ast
from repro.sql.spans import Span

CLASSES = sorted(
    (value for value in vars(ast).values()
     if isinstance(value, type) and issubclass(value, Record)
     and value._fields),
    key=lambda cls: cls.__name__,
) + [Span]

#: one NaN object shared by every tree that draws it: a tuple holding
#: it equals itself, a fresh NaN does not
NAN = float("nan")


def twin_of(cls):
    """The frozen dataclass the class body would have made: its own
    annotations (no class here inherits a field), class-attribute
    defaults and ``__post_init__``."""
    body = vars(cls)
    spec = [
        (name, object, dataclasses.field(default=body[name]))
        if name in body else (name, object)
        for name in body["__annotations__"]
    ]
    namespace = {}
    if "__post_init__" in body:
        namespace["__post_init__"] = body["__post_init__"]
    return dataclasses.make_dataclass(
        cls.__name__, spec, frozen=True, namespace=namespace)


TWINS = {cls: twin_of(cls) for cls in CLASSES}

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.text(max_size=2),
    st.sampled_from([0.0, -0.0, 1.0, NAN, math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def node_trees(draw, depth=2):
    """``("node", class, positional trees, keyword trees)``."""
    cls = draw(st.sampled_from(CLASSES))
    required = len(cls._fields) - len(cls._defaults)
    count = draw(st.integers(required, len(cls._fields)))
    leaf = scalars.map(lambda value: ("value", value))
    child = leaf if depth == 0 else st.one_of(
        leaf,
        node_trees(depth=depth - 1),
        st.lists(leaf, max_size=3).map(lambda items: ("tuple", items)),
    )
    values = [draw(child) for _ in range(count)]
    split = draw(st.integers(0, count))
    return ("node", cls, values[:split],
            dict(zip(cls._fields[split:count], values[split:])))


def build(tree, twins):
    tag = tree[0]
    if tag == "value":
        return tree[1]
    if tag == "tuple":
        return tuple(build(item, twins) for item in tree[1])
    _, cls, args, kwargs = tree
    make = TWINS[cls] if twins else cls
    return make(*[build(item, twins) for item in args],
                **{name: build(item, twins) for name, item in kwargs.items()})


def outcome(tree, twins):
    try:
        return build(tree, twins), None
    except Exception as error:
        return None, type(error)


def hashed(node):
    try:
        return hash(node)
    except TypeError:
        return TypeError


@given(node_trees(), node_trees())
@settings(max_examples=400, deadline=None)
def test_records_behave_as_frozen_dataclasses(first, second):
    ours, error = outcome(first, twins=False)
    twin, twin_error = outcome(first, twins=True)
    assert error is twin_error
    other, other_error = outcome(second, twins=False)
    other_twin, _ = outcome(second, twins=True)
    if error is not None or other_error is not None:
        return
    assert repr(ours) == repr(twin)
    assert hashed(ours) == hashed(twin)
    assert (ours == other) == (twin == other_twin)
    assert (ours != other) == (twin != other_twin)
    assert ours == build(first, twins=False)
    for name in (*type(ours)._fields, "unknown"):
        for node in (ours, twin):
            with pytest.raises(AttributeError):
                setattr(node, name, 1)
            with pytest.raises(AttributeError):
                delattr(node, name)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_fields_and_defaults_are_the_dataclass_ones(cls):
    fields = dataclasses.fields(TWINS[cls])
    assert cls._fields == tuple(field.name for field in fields)
    assert cls._defaults == {
        field.name: field.default for field in fields
        if field.default is not dataclasses.MISSING
    }
    for count in (len(fields) + 1, len(cls._fields) - len(cls._defaults) - 1):
        if count >= 0:
            for make in (cls, TWINS[cls]):
                with pytest.raises(TypeError):
                    make(*range(count))
