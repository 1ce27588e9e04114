"""`domain.expect` against the schema compiler it replaced, kept here
verbatim as its oracle: on schemas and values Hypothesis draws, both accept
the same values and refuse the others with the same message."""

import math
import reprlib
from itertools import product, repeat
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvfcast import domain
from hvfcast.domain import DataError

# ---------------------------------------------------------------------------
# The oracle: `domain.expect` as it was, a compiled closure per schema


_TYPE_NAMES = {bool: "a bool", int: "an int", float: "a float", str: "a str",
               type(None): "null", list: "a list", dict: "an object"}


def _compile(schema):
    """(types, check, contents, rows): the exact types of `schema`'s values; a
    function giving None for a match, else the key path below the value and
    the problem; that function without the type test, for a list or object
    schema; and for an object schema, a test of a list of objects."""
    alts = [type(None) if alt is None else alt for alt in (schema if type(schema) is tuple else (schema,))]
    types = frozenset(alt if isinstance(alt, type) else type(alt) for alt in alts)
    expected = " or ".join(f"a list of {len(alt)} items" if type(alt) is list and len(alt) > 1
                           else _TYPE_NAMES[alt if isinstance(alt, type) else type(alt)] for alt in alts)
    inner = {type(alt): (_fields if type(alt) is dict else _items)(alt)
             for alt in alts if not isinstance(alt, type)}
    if not inner:
        contents, rows = None, None
    elif len(types) == 1:  # a list or an object, and nothing else
        contents, rows = inner.popitem()[1]
    else:
        contents, rows = lambda v: inner[type(v)][0](v) if type(v) in inner else None, None

    def check(v):
        if type(v) not in types:
            return (), f"must be {expected}, got {reprlib.repr(v)}"
        return contents(v) if contents else None

    return types, check, contents, rows


def _fields(schema: dict):
    """(contents, rows) of an object schema.  One itemgetter fetches an
    object's fields and one set lookup takes their types; a list of objects
    is checked a field at a time, each field in one C-level pass."""
    keys = tuple(schema)
    parts = [_compile(s) for s in schema.values()]
    get = itemgetter(*keys) if len(keys) > 1 else lambda d: (d[keys[0]],)
    allowed = frozenset(product(*(types for types, _, _, _ in parts)))
    nested = [(key, contents) for key, (_, _, contents, _) in zip(keys, parts) if contents]
    columns = [(itemgetter(key), types, contents) for key, (types, _, contents, _) in zip(keys, parts)]

    def fields(v):
        try:
            valid = tuple(map(type, get(v))) in allowed
        except KeyError:
            return (next(key for key in keys if key not in v),), "is missing"
        for key, check in nested if valid else zip(keys, (check for _, check, _, _ in parts)):
            if found := check(v[key]):
                return (key, *found[0]), found[1]

    def rows(vs):
        try:
            return all(types.issuperset(map(type, map(column, vs))) and (
                contents is None or not any(map(contents, map(column, vs)))) for column, types, contents in columns)
        except KeyError:
            return False

    return fields, rows


def _items(schema: list):
    """(contents, None) of `[item]`, or of `[a, b, ...]`: exactly those items."""
    parts = [_compile(s) for s in schema]
    (item_types, _, item_contents, item_rows), checks = parts[0], [check for _, check, _, _ in parts]

    def items(v):
        if len(checks) == 1 and item_types.issuperset(map(type, v)) and (
                item_rows(v) if item_rows else item_contents is None or not any(map(item_contents, v))):
            return None  # a valid list of one schema, in C-level passes
        if len(checks) > 1 and len(v) != len(checks):
            return (), f"must be a list of {len(checks)} items, got {reprlib.repr(v)}"
        for i, (x, check) in enumerate(zip(v, checks if len(checks) > 1 else repeat(checks[0]))):
            if found := check(x):
                return (i, *found[0]), found[1]

    return items, None


_COMPILED: dict[int, tuple] = {}


def expect(value, schema, where, at: tuple = ()):
    """`value` if it matches `schema`, else raises DataError naming `where` (the
    file), the key path below `at`, what was expected and what was found:
    `PATH: entries[3]: 'gap' must be a bool, got 'no'`.  A schema is a type,
    a tuple of types (None for null), `[item]`, `[a, b, ...]` (exactly those
    items) or `{key: schema}` (at least those keys); a bool is no int.
    Schemas are module constants, compiled once and kept (so ids stay theirs).
    """
    compiled = _COMPILED.get(id(schema)) or _COMPILED.setdefault(id(schema), (schema, _compile(schema)[1]))
    found = compiled[1](value)
    if found is None:
        return value
    path = (*at, *found[0])
    keys = path[:-1] if path and type(path[-1]) is str else path  # a key is named by itself
    subject = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in keys).lstrip(".")
    if keys is not path:
        subject = f"{subject}: {path[-1]!r}" if subject else repr(path[-1])
    raise DataError(f"{where}: {subject} {found[1]}" if subject else f"{where}: {found[1]}")


# ---------------------------------------------------------------------------
# Schemas, values that match them, and values a few edits away.  The oracle
# took an infinite float for a float; `expect` refuses one (see below), so
# the values drawn here are finite

_SCALARS = (bool, int, float, str)
_SCALAR_VALUES = {bool: st.booleans(), int: st.integers(-3, 3) | st.integers(),
                  float: st.floats(allow_nan=False, allow_infinity=False),
                  str: st.text(max_size=3), list: st.lists(st.integers(), max_size=2),
                  dict: st.dictionaries(st.text(max_size=1), st.integers(), max_size=2)}


def _schemas(depth: int):
    """Schemas nested to `depth`: `[item]`, `[a, b, ...]`, `{key: schema}` or
    a tuple of scalar types, at most one list or object schema and perhaps
    None; below the top also a bare type.  No tuple holds two schemas of one
    type, or `list` or `dict` beside a list or object schema: no module
    schema does, and there the compiled checker took the last and the walk
    takes the first."""
    leaves = st.sampled_from((int, *_SCALARS, list, dict))  # int twice: a bool must not pass for one
    scalars = st.lists(st.sampled_from(_SCALARS), unique=True, max_size=3)
    if depth == 0:
        return st.one_of(leaves, st.tuples(scalars, st.lists(st.none(), max_size=1)).map(
            lambda parts: (*parts[0], *parts[1])).filter(len))
    inner = st.one_of(leaves, _schemas(depth - 1))
    containers = st.one_of(
        st.dictionaries(st.sampled_from("abcd"), inner, min_size=1, max_size=4),
        st.lists(inner, min_size=2, max_size=3),
        inner.map(lambda s: [s]),
    )
    tuples = st.tuples(scalars, st.lists(containers, max_size=1), st.lists(st.none(), max_size=1)).map(
        lambda parts: (*parts[0], *parts[1], *parts[2])).filter(len)
    return st.one_of(containers, tuples)


def _values(schema):
    """Values that match `schema`."""
    if schema is None:
        return st.none()
    if type(schema) is tuple:
        return st.one_of(*map(_values, schema))
    if type(schema) is dict:
        return st.fixed_dictionaries({k: _values(s) for k, s in schema.items()}, optional={"z": st.integers()})
    if type(schema) is list and len(schema) == 1:
        return st.lists(_values(schema[0]), min_size=1, max_size=3)
    if type(schema) is list:
        return st.tuples(*map(_values, schema)).map(list)
    return _SCALAR_VALUES[schema]


def _alts(schema) -> tuple:
    return schema if type(schema) is tuple else (schema,)


def _parts(value, schema) -> list:
    """(key, schema) of each part of `value` that `schema` checks."""
    for alt in _alts(schema):
        if type(alt) is dict is type(value):
            return [(key, s) for key, s in alt.items() if key in value]
        if type(alt) is list is type(value):
            return list(zip(range(len(value)), alt * len(value) if len(alt) == 1 else alt))
    return []


def _places(value, schema, path=()):
    """(key path, value, schema) of `value` and of every part below it that `schema` checks."""
    yield path, value, schema
    for key, s in _parts(value, schema):
        yield from _places(value[key], s, (*path, key))


def _replaced(value, path, new):
    if not path:
        return new
    value = value.copy()
    value[path[0]] = _replaced(value[path[0]], path[1:], new)
    return value


def _without(value: dict, key):
    return {k: v for k, v in value.items() if k != key}


_SWAPS = (True, False, 0, 7, 1.5, "x", None, [], [1], {}, {"a": 1})


def _drop_and_swap(rnd, value: dict, parts):
    """A missing key and, before or after it in the schema, a value of another type."""
    drop, swap = rnd.sample([key for key, _ in parts], 2)
    return _without(value, drop) | {swap: rnd.choice(_SWAPS)}

# Each edit: where it applies, given a part and its schema, and what it puts there
_EDITS = {
    "swap a type": (lambda v, s: True, lambda rnd, v, s: rnd.choice(_SWAPS)),
    "a bool for an int": (lambda v, s: int in _alts(s) and bool not in _alts(s),
                          lambda rnd, v, s: rnd.choice((True, False))),
    "a scalar for a container": (lambda v, s: type(v) in (list, dict),
                                 lambda rnd, v, s: rnd.choice((True, 0, 1.5, "x", None))),
    "drop a key": (lambda v, s: type(v) is dict and _parts(v, s),
                   lambda rnd, v, s: _without(v, rnd.choice(_parts(v, s))[0])),
    "drop a key and swap another": (lambda v, s: type(v) is dict and len(_parts(v, s)) > 1,
                                    lambda rnd, v, s: _drop_and_swap(rnd, v, _parts(v, s))),
    "an exact-length list one item short or long": (
        lambda v, s: type(v) is list and any(type(alt) is list and len(alt) > 1 for alt in _alts(s)),
        lambda rnd, v, s: rnd.choice((v[:-1], v + v[:1]))),
}


def _edited(rnd, value, schema):
    """`value` with one edit of a kind chosen first, at a part of it where that kind applies."""
    applies, edit = _EDITS[rnd.choice(sorted(_EDITS))]
    places = [place for place in _places(value, schema) if applies(*place[1:])]
    if not places:
        return value
    path, v, s = rnd.choice(places)
    return _replaced(value, path, edit(rnd, v, s))


def _outcome(check, value, schema, at):
    try:
        return check(value, schema, "F", at) is value
    except DataError as e:
        return str(e)


def _agree(schema, value, at):
    assert _outcome(domain.expect, value, schema, at) == _outcome(expect, value, schema, at)


_AT = st.sampled_from([(), ("entries", 3), ("x",)])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_expect_accepts_what_the_compiled_checker_accepts(data):
    schema = data.draw(_schemas(3), label="schema")
    _agree(schema, data.draw(_values(schema), label="value"), data.draw(_AT, label="at"))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_expect_refuses_as_the_compiled_checker_does(data):
    schema = data.draw(_schemas(3), label="schema")
    value = data.draw(_values(schema), label="match")
    rnd = data.draw(st.randoms(use_true_random=True), label="edits")
    for _ in range(rnd.choice((1, 2))):
        value = _edited(rnd, value, schema)
    _agree(schema, value, data.draw(_AT, label="at"))



@pytest.mark.parametrize(
    "value, schema, problem",
    [
        (math.inf, float, "must be a finite number, got inf"),
        (-math.inf, (*domain.NUMBER, None), "must be a finite number, got -inf"),
        (math.nan, domain.NUMBER, "must be a finite number, got nan"),
        ({"mae": math.inf}, {"mae": (*domain.NUMBER, None)}, "'mae' must be a finite number, got inf"),
        ({"x": math.inf}, {"x": float}, "'x' must be a finite number, got inf"),
        ([{"bin": 1.0}, {"bin": -math.inf}], [{"bin": domain.NUMBER}], "[1]: 'bin' must be a finite number, got -inf"),
        ([1.0, math.inf], [domain.NUMBER, domain.NUMBER], "[1] must be a finite number, got inf"),
    ],
)
def test_expect_refuses_a_float_that_is_not_finite(value, schema, problem):
    """json reads a number literal beyond the float range, such as 1e400, as inf."""
    assert _outcome(domain.expect, value, schema, ()) == f"F: {problem}"

