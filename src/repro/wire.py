"""The wire-type table: how a declared field type crosses JSON.

Trace events (:mod:`repro.obs.events`), analysis snapshots
(:mod:`repro.obs.analysis.round_stats`) and history records
(:mod:`repro.fl.history`) all leave the process as JSON objects with
one key per dataclass field. :data:`SHAPES` is the one place that says
what each declared field type looks like on the wire — its JSON-plain
dump, its strict shape check, its typed load — and :func:`record`
resolves a frozen dataclass against it once, at class definition, so
:func:`dump`, :func:`check` and :func:`load` are derived from
``dataclasses.fields`` instead of being written out per class.

Adding a field to a record is therefore one edit (the dataclass);
adding a *shape* is one row here, and a field whose type has no row
fails when its class is defined, not when a trace is read back.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Callable,
    Dict,
    Iterable,
    NamedTuple,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.errors import SerializationError

__all__ = [
    "Shape",
    "SHAPES",
    "WireField",
    "one_of",
    "record",
    "dump",
    "check",
    "load",
]


class Shape(NamedTuple):
    """One row of the table: a field type's three wire behaviours.

    Attributes:
        check: whether a JSON-decoded value has this shape (strict:
            ``True`` is not an int, a string is not a number).
        load: JSON-decoded value -> the declared Python type.
        dump: Python value -> JSON-plain value; ``None`` when the
            value already is (scalars).
        example: a valid Python value (tests synthesize records from it).
    """

    check: Callable[[object], bool]
    load: Callable[[object], object]
    dump: Optional[Callable[[object], object]]
    example: object


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_bool(value) -> bool:
    return isinstance(value, bool)


def _is_id_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def _is_float_map(value) -> bool:
    return isinstance(value, dict) and all(
        _is_str(key) and _is_num(item) for key, item in value.items()
    )


def _load_ids(value) -> Tuple[int, ...]:
    return tuple(int(v) for v in value)


def _load_float_map(value) -> Dict[int, float]:
    return {int(k): float(v) for k, v in value.items()}


def _dump_float_map(value) -> Dict[str, float]:
    return {str(k): v for k, v in value.items()}


SHAPES: Dict[object, Shape] = {
    int: Shape(_is_int, int, None, 3),
    float: Shape(_is_num, float, None, 1.5),
    str: Shape(_is_str, str, None, "x"),
    bool: Shape(_is_bool, bool, None, True),
    Tuple[int, ...]: Shape(_is_id_list, _load_ids, list, (2, 1)),
    Dict[int, float]: Shape(
        _is_float_map, _load_float_map, _dump_float_map, {4: 1.5e9}
    ),
}
"""Every field type a wire record may declare (plus ``Optional`` of each)."""


def _optional(shape: Shape) -> Shape:
    """The shape of ``Optional[T]``: ``null`` or ``T``'s shape."""
    check, load, dump, example = shape
    return Shape(
        lambda value: value is None or check(value),
        lambda value: None if value is None else load(value),
        dump and (lambda value: None if value is None else dump(value)),
        example,
    )


def one_of(values: Iterable[str]):
    """Declare a ``str`` field restricted to ``values``.

    Use as the field's default expression (``outcome: str =
    one_of(...)``); the field stays required, and :func:`check`
    rejects any other string.
    """
    return dataclasses.field(metadata={"one_of": tuple(values)})


class WireField(NamedTuple):
    """One dataclass field resolved against :data:`SHAPES`.

    Attributes:
        name: the field (and JSON key) name.
        check: its :class:`Shape` check, vocabulary included.
        load: its :class:`Shape` load.
        dump: its :class:`Shape` dump.
        example: a valid value for it.
        has_default: whether :func:`load` may find it absent.
    """

    name: str
    check: Callable[[object], bool]
    load: Callable[[object], object]
    dump: Optional[Callable[[object], object]]
    example: object
    has_default: bool


def _resolve(owner: type, spec: dataclasses.Field, declared) -> WireField:
    inner = declared
    if get_origin(declared) is Union:
        args = [a for a in get_args(declared) if a is not type(None)]
        inner = args[0] if len(args) == 1 else None
    shape = SHAPES.get(inner)
    if shape is None:
        raise TypeError(
            f"{owner.__name__}.{spec.name}: field type {declared!r} has no "
            f"row in repro.wire.SHAPES"
        )
    vocabulary = spec.metadata.get("one_of")
    if vocabulary is not None:
        if inner is not str:
            raise TypeError(
                f"{owner.__name__}.{spec.name}: one_of() constrains str "
                f"fields, not {declared!r}"
            )
        shape = shape._replace(
            check=lambda value: _is_str(value) and value in vocabulary,
            example=vocabulary[0],
        )
    if inner is not declared:
        shape = _optional(shape)
    has_default = (
        spec.default is not dataclasses.MISSING
        or spec.default_factory is not dataclasses.MISSING
    )
    return WireField(spec.name, *shape, has_default)


def record(cls: type) -> type:
    """Resolve a frozen dataclass's fields against :data:`SHAPES`.

    Stores the result as ``cls.__wire__`` (a tuple of
    :class:`WireField` in field order) and returns ``cls``, so it works
    as a class decorator above ``@dataclass(frozen=True)``.

    Raises:
        TypeError: when ``cls`` is not a frozen dataclass, or a field
            declares a type outside the table.
    """
    if not (
        dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    ):
        raise TypeError(
            f"{cls.__name__} must be a @dataclass(frozen=True) to be a "
            "wire record"
        )
    hints = get_type_hints(cls)
    cls.__wire__ = tuple(
        _resolve(cls, spec, hints[spec.name])
        for spec in dataclasses.fields(cls)
    )
    return cls


def dump(obj) -> dict:
    """JSON-plain dict of a wire record, keys in field order."""
    payload = {}
    for name, _, _, dump_value, _, _ in type(obj).__wire__:
        value = getattr(obj, name)
        payload[name] = value if dump_value is None else dump_value(value)
    return payload


def check(cls: type, payload: dict, also: Tuple[str, ...] = ()) -> None:
    """Strict shape check of a JSON-decoded object against ``cls``.

    Every field must be present with its declared shape, and no key
    outside the fields (and ``also``) may appear.

    Raises:
        SerializationError: on the first violation, naming ``cls``.
    """
    fields = cls.__wire__
    for name, is_valid, _, _, _, _ in fields:
        if name not in payload:
            raise SerializationError(
                f"{cls.__name__} is missing field {name!r}"
            )
        if not is_valid(payload[name]):
            raise SerializationError(
                f"{cls.__name__} field {name!r} has invalid value "
                f"{payload[name]!r}"
            )
    # Every field is present, so any surplus key is an unexpected one.
    if len(payload) > len(fields) + sum(key in payload for key in also):
        extra = set(payload).difference(also, (field.name for field in fields))
        raise SerializationError(
            f"{cls.__name__} carries unexpected fields {sorted(extra)}"
        )


def load(cls: type, payload: dict):
    """Rebuild a ``cls`` instance from a JSON-decoded object.

    Values are converted to their declared types but not shape-checked
    (run :func:`check` first on untrusted input). A field the dataclass
    gives a default may be absent; keys that are not fields are ignored.

    Raises:
        SerializationError: when a field without a default is absent.
    """
    kwargs = {}
    for name, _, load_value, _, _, has_default in cls.__wire__:
        if name in payload:
            kwargs[name] = load_value(payload[name])
        elif not has_default:
            raise SerializationError(
                f"{cls.__name__} is missing field {name!r}"
            )
    return cls(**kwargs)
