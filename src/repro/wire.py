"""The wire-type table: how records and documents cross JSON and the disk.

Trace events (:mod:`repro.obs.events`), history records
(:mod:`repro.fl.history`), analysis snapshots
(:mod:`repro.obs.analysis.round_stats`), fault plans
(:mod:`repro.faults.plan`), campaign and run specs, run statuses
(:mod:`repro.campaign`), trainer checkpoints
(:mod:`repro.fl.checkpoint`) and figure artifacts
(:mod:`repro.experiments.export`) all leave the process as JSON objects
with one key per dataclass field. :data:`SHAPES` is the one place that
says what each declared field type looks like on the wire — its
JSON-plain dump, its strict shape check, its typed load — and
:func:`record` resolves a dataclass against it once, at class
definition, so :func:`dump`, :func:`check` and :func:`load` are derived
from ``dataclasses.fields`` instead of being written out per class. A
field may also be another record, a tuple or list of records, or a
member of a :class:`Tagged` family (events, fault specs), which is how
leaf records compose into documents; a record that is a whole file is a
:class:`Document`, whose ``to_dict``/``from_dict``/``to_json``/
``from_json``/``load``/``save`` are written once, here.

Adding a field to a record or document is therefore one edit (the
dataclass); adding a *shape* is one row here, and a field whose type
has no row fails when its class is defined, not when a file is read
back. JSON text is parsed in one function of this module: a line enters
through :func:`read_jsonl`, a document through :func:`read_json`, and
a file leaves through :func:`write_atomic`; a trace line leaves through
its class's compiled :class:`LineTemplate`.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import gzip
import json
import math
import os
import tempfile
import zlib
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import (
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

import numpy as np

from repro.errors import ReproError, SerializationError

__all__ = [
    "Shape",
    "SHAPES",
    "WireField",
    "Tagged",
    "Document",
    "derived",
    "one_of",
    "record",
    "dump",
    "check",
    "load",
    "reject_unknown",
    "read_json",
    "read_jsonl",
    "LineTemplate",
    "batch_records",
    "batch_lines",
    "write_atomic",
    "encode_array",
    "decode_array",
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


def _is_dict(value) -> bool:
    return isinstance(value, dict)


def _is_list(value) -> bool:
    return isinstance(value, list)


def _is_id_key(key) -> bool:
    """Whether ``int(key)`` will succeed on a JSON object key."""
    return isinstance(key, str) and key.lstrip("-").isdecimal()


def _list_of(item_ok: Callable[[object], bool]) -> Callable[[object], bool]:
    return lambda value: isinstance(value, list) and all(map(item_ok, value))


def _map_of(key_ok, item_ok) -> Callable[[object], bool]:
    return lambda value: isinstance(value, dict) and all(
        key_ok(key) and item_ok(item) for key, item in value.items()
    )


def encode_array(array: np.ndarray) -> dict:
    """Lossless JSON encoding of a numpy array (little-endian bytes)."""
    contiguous = np.ascontiguousarray(array)
    little = contiguous.astype(contiguous.dtype.newbyteorder("<"), copy=False)
    return {
        "dtype": str(contiguous.dtype),
        "shape": list(contiguous.shape),
        "data": base64.b64encode(little.tobytes()).decode("ascii"),
    }


def decode_array(payload: dict) -> np.ndarray:
    """Rebuild an array from :func:`encode_array` output, bitwise.

    Raises:
        SerializationError: when the payload is not such an encoding.
    """
    try:
        dtype = np.dtype(payload["dtype"])
        raw = base64.b64decode(payload["data"])
        array = np.frombuffer(raw, dtype=dtype.newbyteorder("<"))
        return array.astype(dtype, copy=True).reshape(payload["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed array payload: {exc}") from exc


def _is_array(value) -> bool:
    return (
        isinstance(value, dict)
        and _is_str(value.get("dtype"))
        and _is_str(value.get("data"))
        and _list_of(_is_int)(value.get("shape"))
    )


SHAPES: Dict[object, Shape] = {
    int: Shape(_is_int, int, None, 3),
    float: Shape(_is_num, float, None, 1.5),
    str: Shape(_is_str, str, None, "x"),
    bool: Shape(_is_bool, bool, None, True),
    dict: Shape(_is_dict, dict, None, {"k": [1]}),
    np.ndarray: Shape(
        _is_array, decode_array, encode_array, np.array([1.5, -2.0])
    ),
    Tuple[int, ...]: Shape(_list_of(_is_int), lambda v: tuple(map(int, v)), list, (2, 1)),
    Tuple[float, ...]: Shape(_list_of(_is_num), lambda v: tuple(map(float, v)), list, (0.5,)),
    Tuple[str, ...]: Shape(_list_of(_is_str), tuple, list, ("b", "a")),
    Tuple[dict, ...]: Shape(_list_of(_is_dict), tuple, list, ({"k": 1},)),
    Tuple[Optional[dict], ...]: Shape(
        _list_of(lambda value: value is None or isinstance(value, dict)),
        tuple,
        list,
        (None, {"k": 1}),
    ),
    Dict[int, float]: Shape(
        _map_of(_is_id_key, _is_num),
        lambda v: {int(k): float(x) for k, x in v.items()},
        lambda v: {str(k): x for k, x in v.items()},
        {4: 1.5e9},
    ),
    Dict[str, int]: Shape(
        _map_of(_is_str, _is_int), dict, lambda v: dict(sorted(v.items())), {"round": 2}
    ),
}
"""Every leaf field type a wire record may declare.

``Optional`` of each also resolves, as does a field whose type is
itself a wire record or :class:`Tagged` family, or a ``Tuple[R, ...]``
/ ``List[R]`` of one. ``dict`` is opaque: any JSON object, passed
through (another module's ``state_dict()``).
"""


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
        locate: for a field holding records, maps a value that failed
            ``check`` to the ``(path, reason)`` of the first violation
            inside it; ``None`` for leaf fields.
    """

    name: str
    check: Callable[[object], bool]
    load: Callable[[object], object]
    dump: Optional[Callable[[object], object]]
    example: object
    has_default: bool
    locate: Optional[Callable[[object], Optional[Tuple[str, str]]]] = None


class Tagged:
    """Base of a *tagged* record family: events, fault specs.

    A family base names its discriminator key (``class Event(Tagged,
    tag="event")``) and is itself ``@dataclass(frozen=True)``. Declaring
    a member is subclassing the base: give the class a ``kind`` (the
    wire name stored under the tag key) and annotate its fields.
    Subclassing makes it a frozen dataclass, resolves its fields
    (:func:`record`) and registers it in the family's ``__members__``
    by ``kind``; :func:`load` on the base builds the member the tag
    names. Do not decorate members: a field type outside the table, a
    missing or reused ``kind``, or a second ``@dataclass`` (which would
    re-generate or unfreeze the class) raises ``TypeError`` at class
    definition.
    """

    kind: ClassVar[str]
    __tag__: ClassVar[str]
    __members__: ClassVar[Dict[str, type]]

    def __init_subclass__(cls, tag: Optional[str] = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if tag is not None:
            cls.__tag__ = tag
            cls.__members__ = {}
            return
        kind = cls.__dict__.get("kind")
        if not isinstance(kind, str) or kind in cls.__members__:
            raise TypeError(
                f"{cls.__name__} needs its own class-level string `kind` "
                f"no other {cls.__tag__!r}-tagged record uses, got {kind!r}"
            )
        record(dataclasses.dataclass(frozen=True)(cls))
        cls.__members__[kind] = cls

    def to_dict(self) -> dict:
        """JSON-friendly dict form: ``{tag: kind, **fields}``."""
        return {self.__tag__: self.kind, **dump(self)}


def _member(cls: type, payload: dict) -> Optional[type]:
    """``cls``, or for a :class:`Tagged` family base the member that
    ``payload``'s tag names (``None`` for an unknown tag)."""
    tag = cls.__dict__.get("__tag__")
    if tag is None:
        return cls
    kind = payload.get(tag)
    return cls.__members__.get(kind) if isinstance(kind, str) else None


def _is_wire_class(declared) -> bool:
    return isinstance(declared, type) and (
        "__wire__" in declared.__dict__ or "__tag__" in declared.__dict__
    )


def _nested(
    target: type, sequence: Optional[type], name: str
) -> Tuple[Shape, Callable]:
    """Shape and ``locate`` of field ``name`` holding ``target`` record(s).

    ``sequence`` is ``tuple`` or ``list`` for a homogeneous sequence of
    them, ``None`` for a single one.
    """
    family = "__tag__" in target.__dict__
    plain = Tagged.to_dict if family else dump
    sample_cls = next(iter(target.__members__.values())) if family else target
    sample = sample_cls(
        **{f.name: f.example for f in sample_cls.__wire__ if not f.has_default}
    )
    if sequence is None:
        return (
            Shape(
                lambda value: _violation(target, value) is None,
                lambda value: _build(target, value, f".{name}"),
                plain,
                sample,
            ),
            lambda value: _violation(target, value),
        )

    def locate(values):
        for index, value in enumerate(values if _is_list(values) else ()):
            found = _violation(target, value)
            if found is not None:
                return f"[{index}]{found[0]}", found[1]
        return None

    return (
        Shape(
            lambda values: _is_list(values) and locate(values) is None,
            lambda values: sequence(
                _build(target, value, f".{name}[{index}]")
                for index, value in enumerate(values)
            ),
            lambda values: [plain(v) for v in values],
            sequence((sample,)),
        ),
        locate,
    )


def _resolve(owner: type, spec: dataclasses.Field, declared) -> WireField:
    inner = declared
    if get_origin(declared) is Union:
        args = [a for a in get_args(declared) if a is not type(None)]
        inner = args[0] if len(args) == 1 else None
    shape, locate = SHAPES.get(inner), None
    if shape is None:
        origin, args = get_origin(inner), get_args(inner)
        if _is_wire_class(inner):
            shape, locate = _nested(inner, None, spec.name)
        elif (
            (origin is tuple and len(args) == 2 and args[1] is Ellipsis)
            or (origin is list and len(args) == 1)
        ) and _is_wire_class(args[0]):
            shape, locate = _nested(args[0], origin, spec.name)
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
    return WireField(spec.name, *shape, has_default, locate)


def record(cls: type, mutable: bool = False) -> type:
    """Resolve a dataclass's fields against :data:`SHAPES`.

    Stores the result as ``cls.__wire__`` (a tuple of
    :class:`WireField` in field order), compiles its JSON line encoder
    as ``cls.__line__`` (a :class:`LineTemplate`) and returns ``cls``,
    so it works as a class decorator above ``@dataclass(frozen=True)``.
    A record is frozen; ``mutable=True`` admits the results a run fills
    in while it is live (:class:`repro.fl.history.TrainingHistory`).

    Raises:
        TypeError: when ``cls`` is not a frozen dataclass, or a field
            declares a type outside the table.
    """
    if not (
        dataclasses.is_dataclass(cls)
        and (mutable or cls.__dataclass_params__.frozen)
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
    cls.__line__ = LineTemplate(cls)
    return cls


def dump(obj) -> dict:
    """JSON-plain dict of a wire record, keys in field order."""
    payload = {}
    for name, _, _, dump_value, _, _, _ in type(obj).__wire__:
        value = getattr(obj, name)
        payload[name] = value if dump_value is None else dump_value(value)
    return payload


def check(cls: type, payload, also: Tuple[str, ...] = ()) -> None:
    """The strict form of :func:`load`'s check, for the trace validator:
    a field must be present even where the dataclass gives a default.

    Raises:
        SerializationError: on the first violation, naming the class.
    """
    found = _violation(cls, payload, also, strict=True)
    if found is not None:
        named = (_is_dict(payload) and _member(cls, payload)) or cls
        raise SerializationError(f"{named.__name__}{found[0]} {found[1]}")


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def _unknown(keys: Iterable[str], known: Iterable[str], noun: str) -> str:
    """The reason some of ``keys`` are refused, or ``""`` when none is."""
    extra = sorted(set(keys).difference(known))
    if not extra:
        return ""
    return f"has unknown {noun} {extra}; expected a subset of {sorted(known)}"


def _violation(
    cls: type, payload, also: Tuple[str, ...] = (), strict: bool = False
) -> Optional[Tuple[str, str]]:
    """Why ``payload`` cannot load as ``cls``, or ``None`` when it can.

    The answer is ``(path, reason)``: the JSON path below ``payload``
    (``""``, ``".faults[2].probability"``) and what is wrong there.
    """
    if not isinstance(payload, dict):
        return "", f"must be a JSON object, got {type(payload).__name__}"
    member = _member(cls, payload)
    if member is None:
        return "", (
            f"has unknown {cls.__tag__} {_brief(payload.get(cls.__tag__))}; "
            f"expected one of {tuple(cls.__members__)}"
        )
    if member is not cls:
        also = (cls.__tag__,)
    fields = member.__wire__
    present = 0
    for name, is_valid, _, _, _, has_default, locate in fields:
        if name in payload:
            present += 1
            value = payload[name]
            if not is_valid(value):
                path, reason = (locate and locate(value)) or (
                    "",
                    f"has invalid value {_brief(value)}",
                )
                return f".{name}{path}", reason
        elif strict or not has_default:
            return "", f"is missing field {name!r}"
    if len(payload) > present + sum(key in payload for key in also):
        names = [field.name for field in fields]
        return "", _unknown(set(payload).difference(also), names, "fields")
    return None


class _Refused(ReproError):
    """``(path, cause)``: a constructor's error at a document's JSON path."""


def _build(cls: type, payload: dict, path: str = ""):
    """Construct ``cls``, found at ``path`` of its document, from a
    payload :func:`_violation` accepted."""
    member = _member(cls, payload)
    try:
        return member(
            **{
                name: load_value(payload[name])
                for name, _, load_value, _, _, _, _ in member.__wire__
                if name in payload
            }
        )
    except ReproError as exc:
        below, cause = exc.args if isinstance(exc, _Refused) else ("", exc)
        raise _Refused(path + below, cause) from cause


def load(
    cls: type,
    payload,
    where: Optional[str] = None,
    error: Type[ReproError] = SerializationError,
    also: Tuple[str, ...] = (),
):
    """Check a JSON-decoded value against ``cls`` and rebuild it.

    Each present field must pass its :class:`Shape` check, a field the
    dataclass gives a default may be absent, and a key that is neither
    a field nor named in ``also`` is rejected. For a :class:`Tagged`
    family base the member is chosen by the tag key.

    Args:
        cls: a wire record, or a :class:`Tagged` family base.
        payload: the decoded JSON value, of any type.
        where: what is being loaded, as the head of a message —
            ``"fault plan"``, ``"status file runs/a/status.json"``
            (default: the class name). The violating JSON path is
            appended: ``fault plan.faults[2].probability has invalid
            value 'high'``.
        error: what to raise — ``ConfigurationError`` for documents a
            user writes (fault plans, specs), ``SerializationError``
            for state the program wrote (statuses, checkpoints,
            histories, snapshots, traces).
        also: keys allowed beside the fields (a ``schema`` marker,
            derived aggregates a dump appends).

    Raises:
        error: on the first violation, or when a constructor refuses
            the loaded values (``fault plan.faults[1]: probability
            must be in (0, 1], got 2.0``).
    """
    if where is None:
        where = cls.__name__
    found = _violation(cls, payload, also)
    if found is not None:
        raise error(f"{where}{found[0]} {found[1]}")
    try:
        return _build(cls, payload)
    except _Refused as exc:
        raise error("{}{}: {}".format(where, *exc.args)) from exc.args[1]


def reject_unknown(
    payload: dict,
    known: Iterable[str],
    where: str,
    error: Type[ReproError],
    noun: str = "fields",
) -> None:
    """Raise ``error`` if object ``payload`` has a key outside ``known``.

    The unknown-key rule of :func:`load` (same ``where``/``error``),
    for an object whose allowed keys are another class's fields (a
    spec's override sections); ``noun`` is what the message calls a key.
    """
    reason = _unknown(payload, known, noun)
    if reason:
        raise error(f"{where} {reason}")


def _decode(text: str, where, error: Type[ReproError]) -> dict:
    """The JSON object ``text`` holds, or ``error`` naming ``where``."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(
            f"{where} must hold a JSON object, got {type(payload).__name__}"
        )
    return payload


def read_json(path, error: Type[ReproError]) -> dict:
    """Read one JSON document (an object) from ``path``.

    Raises:
        FileNotFoundError: no file at ``path`` — absence often has a
            meaning (a pending run, no checkpoint yet), so it is left
            to the caller.
        error: naming ``path``, when the file cannot be read, is not
            valid JSON (torn, nested too deeply) or is not an object.
    """
    try:
        with open(os.fspath(path), encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot read: {exc}") from exc
    return _decode(text, path, error)


def _float_text(value: float) -> str:
    """A float as ``json.dumps`` writes it: ``repr``, or ``NaN``,
    ``Infinity``, ``-Infinity``."""
    if -math.inf < value < math.inf:
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


_EXACT_TEXT: Dict[type, Callable[[object], str]] = {
    int: int.__repr__,
    float: _float_text,
    str: encode_basestring_ascii,
    bool: lambda value: "true" if value else "false",
}


def _text_of(hint, dump_value) -> Tuple[Callable[[object], str], Optional[type]]:
    """A field's ``json.dumps``, and the scalar type (``Optional`` or
    not) whose values it writes itself. Any other value — ``None``, a
    bool or numpy scalar in a number field, an ``object()`` — goes
    through ``json.dumps``, so it raises where ``json.dumps(record.
    to_dict())`` raises."""
    args = get_args(hint) if get_origin(hint) is Union else (hint,)
    args = [arg for arg in args if arg is not type(None)]
    scalar = args[0] if len(args) == 1 and args[0] in _EXACT_TEXT else None
    if scalar is None:
        return (lambda value: json.dumps(dump_value(value))) if dump_value else json.dumps, None
    exact = _EXACT_TEXT[scalar]
    return (lambda value: exact(value) if type(value) is scalar else json.dumps(value)), scalar


def _column(values, rows: int, name: str) -> list:
    """A batch column as a list of ``rows`` Python values."""
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if len(values) != rows:
        raise ValueError(f"column {name!r} has {len(values)} values for {rows} rows")
    return values


def _compile_line(text: str, fields: list) -> Callable[[object], str]:
    """``record -> record's JSON line, newline included``, generated as
    one function so each field's attribute read and type test are
    inline (the field names are identifiers: dataclass fields)."""
    scope, terms = {"TEXT": text}, []
    for i, (name, _, to_text, scalar) in enumerate(fields):
        scope[f"t{i}"] = to_text
        if scalar is None:
            terms.append(f"t{i}(record.{name})")
        else:
            scope[f"s{i}"], scope[f"e{i}"] = scalar, _EXACT_TEXT[scalar]
            terms.append(f"e{i}(v) if type(v := record.{name}) is s{i} else t{i}(v)")
    exec(f"def line(record):\n    return TEXT % ({', '.join(terms)},)\n", scope)
    return scope["line"]


class LineTemplate:
    """A wire record's JSON line as one ``%``-template.

    Compiled once from the record's fields when the class is defined;
    ``line(record)`` equals ``json.dumps(record.to_dict()) + "\\n"`` (for a
    :class:`Tagged` member; :func:`dump` for any other record) byte for
    byte (strings through ``encode_basestring_ascii``, floats through
    ``float.__repr__``, non-scalar fields through ``json.dumps`` of
    their :func:`dump`), without building the dict.
    """

    def __init__(self, cls: type) -> None:
        hints, quote = get_type_hints(cls), encode_basestring_ascii
        self.cls = cls
        # A Tagged member's line leads with its tag; each key but the
        # line's first is preceded by ", ".
        tagged = issubclass(cls, Tagged)
        self.head = "{%s: %s" % (quote(cls.__tag__), quote(cls.kind)) if tagged else "{"
        self.head = self.head.replace("%", "%%")
        self.fields = [
            (name, ", " * (tagged or i > 0) + f"{quote(name)}: ", *_text_of(hints[name], dump_value))
            for i, (name, _, _, dump_value, _, _, _) in enumerate(cls.__wire__)
        ]
        text = self.head + "".join(key + "%s" for _, key, _, _ in self.fields) + "}\n"
        self.line = _compile_line(text, self.fields)

    def row(self, rows: int, scalars: dict, columns: dict) -> Tuple[str, list]:
        """This class's part of a batch row: the template with every
        scalar field written in, and one list of slot values per column
        (:func:`batch_lines`)."""
        # The constructor checks the field names and supplies defaults.
        known = self.cls(**scalars, **dict.fromkeys(columns))
        template, slots = self.head, []
        for name, key, text, scalar in self.fields:
            if name not in columns:
                template += key + text(getattr(known, name)).replace("%", "%%")
                continue
            values = _column(columns[name], rows, name)
            if scalar not in (int, float, str) or not set(map(type, values)) <= {scalar}:
                values = list(map(text, values))
            elif scalar is str:
                values = list(map(encode_basestring_ascii, values))
            elif scalar is float and not all(map(math.isfinite, values)):
                values = list(map(_float_text, values))
            template += key + "%s"
            slots.append(values)
        return template + "}\n", slots


def batch_records(rows: int, parts: Iterable[Tuple[type, dict, dict]]) -> Iterator:
    """The records a column batch describes, in order.

    Row ``i`` holds one record per ``(cls, scalars, columns)`` part, in
    part order; its fields are ``scalars[name]`` and
    ``columns[name][i]`` (a list or numpy array of ``rows`` values; an
    array is read through ``tolist``).
    """
    parts = [
        (cls, scalars, {name: _column(v, rows, name) for name, v in columns.items()})
        for cls, scalars, columns in parts
    ]
    for row in range(rows):
        for cls, scalars, columns in parts:
            yield cls(**scalars, **{name: v[row] for name, v in columns.items()})


def batch_lines(rows: int, parts: Iterable[Tuple[type, dict, dict]]) -> str:
    """The JSON lines of :func:`batch_records`, formatted from the
    columns by each class's :class:`LineTemplate` without building one
    record per row: one ``%`` over the row template repeated ``rows``
    times. Exact ints and finite floats fill their slots as they are."""
    template, slots = "", []
    for cls, scalars, columns in parts:
        text, values = cls.__line__.row(rows, scalars, columns)
        template += text
        slots += values
    return (template * rows) % tuple(chain.from_iterable(zip(*slots)))


class read_jsonl:
    """A JSONL stream, iterated as ``(line_number, parse(payload))`` per
    non-blank line; every payload must be a JSON object.

    A malformed *final* line — what a writer killed mid-line leaves —
    ends the iteration instead of raising and is kept in :attr:`torn`;
    the caller decides whether to tolerate it. A ``.gz`` stream that
    ends early (a writer killed between flushes) is the same torn tail,
    after the last complete line; its text is lost, so :attr:`torn` is
    ``""``.

    Args:
        source: a path (``str``, ``bytes`` or path-like; ``.gz``-aware)
            or an iterable of lines.
        error: what to raise, as for :func:`load`.
        name: what messages call the stream (default: the path).
        parse: what the caller makes of a payload; a ``ReproError`` it
            raises makes the line malformed.

    Attributes:
        torn: ``None`` until an iteration ends at a malformed final
            line, then that line's text.
        torn_error: what a reader that tolerates no tail raises then.

    Raises:
        error: while iterating, ``<name>:<line> ...`` for a line, not
            the last, that is not valid JSON (garbage, nested too
            deeply), not an object, or refused by ``parse``; and
            ``<name> is not a gzip file`` for a ``.gz`` path that is not.
    """

    def __init__(
        self,
        source,
        error: Type[ReproError],
        name: Optional[str] = None,
        parse: Callable[[dict], object] = dict,
    ) -> None:
        self.source, self.error, self.parse = source, error, parse
        self.opens = isinstance(source, (str, bytes, os.PathLike))
        self.name = name or (os.fsdecode(source) if self.opens else "<lines>")
        self.torn: Optional[str] = None
        self.torn_error: Optional[ReproError] = None

    def __iter__(self) -> Iterator[Tuple[int, object]]:
        from repro.obs.sinks import open_trace_file

        lines, error, bad, number = self.source, self.error, None, 0
        with contextlib.ExitStack() as stack:
            try:
                if self.opens:
                    lines = stack.enter_context(open_trace_file(lines))
                for number, line in enumerate(lines, start=1):
                    text = line.strip()
                    if not text:
                        continue
                    if bad is not None:
                        raise error(f"{bad[1]} (mid-stream, not a torn tail)")
                    where = f"{self.name}:{number}"
                    try:
                        payload = _decode(text, where, error)
                        try:
                            value = self.parse(payload)
                        except ReproError as exc:
                            raise error(f"{where}: {exc}") from exc
                    except error as exc:
                        bad = text, exc
                    else:
                        yield number, value
            except (EOFError, zlib.error) as exc:
                torn = error(f"{self.name}:{number + 1} compressed stream is torn: {exc}")
                bad = bad or ("", torn)
            except gzip.BadGzipFile as exc:
                raise error(f"{self.name} is not a gzip file: {exc}") from exc
        self.torn, self.torn_error = bad or (None, None)


class derived(property):
    """A property a :class:`Document` dumps beside its fields; a load
    ignores it (it recomputes), so a file cannot contradict itself."""


class Document:
    """Base of a wire record that is a whole JSON document.

    A subclass is decorated like any record and declares up to four
    class attributes; the six methods follow from them and the fields.

    Attributes:
        noun: what messages call the document (``"fault plan"``).
        error: what a bad one raises — ``ConfigurationError`` for
            documents a user writes, ``SerializationError`` for state
            the program wrote.
        schema: the ``"schema"`` marker it carries first, if any.
        format: the ``json.dumps`` keyword arguments of its text form.
    """

    noun: ClassVar[str]
    error: ClassVar[Type[ReproError]] = SerializationError
    schema: ClassVar[Optional[str]] = None
    format: ClassVar[dict] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__derived__ = tuple(
            name for name, v in vars(cls).items() if isinstance(v, derived)
        )

    def to_dict(self) -> dict:
        """JSON-plain form: marker, fields, :class:`derived` values."""
        payload = {} if self.schema is None else {"schema": self.schema}
        payload.update(dump(self))
        for name in self.__derived__:
            payload[name] = getattr(self, name)
        return payload

    def to_json(self) -> str:
        """:meth:`to_dict` as JSON text."""
        return json.dumps(self.to_dict(), **self.format)

    @classmethod
    def from_dict(cls, payload, where: Optional[str] = None):
        """Check ``payload`` and rebuild the document (:func:`load`).

        ``where`` heads every message (default: the noun); raises
        ``cls.error``, never anything else.
        """
        where, also = where or cls.noun, cls.__derived__
        if cls.schema is not None:
            also += ("schema",)
            marker = payload.get("schema") if _is_dict(payload) else cls.schema
            if marker != cls.schema:
                raise cls.error(
                    f"{where} is not a {cls.schema} document: "
                    f"schema={_brief(marker)}"
                )
        return load(cls, payload, where, cls.error, also)

    @classmethod
    def from_json(cls, text: str):
        """Rebuild the document from :meth:`to_json` text."""
        return cls.from_dict(_decode(text, cls.noun, cls.error))

    @classmethod
    def load(cls, path):
        """Read the document from a file (:func:`read_json`)."""
        return cls.from_dict(read_json(path, cls.error), f"{cls.noun} {path}")

    def save(self, path) -> None:
        """Write :meth:`to_json` and a newline to ``path``, atomically."""
        write_atomic(path, self.to_json() + "\n")


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp + fsync + ``os.replace``).

    The temporary file lives in the destination directory so the final
    ``os.replace`` stays within one filesystem; a crash or failure at
    any point leaves the previous file (or nothing) and no ``*.tmp``
    sibling.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
