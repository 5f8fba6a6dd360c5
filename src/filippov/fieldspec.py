"""Field-specification files: a hand-editable text format plus a JSON
encoding, both describing the degree, the four coefficient tables and
optional analysis options.  Serialization uses 17 significant digits so a
double survives a round trip bit-for-bit.

Each option is declared once, in OPTIONS.  Option.read reads the text line
`window -2 2 -2 2`, the JSON member `"window": [-2, 2, -2, 2]` and the flag
`--window=-2,2,-2,2`; a malformed value or unknown key is a FieldSpecError.

FieldSpec.to_field returns one PiecewiseField per degree and coefficient
rows, held while it stays among the FIELD_CACHE fields used last (_field).
Every cache of the package sits on a field or its polynomials (generated
right-hand sides, Horner evaluators, roots on D, derived polynomials, the
compactified field), so a spec parsed again in the same process, as each
CLI call does, reuses all of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

from .errors import FieldSpecError
from .polys import PiecewiseField, vf

TABLE_NAMES = ("P1", "Q1", "P2", "Q2")
# fields that to_field keeps alive: the specs of one portrait-and-flow run
# of the corpus, with room for one more
FIELD_CACHE = 8


def transition(name: str) -> tuple[str, int] | None:
    """(family, parameter) of regularize.make_transition for a phi name,
    'bump' or 'smoothstepN' with N >= 1; None for any other name."""
    order = name[len("smoothstep"):]
    if name == "bump":
        return "bump", 0
    if name.startswith("smoothstep") and order.isdecimal() and int(order):
        return "smoothstep", int(order)
    return None


def _read(kind: type, value) -> Any:
    """A text token or a JSON scalar as kind; an int must be whole."""
    if type(value) not in (str, int, float) or \
            kind is int and type(value) is float and not value.is_integer():
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class Option:
    """count values of type kind (a list of any length when count is None),
    written metavar, that keep check, which rule states."""

    name: str
    count: int | None
    kind: type
    metavar: str
    rule: str = ""
    check: Callable[[Any], Any] = lambda value: True

    def read(self, values) -> Any:
        """The value from a list of text tokens, JSON scalars or the
        comma-separated parts of a flag: bare for one value, else a tuple
        (a list when count is None)."""
        if not isinstance(values, list) or \
                self.count not in (None, len(values)):
            raise FieldSpecError(f"{self.name} takes {self.metavar}, "
                                 f"not {values!r}")
        try:
            vals = [_read(self.kind, v) for v in values]
        except ValueError as exc:
            raise FieldSpecError(f"{self.name}: {exc}") from None
        value = vals[0] if self.count == 1 else \
            tuple(vals) if self.count else vals
        if not self.check(value):
            raise FieldSpecError(f"{self.name} must be {self.rule}, "
                                 f"not {values!r}")
        return value


# in the order of the text format
OPTIONS = {o.name: o for o in (
    Option("window", 4, float, "X0,X1,Y0,Y1", "x0 < x1 and y0 < y1",
           lambda w: w[0] < w[1] and w[2] < w[3]),
    # epsilon_sweep checks each epsilon
    Option("eps", None, float, "E1,E2,..."),
    Option("phi", 1, str, "bump|smoothstepN",
           "bump or smoothstepN with N >= 1", transition),
    Option("seed", 2, float, "X,Y"),
    Option("horizon", 1, float, "T", "finite and > 0",
           lambda h: math.isfinite(h) and h > 0),
)}
_DEGREE = Option("degree", 1, int, "one int")


def _row(values) -> tuple[tuple[int, int], float]:
    """A coefficient row [i, j, value] of either encoding."""
    try:
        if not isinstance(values, list) or len(values) != 3:
            raise ValueError("rows must be [i, j, value]")
        return (_read(int, values[0]), _read(int, values[1])), \
            _read(float, values[2])
    except ValueError as exc:
        raise FieldSpecError(f"row {values!r}: {exc}") from None


@dataclass
class FieldSpec:
    degree: int
    tables: dict[str, dict[tuple[int, int], float]]
    window: tuple[float, float, float, float] | None = None
    eps: list[float] = field(default_factory=list)
    phi: str | None = None
    seed: tuple[float, float] | None = None
    horizon: float | None = None

    def __post_init__(self):
        if self.degree < 0:
            raise FieldSpecError("degree must be nonnegative")
        for name in TABLE_NAMES:
            if name not in self.tables:
                raise FieldSpecError(f"missing table {name}")
        for name, table in self.tables.items():
            for (i, j) in table:
                if min(i, j) < 0 or i + j > self.degree:
                    raise FieldSpecError(
                        f"{name}: entry ({i}, {j}) outside i, j >= 0, "
                        f"i + j <= degree {self.degree}")
        if not any(v for t in self.tables.values()
                   for (i, j), v in t.items() if i + j == self.degree):
            raise FieldSpecError(
                f"no nonzero coefficient of total degree {self.degree}")
        # zero coefficients are not written, so specs compare without them
        self.tables = {name: {k: v for k, v in self.tables[name].items()
                              if v != 0.0} for name in TABLE_NAMES}

    def to_field(self) -> PiecewiseField:
        """The piecewise field of the spec, one object per degree and
        coefficient rows (_field): a second spec with the same rows
        returns the field built for the first, with its caches."""
        return _field(self.degree, *(tuple(self.tables[name].items())
                                     for name in TABLE_NAMES))

    def options(self) -> dict[str, Any]:
        """The options set (an empty eps list is unset), in OPTIONS order."""
        return {name: getattr(self, name) for name in OPTIONS
                if getattr(self, name) not in (None, [])}


@lru_cache(maxsize=FIELD_CACHE)
def _field(degree: int, *rows) -> PiecewiseField:
    """The field of degree whose tables P1, Q1, P2, Q2 hold rows, the
    ((i, j), value) pairs of each in the order of the spec.  The key keeps
    that order, as the sums of a product of polynomials run in it, so a
    field shared by two specs is the one each would build."""
    P1, Q1, P2, Q2 = map(dict, rows)
    return PiecewiseField(vf(P1, Q1, degree), vf(P2, Q2, degree), degree)


def _fmt(v: float) -> str:
    return "%.17g" % v


def serialize_text(spec: FieldSpec) -> str:
    lines = [f"degree {spec.degree}"]
    for name, value in spec.options().items():
        values = value if isinstance(value, (tuple, list)) else [value]
        lines.append(" ".join([name, *(v if isinstance(v, str) else _fmt(v)
                                       for v in values)]))
    for name in TABLE_NAMES:
        lines.append(f"{name}:")
        lines += [f"{i} {j} {_fmt(v)}"
                  for (i, j), v in sorted(spec.tables[name].items())]
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> FieldSpec:
    degree = None
    tables: dict = {name: {} for name in TABLE_NAMES}
    options: dict[str, Any] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *values = parts = line.split()
        try:
            if line.endswith(":"):
                current = line[:-1].strip()
                if current not in TABLE_NAMES:
                    raise FieldSpecError(f"unknown table {current!r}")
            elif key == "degree":
                degree, current = _DEGREE.read(values), None
            elif key in OPTIONS:
                options[key], current = OPTIONS[key].read(values), None
            elif current is not None:
                k, v = _row(parts)
                tables[current][k] = v
            else:
                raise FieldSpecError(f"unexpected line {line!r}")
        except FieldSpecError as exc:
            raise FieldSpecError(f"line {lineno}: {exc}") from None
    if degree is None:
        raise FieldSpecError("missing 'degree' line")
    return FieldSpec(degree, tables, **options)


def serialize_json(spec: FieldSpec) -> str:
    d: dict = {name: [[i, j, v] for (i, j), v in sorted(t.items())]
               for name, t in spec.tables.items()}
    d["degree"] = spec.degree
    options = {name: list(v) if isinstance(v, tuple) else v
               for name, v in spec.options().items()}
    if options:
        d["options"] = options
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


def parse_json(text: str) -> FieldSpec:
    """A JSON spec: an option of one value is bare, any other a list."""
    try:
        d = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FieldSpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(d, dict) or "degree" not in d:
        raise FieldSpecError("JSON spec must be an object with 'degree'")
    options = d.get("options", {})
    if set(d) - {"degree", "options", *TABLE_NAMES} \
            or not isinstance(options, dict) or set(options) - set(OPTIONS) \
            or not all(isinstance(d.get(n, []), list) for n in TABLE_NAMES):
        raise FieldSpecError(
            f"JSON spec keys are 'degree', the lists of rows {TABLE_NAMES} "
            f"and an 'options' object with keys {tuple(OPTIONS)}")
    tables = {name: dict(map(_row, d.get(name, []))) for name in TABLE_NAMES}
    return FieldSpec(_DEGREE.read([d["degree"]]), tables, **{
        key: OPTIONS[key].read([v] if OPTIONS[key].count == 1 else v)
        for key, v in options.items()})


def parse(text: str) -> FieldSpec:
    """Dispatch on the leading character: '{' means JSON, otherwise the
    plain-text format."""
    return (parse_json if text.lstrip().startswith("{") else parse_text)(text)
