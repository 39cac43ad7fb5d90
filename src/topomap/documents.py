"""Reading input documents: the file, its JSON, and the field checks.

Every field check is a classmethod of ``FieldError`` that raises the
class it is called on, so ``ScenarioError.integer(...)`` raises a
``ScenarioError`` and ``PlatformError.number(...)`` a ``PlatformError``.
The class alone decides the exit code.  ``DocumentError`` derives from
``FieldError`` and adds reading and decoding; its subclasses (the
scenario, targets, graph-syntax and platform-syntax errors) are input
errors, exit 2.  ``GraphError`` (the graph and its ``node_mapping``),
``MappingError`` and ``PlatformError`` derive from ``FieldError`` alone
and are validation errors, exit 3.  A document
that cannot be read or decoded (not UTF-8, not JSON, nested deeper than
the parser recurses, an integer literal longer than the interpreter
converts, not an object) fails with one line, and when it came from a
file the line names the file.
"""

from __future__ import annotations

import json
import math
from enum import Enum

# Message sizes stay below 2**53, the range in which every integer is an
# exact float, so that the MEMIF pool, which counts bytes in floats, starts
# every transfer from its exact size.
MAX_SIZE_BYTES = 2**53


def _named(where: str | tuple) -> str:
    """A field's name in an error: ``where`` itself, or a ``(template, *args)`` tuple formatted."""
    return where if isinstance(where, str) else where[0].format(*where[1:])


class FieldError(ValueError):
    """A field of the wrong type or out of range; each check returns the value it accepts.

    A check's ``where`` (``what`` for ``member``) names the field: a string,
    or a tuple of a ``str.format`` template and its arguments, formatted
    only when the check fails, so that a passing field formats nothing.
    """

    @classmethod
    def require(cls, doc: dict, key: str, where: str, kind: type | None = None):
        """``doc[key]``, which must be present and, if ``kind`` is given, of that type; ``where`` is a string."""
        if key not in doc:
            raise cls(f"{where}: missing required key {key!r}")
        return doc[key] if kind is None else cls.typed(doc[key], kind, ("{}.{}", where, key))

    @classmethod
    def typed(cls, value, kind: type, where: str | tuple):
        if not isinstance(value, kind):
            name = {dict: "an object", list: "a list", str: "a string"}[kind]
            raise cls(f"{_named(where)}: expected {name}, got {value!r}")
        return value

    @classmethod
    def known_keys(cls, doc: dict, known, where: str | tuple) -> dict:
        """``doc`` itself, if it has no key outside ``known``."""
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise cls(f"{_named(where)}: unknown keys {unknown}")
        return doc

    @classmethod
    def integer(cls, value, where: str | tuple, minimum: int | None) -> int:
        """An integer of at least ``minimum``, or of any sign if ``minimum`` is None."""
        # bool is an int subclass and must not pass as a count
        if isinstance(value, bool) or not isinstance(value, int) or minimum is not None and value < minimum:
            kind = "an" if minimum is None else "a positive" if minimum > 0 else "a non-negative"
            raise cls(f"{_named(where)} must be {kind} integer, got {value!r}")
        return value

    @classmethod
    def size(cls, value, where: str | tuple) -> int:
        """A message size in bytes: a positive integer below ``MAX_SIZE_BYTES``."""
        # an int skips both type tests
        if (
            value.__class__ is not int
            and (isinstance(value, bool) or not isinstance(value, int))
            or not 0 < value < MAX_SIZE_BYTES
        ):
            cls.integer(value, where, 1)  # raises unless a positive integer
            raise cls(f"{_named(where)} must be below {MAX_SIZE_BYTES} bytes, got {value!r}")
        return value

    @classmethod
    def side(cls, value, where: str | tuple) -> str:
        """``"hw"`` or ``"sw"``: the side of the hardware/software split a publisher or a measure is on."""
        if value not in ("hw", "sw"):
            raise cls(f"{_named(where)} must be 'hw' or 'sw', got {value!r}")
        return value

    @classmethod
    def member(cls, value, what: str | tuple, enum: type[Enum]):
        """The member of ``enum`` whose value is ``value``; an error lists the choices."""
        try:
            return enum(value)
        except ValueError:
            choices = ", ".join(m.value for m in enum)
            raise cls(f"unknown {_named(what)} {value!r} (choose from: {choices})") from None

    @classmethod
    def number(cls, value, where: str | tuple, upper: float = math.inf, positive: bool = False) -> float:
        """A finite number in [0, upper), or in (0, upper) if ``positive``."""
        # bool is an int subclass and must not pass as a number; a float skips both type tests
        if (
            value.__class__ is not float
            and (isinstance(value, bool) or not isinstance(value, (int, float)))
            or not 0 <= value < upper
            or positive and not value
        ):
            if upper == math.inf:
                kind = "a positive number" if positive else "a non-negative number"
            else:
                kind = f"a number in {'(' if positive else '['}0, {upper:g})"
            raise cls(f"{_named(where)} must be {kind}, got {value!r}")
        return float(value)


class DocumentError(FieldError):
    """Input the user must fix (exit 2): a document that cannot be read, decoded or typed, or a bad option."""

    what = "document"  # the kind named in the not-an-object message
    # set on an error about a whole document, one that cannot be read or decoded, until ``load`` names its file
    _unnamed_file = False

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)

    @classmethod
    def load(cls, path, parse, newline: str | None = None):
        """``parse`` of the UTF-8 text of the file ``path``; a failure to read or decode it names the file."""
        try:
            with open(path, "r", encoding="utf-8", newline=newline) as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise cls(f"{exc} in {str(path)!r}") from None
        try:
            return parse(text)
        except DocumentError as exc:
            if exc._unnamed_file:
                exc._unnamed_file = False
                exc.args = (f"{exc.args[0]} in {str(path)!r}",)
            raise

    @classmethod
    def decode(cls, text: str) -> dict:
        """The JSON object ``text`` holds."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            error = cls(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno)
        except (RecursionError, ValueError) as exc:
            # nested deeper than the parser recurses, or an integer literal
            # longer than sys.get_int_max_str_digits() allows
            error = cls(f"invalid JSON: {exc}")
        else:
            if isinstance(doc, dict):
                return doc
            error = cls(f"{cls.what} must be a JSON object")
        error._unnamed_file = True
        raise error
