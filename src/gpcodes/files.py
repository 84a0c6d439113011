"""On-disk formats: JSON code descriptions and plain-text symbol arrays.

A code description is a JSON object with a ``kind`` of ``gpc``,
``epc-g1``, ``epc-h2`` or ``epc-h3`` plus the shape fields of that
kind.  Fields serialize as ``{"w": ..., "modulus_hex": ..., "alpha":
...}`` with the modulus packed low-bit-first (bit i = coefficient of
x^i); when omitted, a sensible default field for the shape is chosen.
The parsed :class:`CodeSpec` encodes and decodes arrays of its code.

Array files are line-oriented text: a header ``m n w`` (1 <= w <= 63)
followed by m rows of n whitespace-separated hex symbols, with ``?``
marking an erased cell.
"""

from __future__ import annotations

import json

from . import epc, gpc
from .epc import (EpcShape, LinearCode, build_h2, build_h3, build_optimal_g1,
                  distance_bound)
from .fields import GF, MAX_WIDTH, field_with_order
from .gpc import GpcParams, SymbolArray, UncorrectableError


class SpecFileError(ValueError):
    """Malformed or inconsistent code description."""


def field_from_json(obj: dict) -> GF:
    try:
        w, alpha = obj["w"], obj.get("alpha", 2)
        # JSON integers only: not a float, nor a bool (JSON true)
        if type(w) is not int or type(alpha) is not int:
            raise TypeError("'w' and 'alpha' must be integers")
        modulus = None
        if "modulus_hex" in obj:
            if not isinstance(obj["modulus_hex"], str):
                raise TypeError("'modulus_hex' must be a string")
            modulus = int(obj["modulus_hex"], 16)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecFileError(f"bad field description: {exc}") from exc
    try:
        return GF(w, modulus, alpha)
    except ValueError as exc:
        raise SpecFileError(str(exc)) from exc


class CodeSpec:
    """A parsed code description, and the codec of its kind.

    ``params`` is set for the array codes (``gpc``, ``epc-g1``) and
    ``linear`` for the flat ones (``epc-h2``, ``epc-h3``); ``shape``
    carries the extended-product shape when the kind implies one, and
    ``bound`` its distance upper bound (:func:`~gpcodes.epc.distance_bound`),
    or None with no shape; a shape with no admissible rectangle raises
    ``ValueError`` here.  This is the one place that tells the two
    families apart: ``field``, ``m`` and ``n`` are the code's field and
    array shape for every kind, read from the code it holds, and
    :meth:`encode` and
    :meth:`decode` take and return m x n arrays
    (:class:`~gpcodes.gpc.SymbolArray`) for every kind; :meth:`decode`
    checks the array's shape against the code's before any decode.
    They run ``gpc.encode`` and ``gpc.decode_iterative``, or
    ``epc.lc_encode`` and ``epc.lc_erasure_decode`` on the array read
    row by row, each looked up on its module at call time.
    """

    def __init__(self, kind: str, params: GpcParams | None = None,
                 linear: LinearCode | None = None,
                 shape: EpcShape | None = None):
        self.kind, self.params, self.linear, self.shape = (
            kind, params, linear, shape)
        code = linear if params is None else params
        self.field, self.m, self.n = code.field, code.m, code.n
        self.bound = None if shape is None else distance_bound(shape)[0]

    def encode(self, data: list[int]) -> SymbolArray:
        """The codeword array whose data cells hold ``data`` in order."""
        if self.params is not None:
            return gpc.encode(data, self.params)
        return self._array(epc.lc_encode(data, self.linear))

    def decode(self, arr: SymbolArray) -> SymbolArray:
        """``arr`` with its erased cells recovered.

        Raises ``ValueError`` when ``arr`` is not m x n.  Raises
        :class:`~gpcodes.gpc.ContradictionError`, with the unresolved
        (row, col) cells as ``remaining``, when the survivors contradict
        the code.  A flat code raises its base class
        :class:`~gpcodes.gpc.UncorrectableError` on a pattern beyond its
        reach, where a gpc decode returns those cells still erased.
        """
        gpc._check_shape(arr, self.m, self.n)
        if self.params is not None:
            return gpc.decode_iterative(arr, self.params)
        erased = {r * self.n + c for r, c in arr.erased_positions()}
        try:
            word = epc.lc_erasure_decode(arr.flatten(), erased, self.linear)
        except UncorrectableError as exc:
            raise type(exc)(str(exc), remaining=frozenset(
                divmod(j, self.n) for j in exc.remaining)) from exc
        return self._array(word)

    def _array(self, word: list[int]) -> SymbolArray:
        return SymbolArray([word[i:i + self.n]
                            for i in range(0, len(word), self.n)])


def _require(obj: dict, keys: list[str], kind: str) -> list[int]:
    missing = [k for k in keys if k not in obj]
    if missing:
        raise SpecFileError(f"kind {kind!r} needs fields {missing}")
    out = []
    for k in keys:
        v = obj[k]
        if type(v) is not int:     # not a float, nor a bool (JSON true)
            raise SpecFileError(f"field {k!r} must be an integer")
        out.append(v)
    return out


def parse_code_spec(obj: dict) -> CodeSpec:
    if not isinstance(obj, dict):
        raise SpecFileError("top level must be a JSON object")
    kind = obj.get("kind")
    field = field_from_json(obj["field"]) if "field" in obj else None
    try:
        if kind == "gpc":
            m, n, k = _require(obj, ["m", "n", "k"], kind)
            s = obj.get("s")
            u = obj.get("u")
            if not all(isinstance(v, list)
                       and all(type(x) is int for x in v) for v in (s, u)):
                raise SpecFileError("kind 'gpc' needs integer lists 's' and 'u'")
            if field is None:
                field = field_with_order(max(m, n))
            params = GpcParams(m=m, n=n, k=k, s=tuple(s), u=tuple(u),
                               field=field)
            return CodeSpec(kind, params=params.check())
        if kind == "epc-g1":
            m, v, n, h = _require(obj, ["m", "v", "n", "h"], kind)
            params = build_optimal_g1(m, v, n, h, field)
            return CodeSpec(kind, params=params, shape=EpcShape(m, v, n, h, 1))
        if kind in ("epc-h2", "epc-h3"):
            m, n = _require(obj, ["m", "n"], kind)
            code = (build_h2 if kind == "epc-h2" else build_h3)(m, n, field)
            return CodeSpec(kind, linear=code, shape=code.shape)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, SpecFileError):
            raise
        raise SpecFileError(str(exc)) from exc
    raise SpecFileError(
        f"unknown kind {kind!r}; expected gpc, epc-g1, epc-h2 or epc-h3")


def _read_text(path: str) -> str:
    try:
        with open(path) as fp:
            return fp.read()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc


def load_code_spec(path: str) -> CodeSpec:
    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"{path}: invalid JSON: {exc}") from exc
    return parse_code_spec(obj)


def array_to_text(arr: SymbolArray, w: int) -> str:
    lines = [f"{arr.m} {arr.n} {w}"]
    for vals, mask in zip(arr.values, arr.erased):
        lines.append(" ".join("?" if e else f"{v:x}"
                              for v, e in zip(vals, mask)))
    return "\n".join(lines) + "\n"


def _parse_symbol(tok: str, limit: int, w: int) -> int:
    # One hex symbol below limit = 2^w.
    try:
        v = int(tok, 16)
    except ValueError as exc:
        raise SpecFileError(f"bad symbol {tok!r}") from exc
    if not 0 <= v < limit:
        raise SpecFileError(f"symbol {tok!r} out of range for w={w}")
    return v


def parse_array_text(text: str) -> tuple[SymbolArray, int]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SpecFileError("empty array file")
    header = lines[0].split()
    if len(header) != 3:
        raise SpecFileError("array header must be 'm n w'")
    try:
        m, n, w = (int(x) for x in header)
    except ValueError as exc:
        raise SpecFileError(f"bad array header: {exc}") from exc
    if m < 1 or n < 1:
        raise SpecFileError(f"array shape {m}x{n} must be at least 1x1")
    if not 1 <= w <= MAX_WIDTH:
        raise SpecFileError(f"array width w={w} must be in [1, {MAX_WIDTH}]")
    if len(lines) - 1 != m:
        raise SpecFileError(f"expected {m} rows, found {len(lines) - 1}")
    values, mask, limit = [], [], 1 << w
    for ln in lines[1:]:
        tokens = ln.split()
        if len(tokens) != n:
            raise SpecFileError(f"expected {n} symbols per row, got {len(tokens)}")
        values.append([0 if tok == "?" else _parse_symbol(tok, limit, w)
                       for tok in tokens])
        mask.append([tok == "?" for tok in tokens])
    return SymbolArray(values, mask), w


def read_array(path: str) -> tuple[SymbolArray, int]:
    return parse_array_text(_read_text(path))


def read_symbols(path: str, w: int) -> list[int]:
    """Whitespace-separated hex data symbols (for the encoder)."""
    limit = 1 << w
    return [_parse_symbol(tok, limit, w) for tok in _read_text(path).split()]
