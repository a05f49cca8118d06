"""Table schemas and record (de)serialization.

Records follow the classic NSM encoding: all fixed-length columns are
packed first at schema-determined offsets, then each variable-length
column as a 2-byte length prefix plus payload.  Fixed-column updates
can therefore patch bytes in place at a statically known offset — the
access path that makes byte-granular change tracking (and hence IPA)
effective.

Each :class:`Schema` compiles one big-endian ``struct.Struct`` for its
fixed-width columns, so a record's fixed part packs and unpacks in one
call; the column types keep their own per-value codecs, which the
schema falls back to for validation errors and for one-column patches.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import SchemaError


class ColumnType:
    """Base class of column types; subclasses define packing."""

    #: Fixed byte width, or None for variable-length types.
    size: int | None = None
    #: ``struct`` format code of a fixed-width type.
    code: str | None = None

    def pack(self, value) -> bytes:
        """Serialize one value to its column bytes."""
        raise NotImplementedError

    def unpack(self, data: bytes):
        """Deserialize column bytes back to a value."""
        raise NotImplementedError


class Int32(ColumnType):
    """Signed 32-bit integer (the TPC ``NUMBER`` work-horse)."""

    size = 4
    code = "i"

    def pack(self, value) -> bytes:
        """Big-endian signed 32-bit encoding."""
        try:
            return int(value).to_bytes(4, "big", signed=True)
        except OverflowError as exc:
            raise SchemaError(f"{value} does not fit in Int32") from exc

    def unpack(self, data: bytes) -> int:
        """Decode a big-endian signed 32-bit value."""
        return int.from_bytes(data, "big", signed=True)


class Int64(ColumnType):
    """Signed 64-bit integer (LSNs, timestamps, balances in cents)."""

    size = 8
    code = "q"

    def pack(self, value) -> bytes:
        """Big-endian signed 64-bit encoding."""
        try:
            return int(value).to_bytes(8, "big", signed=True)
        except OverflowError as exc:
            raise SchemaError(f"{value} does not fit in Int64") from exc

    def unpack(self, data: bytes) -> int:
        """Decode a big-endian signed 64-bit value."""
        return int.from_bytes(data, "big", signed=True)


class Char(ColumnType):
    """Fixed-width string, space padded (TPC ``CHAR(n)``)."""

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise SchemaError("Char width must be positive")
        self.size = width
        self.code = f"{width}s"

    def pack(self, value) -> bytes:
        """Encode and space-pad to the fixed width."""
        encoded = str(value).encode("utf-8")
        if len(encoded) > self.size:
            raise SchemaError(f"string of {len(encoded)} bytes exceeds Char({self.size})")
        return encoded.ljust(self.size, b" ")

    def unpack(self, data: bytes) -> str:
        """Decode, stripping the space padding."""
        return data.rstrip(b" ").decode("utf-8")


class VarChar(ColumnType):
    """Variable-length string/bytes with a 2-byte length prefix."""

    size = None

    def __init__(self, max_length: int = 4096) -> None:
        self.max_length = max_length

    def pack(self, value) -> bytes:
        """Length-prefixed encoding of bytes or text."""
        encoded = value if isinstance(value, bytes) else str(value).encode("utf-8")
        if len(encoded) > self.max_length:
            raise SchemaError(
                f"value of {len(encoded)} bytes exceeds VarChar({self.max_length})"
            )
        return len(encoded).to_bytes(2, "big") + encoded

    def unpack(self, data: bytes) -> bytes:
        """The raw payload (length prefix already stripped)."""
        return bytes(data)


@dataclass(frozen=True)
class Column:
    name: str
    type: ColumnType


_U16 = struct.Struct(">H")


class Schema:
    """An ordered list of named, typed columns."""

    def __init__(self, columns: list[Column]) -> None:
        if not columns:
            raise SchemaError("a schema needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        self.columns = list(columns)
        self._index = {column.name: i for i, column in enumerate(columns)}
        #: ``(record_offset, type)`` of each fixed column, ``None`` for
        #: a variable-length one.
        self.fixed_fields: list = []
        cursor = 0
        for column in columns:
            if column.type.size is None:
                self.fixed_fields.append(None)
            else:
                self.fixed_fields.append((cursor, column.type))
                cursor += column.type.size
        self.fixed_size = cursor
        self._fixed_indexes = [
            i for i, field in enumerate(self.fixed_fields) if field is not None
        ]
        self._var_indexes = [
            i for i, field in enumerate(self.fixed_fields) if field is None
        ]
        self._struct = struct.Struct(
            ">" + "".join(columns[i].type.code for i in self._fixed_indexes)
        )
        #: ``(position in the fixed part, width)`` of each Char column.
        self._chars = [
            (position, columns[i].type.size)
            for position, i in enumerate(self._fixed_indexes)
            if isinstance(columns[i].type, Char)
        ]

    def __len__(self) -> int:
        return len(self.columns)

    def column_index(self, name: str) -> int:
        """Position of a column by name."""
        try:
            return self._index[name]
        except KeyError as exc:
            raise SchemaError(f"no column named {name!r}") from exc

    def fixed_offset(self, index: int) -> int:
        """Record offset of a fixed column; raises for variable columns."""
        field = self.fixed_fields[index]
        if field is None:
            raise SchemaError(
                f"column {self.columns[index].name!r} is variable-length"
            )
        return field[0]

    def pack(self, values) -> bytes:
        """Serialize one record from a value sequence (schema order)."""
        if len(values) != len(self.columns):
            raise SchemaError(
                f"{len(values)} values for {len(self.columns)} columns"
            )
        fields = list(map(values.__getitem__, self._fixed_indexes))
        for position, width in self._chars:
            encoded = str(fields[position]).encode("utf-8")
            if len(encoded) > width:
                return self._pack_by_column(values)
            fields[position] = encoded.ljust(width, b" ")
        try:
            fixed = self._struct.pack(*fields)
        except struct.error:
            # Not a plain in-range int: the column codecs convert it or
            # raise the column's own SchemaError.
            return self._pack_by_column(values)
        if not self._var_indexes:
            return fixed
        columns = self.columns
        return fixed + b"".join(
            [columns[i].type.pack(values[i]) for i in self._var_indexes]
        )

    def _pack_by_column(self, values) -> bytes:
        """:meth:`pack` one column codec at a time: the reference
        encoding, raising the first failing column's :class:`SchemaError`."""
        fixed = bytearray()
        var = bytearray()
        for column, value in zip(self.columns, values):
            packed = column.type.pack(value)
            if column.type.size is None:
                var += packed
            else:
                fixed += packed
        return bytes(fixed) + bytes(var)

    def unpack(self, data: bytes):
        """Deserialize one record into a value tuple."""
        unpacked = self._struct.unpack_from(data)
        if not self._chars and not self._var_indexes:
            return unpacked
        fixed = list(unpacked)
        for position, __ in self._chars:
            fixed[position] = fixed[position].rstrip(b" ").decode("utf-8")
        if not self._var_indexes:
            return tuple(fixed)
        values: list = [None] * len(self.columns)
        for position, i in enumerate(self._fixed_indexes):
            values[i] = fixed[position]
        cursor = self.fixed_size
        for i in self._var_indexes:
            (length,) = _U16.unpack_from(data, cursor)
            values[i] = bytes(data[cursor + 2 : cursor + 2 + length])
            cursor += 2 + length
        return tuple(values)

    def var_field_slice(self, data: bytes, index: int) -> tuple[int, int]:
        """``(payload_offset, payload_length)`` of a variable column."""
        if self.fixed_fields[index] is not None:
            raise SchemaError("var_field_slice on a fixed column")
        cursor = self.fixed_size
        for i in self._var_indexes:
            (length,) = _U16.unpack_from(data, cursor)
            if i == index:
                return cursor + 2, length
            cursor += 2 + length
        raise SchemaError("variable column not found")  # pragma: no cover
