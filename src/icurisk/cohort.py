"""Patient data model, CSV ingestion, and a seeded synthetic cohort generator.

A cohort is what the model reads of its rows: `WindowTables`, per patient
the worst score of each variable in each first-day window, plus event_hours
and died. `WindowTables` is the one rule that places rows in windows: it
folds rows in part by part, straight from the parsed blocks of a file
(`load_cohort`) or from the chunks of a RawCohort (`window_tables`), the
synthetic generator's rows in parallel columns. Patient filtering, the
feature matrix and the baseline features all read those tables.
"""

from __future__ import annotations

import copy
import csv
import io
import itertools
import json
import math
import os
import pickle
import re
import signal
import threading
import typing
import warnings
from dataclasses import dataclass

import numpy as np

OBSERVATIONS_HEADER = ("patient_id", "variable", "offset_minutes", "value")
OUTCOMES_HEADER = ("patient_id", "event_hours", "death_flag")

FIRST_DAY_MINUTES = 1440
MIN_STAY_HOURS = 24.0   # follow-up a patient needs to be kept: the first day

# Bytes of an observations file parsed at once; a block's temporaries take a few times this.
BLOCK_BYTES = 1 << 18
WINDOW_CHUNK_ROWS = 1 << 16   # rows of a RawCohort that `window_tables` folds at once
# Bytes of an observations file that warrant a range of their own (`_fold_in_ranges`).
_RANGE_BYTES = 4 << 20

# Day used to anchor the synthetic generator's prevalence calibration.
PREVALENCE_REFERENCE_DAY = 5

DEFAULT_REQUIRED_VARIABLES = ("heart_rate", "blood_pressure", "gcs")


class CohortError(ValueError):
    """Invalid cohort content (bad values, broken invariants)."""


class ParseError(CohortError):
    """Malformed CSV input; carries the 1-based line number and, from
    `load_cohort`, the file's path (None from a stream parser)."""

    def __init__(self, line_no, message, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no, self.message, self.path = line_no, message, path


@dataclass(eq=False)
class RawCohort:
    """Observations as parallel columns, plus two outcome columns: what the
    synthetic generator makes, `write_observations` and `write_outcomes`
    write, and `window_tables` folds.

    Row i is variable `vocabulary[variable[i]]` of patient
    `patient_ids[patient[i]]`, sampled `offset_minutes[i]` after admission
    with value `value[i]`. Rows are sorted by patient, then offset. Patient
    j left the ICU `event_hours[j]` after admission, dead if `died[j]`.
    """

    patient_ids: list[str]
    vocabulary: tuple[str, ...]
    patient: np.ndarray          # (rows,) int64 index into patient_ids
    variable: np.ndarray         # (rows,) int64 index into vocabulary
    offset_minutes: np.ndarray   # (rows,) int64
    value: np.ndarray            # (rows,) float64
    event_hours: np.ndarray      # (patients,) float64, finite and > 0
    died: np.ndarray             # (patients,) bool

    def __post_init__(self):
        self.patient = np.asarray(self.patient, dtype=np.int64)
        self.variable = np.asarray(self.variable, dtype=np.int64)
        self.offset_minutes = np.asarray(self.offset_minutes, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=float)
        self.event_hours = np.asarray(self.event_hours, dtype=float)
        self.died = np.asarray(self.died)
        n_rows = self.patient.size
        columns = (self.patient, self.variable, self.offset_minutes, self.value)
        if any(col.shape != (n_rows,) for col in columns):
            raise CohortError("observation columns must be 1-D and of equal length")
        if self.event_hours.shape != (self.n_patients,) or self.died.shape != (self.n_patients,):
            raise CohortError("event_hours and died must be 1-D with one entry per patient")
        if self.died.dtype != bool:
            raise CohortError(f"died must be bool, got {self.died.dtype}")
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise CohortError("vocabulary names must be distinct")
        bad = ~((self.event_hours > 0) & (self.event_hours < np.inf))   # NaN fails both
        if bad.any():
            j = int(np.argmax(bad))
            hours, pid = self.event_hours[j], self.patient_ids[j]
            raise CohortError(f"event_hours must be finite and > 0, got {hours} for {pid}")
        if n_rows == 0:
            return
        if not (
            0 <= self.patient.min() and self.patient.max() < len(self.patient_ids)
            and 0 <= self.variable.min() and self.variable.max() < len(self.vocabulary)
        ):
            raise CohortError("patient index or variable code out of range")
        if self.offset_minutes.min() < 0:
            raise CohortError(f"offset_minutes must be >= 0, got {self.offset_minutes.min()}")
        if not np.all(np.isfinite(self.value)):
            raise CohortError("non-finite observation value")
        back = _steps_back(self.patient, self.offset_minutes)
        if back.any():
            pid = self.patient_ids[self.patient[np.argmax(back) + 1]]
            raise CohortError(f"observations are not sorted by patient, then offset (at {pid})")

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    @property
    def variables(self) -> list[str]:
        """Sorted names of the variables with at least one row in this cohort."""
        counts = np.bincount(self.variable, minlength=len(self.vocabulary))
        return sorted(self.vocabulary[code] for code in np.flatnonzero(counts).tolist())

    @property
    def patients(self) -> dict[str, range]:
        """Each patient's row indices, in patient order."""
        bounds = np.searchsorted(self.patient, np.arange(self.n_patients + 1)).tolist()
        return {pid: range(a, b) for pid, a, b in zip(self.patient_ids, bounds, bounds[1:])}


class _Prepended(io.RawIOBase):
    """The bytes `head`, then the rest of `stream`. Closing it leaves
    `stream` open."""

    def __init__(self, head, stream):
        self._head = memoryview(head)
        self._stream = stream

    def readable(self):
        return True

    def readinto(self, buffer):
        if self._head:
            n = min(len(buffer), len(self._head))
            buffer[:n] = self._head[:n]
            self._head = self._head[n:]
            return n
        data = self._stream.read(len(buffer))
        buffer[: len(data)] = data
        return len(data)


def _check_stream(stream):
    if isinstance(stream, (str, bytes)):
        raise TypeError("expected a file-like object, not a path or raw string")
    if isinstance(stream, io.TextIOBase):
        raise TypeError("expected a binary stream, not a text stream; open the file with 'rb'")


def _text_lines(stream, head=b""):
    """`head`, then the rest of a binary stream, decoded as UTF-8 while it is
    read; bytes that are not UTF-8 become lone surrogates, which `_csv_rows`
    reports. The caller's stream is left open."""
    return io.TextIOWrapper(
        io.BufferedReader(_Prepended(head, stream)),
        encoding="utf-8", errors="surrogateescape", newline="",
    )


def _invalid_utf8(row):
    """The first byte of `row` that was not UTF-8 (see `_text_lines`), or None."""
    text = "".join(row)
    if text.isascii():
        return None
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return ord(text[exc.start]) - 0xDC00
    return None


def _csv_rows(lines, header, what, line_no=1):
    """(line number, row) for each CSV record of `lines`, from `_text_lines`.

    With `header`, the first record must equal it and is not yielded; with
    None, records are numbered from `line_no` on. A record holding bytes
    that were not UTF-8 raises a ParseError, as does a record `csv` rejects
    (a field over its size limit).
    """
    reader = csv.reader(lines)
    for line_no in itertools.count(line_no):
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise ParseError(line_no, str(exc)) from None
        if (byte := _invalid_utf8(row)) is not None:
            raise ParseError(line_no, f"invalid UTF-8 byte 0x{byte:02x}")
        if header is not None:
            if tuple(row) != header:
                raise ParseError(line_no, f"expected header {','.join(header)}")
            header = None
            continue
        yield line_no, row
    if header is not None:
        raise CohortError(f"no {what}")


class _LineBlocks:
    """A binary stream, or its next `size` bytes, read as blocks of whole
    lines: BLOCK_BYTES at a time, cut after the last newline. The last block
    may lack its final newline. After a block is declined, `rest()` gives
    that block and everything after it as text lines, for `_csv_rows`.
    """

    def __init__(self, stream, size=math.inf):
        _check_stream(stream)
        self._stream, self._left = stream, size
        self._block = self._carry = b""

    def __iter__(self):
        while data := self._stream.read(min(BLOCK_BYTES, self._left)):
            self._left -= len(data)
            data = self._carry + data
            cut = data.rfind(b"\n") + 1
            self._block, self._carry = data[:cut], data[cut:]
            if cut:
                yield self._block
        if self._carry:
            self._block, self._carry = self._carry, b""
            yield self._block

    def rest(self):
        return _text_lines(self._stream, self._block + self._carry)


_OBSERVATIONS_HEADER_LINE = ",".join(OBSERVATIONS_HEADER).encode() + b"\n"
# The vectorised parser leaves rows with a longer field to the row loop,
# which also enforces csv's field size limit.
_MAX_FIELD_BYTES = 64
_MIX = np.uint64(0x9E3779B97F4A7C15)   # odd multiplier of the field hash
_SEPARATORS = np.array([ord(","), ord(","), ord(","), ord("\n")], dtype=np.uint8)


def _each_byte(byte):
    return np.uint64(int.from_bytes(bytes([byte]) * 8, "little"))


# Word-wise constants of the field, digit and decimal parsers. Blocks are
# ASCII, so no byte has its high bit set and adding 0x76 or 0x7f to one
# carries into none.
_ZEROS, _DOTS = _each_byte(ord("0")), _each_byte(ord("."))
_DOT_TO_ZERO = np.uint64(ord(".") ^ ord("0"))
_ABOVE_NINE = _each_byte(0x80 - 10)     # sets the high bit of a byte over 9
_LOW_BITS, _HIGH_BITS = _each_byte(0x7F), _each_byte(0x80)
_SEVEN, _TOP_BYTE = np.uint64(7), np.uint64(56)
# (multiply, shift, mask): 8 digit bytes, first digit lowest, to their number.
_SWAR_STEPS = tuple(
    (np.uint64(multiply), np.uint64(shift), mask and np.uint64(mask))
    for multiply, shift, mask in (
        (10 << 8 | 1, 8, 0x00FF00FF00FF00FF),
        (100 << 16 | 1, 16, 0x0000FFFF0000FFFF),
        (10000 << 32 | 1, 32, 0),
    )
)
_POW10 = np.array([10**n for n in range(20)], dtype=np.uint64)
_NINE_POW10 = 9 * _POW10[:19]
_POW10_LONG = _POW10.astype(np.longdouble)
# Indexed [j, n] for a field of n bytes: its bytes in word j, a mask that
# keeps them, the left shift that takes them to the top of the word (a
# shift of 64 gives 0), and 10 to their number.
_IN_WORD = np.clip(np.arange(_MAX_FIELD_BYTES + 1) - 8 * np.arange(_MAX_FIELD_BYTES // 8)[:, None], 0, 8)
_KEEP_IN_WORD = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)[_IN_WORD]
_ALIGN_IN_WORD = (64 - 8 * _IN_WORD).astype(np.uint64)
_POW10_IN_WORD = _POW10[_IN_WORD]
# The top byte of a word with 1 in byte p alone, times _DOT_PLACE[j], is
# 8j + p + 1: the place of a "." in word j of a field, counted from 1.
_DOT_PLACE = [np.uint64(int.from_bytes(bytes(8 * j + 8 - i for i in range(8)), "little")) for j in range(3)]
# Rows `_values` hands `_plain_decimals` at a time: few enough that its
# temporaries stay small and in cache.
_DECIMAL_ROWS = 1 << 14
# Where np.longdouble has a 64-bit significand or more (x86 extended, IEEE
# quad), w / 10**k rounds once for every uint64 w; elsewhere, double-double
# included (its exponent is a double's), no row takes the exact decimal path.
_EXACT_QUOTIENTS = np.finfo(np.longdouble).nmant >= 63 and np.finfo(np.longdouble).nexp > 11


def _field_words(buf, start, length):
    """Each row's field of `length` bytes from byte `start` of `buf`,
    zero-padded to whole 8-byte words: a (rows, n) '<u8' array. `buf` holds
    _MAX_FIELD_BYTES bytes past the end of any field."""
    n = max(1, -(-int(length.max()) // 8))
    spans = np.ndarray((buf.size - 8 * n + 1,), dtype=f"V{8 * n}", buffer=buf, strides=(1,))
    out = spans[start].view("<u8").reshape(start.size, n)
    for j in range(n):
        out[:, j] &= _KEEP_IN_WORD[j].take(length)
    return out


def _as_strings(fields):
    """`_field_words` output as one bytes string per row."""
    return fields.view(f"S{8 * fields.shape[1]}").ravel()


def _text_keys(fields):
    """A 64-bit hash of each row's text (`_field_words` output)."""
    key = fields[:, 0].copy()
    for j in range(1, fields.shape[1]):
        key *= _MIX
        key ^= fields[:, j]
    return key


def _codes(fields, index):
    """The code in `index` of each row's text (`_field_words` output).
    `index` maps text to code and numbers the texts it lacks in order of
    first appearance."""
    key = _text_keys(fields)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    if fields.shape[1] > 1 and not np.array_equal(fields, fields[first[inverse]]):
        # two texts share a hash: tell them apart by the text itself
        _, first, inverse = np.unique(_as_strings(fields), return_index=True, return_inverse=True)
    texts = _as_strings(fields[first]).tolist()
    codes = np.empty(first.size, dtype=np.int64)
    for j in np.argsort(first).tolist():
        codes[j] = index.setdefault(texts[j].decode("ascii"), len(index))
    return codes[inverse]


_MAX_WORDS = _MAX_FIELD_BYTES // 8


class _SeenTexts:
    """`_codes` for a column with few distinct texts, such as the variable
    names: `index` maps text to code, and the texts numbered so far are kept
    sorted by hash key, with their codes and words. A block's rows whose
    text was seen before find its code by binary search and a comparison of
    words; only the rest go through `_codes` and its sort."""

    def __init__(self):
        self.index: dict[str, int] = {}
        self._keys = np.empty(0, dtype=np.uint64)
        self._codes = np.empty(0, dtype=np.int64)
        self._words = np.empty((_MAX_WORDS, 0), dtype=np.uint64)   # one column per text
        self._n_words = np.empty(0, dtype=np.int64)   # nonzero words: a text holds no NUL

    def codes(self, fields):
        """`_codes(fields, self.index)`."""
        # The key of the text padded to _MAX_WORDS words, whatever the
        # widest field of this block: each zero word multiplies it by _MIX.
        key = _text_keys(fields)
        key *= np.uint64(pow(int(_MIX), _MAX_WORDS - fields.shape[1], 1 << 64))
        if self._keys.size:
            at = np.minimum(np.searchsorted(self._keys, key), self._keys.size - 1)
            codes = self._codes.take(at)
            seen = self._n_words.take(at) <= fields.shape[1]
            for j in range(fields.shape[1]):
                seen &= self._words[j].take(at) == fields[:, j]
        else:
            codes = np.empty(key.size, dtype=np.int64)
            seen = np.zeros(key.size, dtype=bool)
        if not seen.all():
            rows = np.flatnonzero(~seen)
            codes[rows] = _codes(fields[rows], self.index)
            self._remember(key[rows], codes[rows], fields[rows])
        return codes

    def _remember(self, key, codes, fields):
        """Add one row per text of `codes` to the sorted texts."""
        _, first = np.unique(codes, return_index=True)
        first = first[np.argsort(key[first], kind="stable")]
        at = np.searchsorted(self._keys, key[first])
        words = np.zeros((self._words.shape[0], first.size), dtype=np.uint64)
        words[:fields.shape[1]] = fields[first].T
        self._keys = np.insert(self._keys, at, key[first])
        self._codes = np.insert(self._codes, at, codes[first])
        self._words = np.insert(self._words, at, words, axis=1)
        self._n_words = np.insert(self._n_words, at, np.count_nonzero(words, axis=0))


def _digits(fields, n_digits):
    """The number that each row of `fields` (`_field_words` output for
    fields of `n_digits` bytes) writes in ASCII digits, as uint64, exact up
    to 19 digits; and whether its bytes are all digits.

    Eight digits at a time: the SWAR ("SIMD within a register") steps add
    up the digits of one word in pairs, fours and eights. All arithmetic
    stays in uint64 with np.uint64 scalars, as NumPy 1 makes a float64 of
    uint64 mixed with int64.
    """
    number = np.zeros(fields.shape[0], dtype=np.uint64)
    over_nine = np.zeros(fields.shape[0], dtype=np.uint64)
    for j in range(fields.shape[1]):
        word = fields[:, j] ^ _ZEROS            # a digit byte becomes its value
        word <<= _ALIGN_IN_WORD[j].take(n_digits)   # the digits to the top, after zero bytes
        over_nine |= word + _ABOVE_NINE
        for multiply, shift, mask in _SWAR_STEPS:
            word *= multiply
            word >>= shift
            if mask:
                word &= mask
        number *= _POW10_IN_WORD[j].take(n_digits)
        number += word
    return number, (over_nine & _HIGH_BITS) == 0


def _offsets(buf, start, length):
    """Offsets of fields of 1 to 18 plain digits, or None."""
    if length.min() < 1 or length.max() > 18:
        return None
    offset, digits = _digits(_field_words(buf, start, length), length)
    return offset.view(np.int64) if digits.all() else None


def _plain_decimals(buf, start, length):
    """Each field that is a plain decimal (an optional "-", then 1 to 19
    digits with at most one "." before, among or after them) as `float`
    reads it: (values, indices of the other rows, whose values are unset).

    The digits make an exact uint64 mantissa w, with k of them after the
    point, and w / 10**k is rounded once, in np.longdouble, where both are
    exact. Rounding that quotient to float64 is a second rounding, which
    errs only when the quotient lies on a float64 midpoint: those rows are
    left out too.
    """
    negative = buf[start] == ord("-")
    size = length - negative
    size[size > 19] = 0                         # too long for a uint64: not plain
    fields = _field_words(buf, start + negative, size)
    dots = np.zeros(start.size, dtype=np.uint64)    # bit 8p + j: a "." in byte p of word j
    point = np.zeros(start.size, dtype=np.uint64)   # 1 + the place of the ".", or 0
    for j in range(fields.shape[1]):
        word = fields[:, j]
        hit = word ^ _DOTS
        hit += _LOW_BITS
        np.invert(hit, out=hit)
        hit &= _HIGH_BITS
        hit >>= _SEVEN                          # 1 in each byte that holds a "."
        word ^= hit * _DOT_TO_ZERO              # which is read as a 0 digit
        point += (hit * _DOT_PLACE[j]) >> _TOP_BYTE
        hit <<= np.uint64(j)
        dots |= hit
    one_dot = (dots & (dots - np.uint64(1))) == 0   # or none
    has_dot = (dots != 0).view(np.int8)
    del dots
    after = point.view(np.int64)                # k with a "."; the digit count without one
    np.subtract(size, after, out=after)
    mantissa, plain = _digits(fields, size)
    del fields
    plain &= one_dot
    plain &= size > has_dot
    # With the "." read as 0, mantissa = a * 10**(k + 1) + b for the digits
    # a before it and the k digits b after it; the true mantissa is a * 10**k + b.
    whole = mantissa // _POW10.take(after + 1, mode="clip")
    whole *= _NINE_POW10.take(after, mode="clip")
    mantissa -= whole
    del whole
    after *= has_dot
    quotient = mantissa.astype(np.longdouble)
    del mantissa
    quotient /= _POW10_LONG.take(after, mode="clip")
    value = quotient.astype(np.float64)
    quotient -= value.astype(np.longdouble)
    # Exact for a 64-bit significand (11 significant bits at most); with a
    # longer one, rounding can only make more rows look like midpoints.
    error = quotient.astype(np.float64)
    del quotient
    # On a midpoint, value + 2 * error is the float64 next to value; off
    # one, it lies between the two and rounds to one of them.
    error *= 2
    plain &= (error == 0) | ((value + error) - value != error)
    np.negative(value, out=value, where=negative)
    return value, np.flatnonzero(~plain)


def _values(buf, start, length):
    """`float` of each field, or None if one is rejected or not finite.

    Plain decimals are read by `_plain_decimals`; every other row is cast
    with NumPy's bytes-to-float64 `astype`, which reads what `float` does.
    """
    value = np.empty(start.size)
    if _EXACT_QUOTIENTS:
        other = []
        for at in range(0, start.size, _DECIMAL_ROWS):
            rows = slice(at, at + _DECIMAL_ROWS)
            value[rows], left = _plain_decimals(buf, start[rows], length[rows])
            other.append(left + at)
        other = np.concatenate(other)
    else:
        other = np.arange(start.size)
    if other.size:
        try:
            value[other] = _as_strings(_field_words(buf, start[other], length[other])).astype(np.float64)
        except ValueError:
            return None
        if not np.isfinite(value[other]).all():
            return None
    return value


def _parse_block(data, patients, variables):
    """(patient, variable, offset_minutes, value) of the rows in `data`, whole
    lines of the observations file after its header; None when a row needs
    the general parser.

    A block is declined when it holds a `"`, a carriage return, a NUL or a
    non-ASCII byte, a line without exactly three commas (empty lines and
    quoted fields among them), a field over _MAX_FIELD_BYTES, an offset that
    is not 1 to 18 plain digits, or a value that `float` would reject or
    make non-finite. Every row of an accepted block parses to what the row
    loop would give it. Offsets and plain decimal values (-?digits[.digits],
    1 to 19 digits) are parsed with integer arithmetic on 8-byte words;
    other values (exponents, a "+", "_", spaces, "nan", longer digit
    strings) and the rare decimal whose quotient lands on a float64
    midpoint go through NumPy's bytes-to-float64 `astype`, as `float` would
    read them.
    """
    if not data.isascii() or b'"' in data or b"\r" in data or b"\0" in data:
        return None
    n_bytes = len(data) + (not data.endswith(b"\n"))
    buf = np.frombuffer(b"".join((data, b"\n", bytes(_MAX_FIELD_BYTES))), dtype=np.uint8)
    separator = np.flatnonzero(buf[:n_bytes] <= ord(","))
    kind = buf[separator]
    keep = (kind == ord(",")) | (kind == ord("\n"))
    if not keep.all():
        separator, kind = separator[keep], kind[keep]
    if kind.size % 4 or not (kind.reshape(-1, 4) == _SEPARATORS).all():
        return None
    c0, c1, c2, end = separator.reshape(-1, 4).T
    line_start = np.concatenate(([0], end[:-1] + 1))
    # (first byte, length) of each line's id, name, offset and value field
    (id_at, id_len), name, offset, value = (
        (a, b - a) for a, b in ((line_start, c0), (c0 + 1, c1), (c1 + 1, c2), (c2 + 1, end))
    )
    if max(int(length.max()) for length in (id_len, name[1], offset[1], value[1])) > _MAX_FIELD_BYTES:
        return None
    offset = _offsets(buf, *offset)
    value = None if offset is None else _values(buf, *value)
    if value is None:
        return None
    # Nothing is declined past this point, so the indexes only gain texts of accepted rows.
    ids = _field_words(buf, id_at, id_len)
    runs = np.flatnonzero(np.concatenate(([True], (ids[1:] != ids[:-1]).any(axis=1))))
    patient = np.repeat(_codes(ids[runs], patients), np.diff(runs, append=ids.shape[0]))
    variable = variables.codes(_field_words(buf, *name))
    return [patient, variable, offset, value]


def _steps_back(patient, offset) -> np.ndarray:
    """Per pair of adjacent rows, whether the second comes before the first
    in (patient, offset) order. Compares slices, so it copies no column."""
    before = patient[1:] < patient[:-1]
    before |= (patient[1:] == patient[:-1]) & (offset[1:] < offset[:-1])
    return before


# Rows `_row_loop` holds as Python lists before it yields them as arrays.
_ROW_LOOP_CHUNK = 1 << 16
_COLUMN_DTYPES = (np.int64, np.int64, np.int64, np.float64)


def _row_loop(rows, patient_index, variable_code):
    """The general parser: one `csv` record at a time. Yields the columns
    of every _ROW_LOOP_CHUNK rows, then of the rest."""
    patient, variable, offsets, values = columns = [], [], [], []
    for line_no, row in rows:
        if not row:
            continue
        if tuple(row) == OBSERVATIONS_HEADER:
            raise ParseError(line_no, "duplicate header row")
        if len(row) != 4:
            raise ParseError(line_no, f"expected 4 fields, got {len(row)}")
        pid, name, offset_s, value_s = row
        try:
            offset = int(offset_s)
        except ValueError:
            raise ParseError(line_no, f"non-integer offset_minutes {offset_s!r}") from None
        try:
            value = float(value_s)
        except ValueError:
            raise ParseError(line_no, f"non-numeric value {value_s!r}") from None
        if offset < 0:
            raise ParseError(line_no, f"offset_minutes must be >= 0, got {offset}")
        if offset >= 2**63:
            raise ParseError(line_no, f"offset_minutes must be < 2**63, got {offset}")
        if not math.isfinite(value):
            raise ParseError(line_no, f"non-finite value for {pid}/{name}")
        patient.append(patient_index.setdefault(pid, len(patient_index)))
        variable.append(variable_code.setdefault(name, len(variable_code)))
        offsets.append(offset)
        values.append(value)
        if len(patient) == _ROW_LOOP_CHUNK:
            yield _chunk_arrays(columns)
    if patient:
        yield _chunk_arrays(columns)


def _chunk_arrays(columns):
    """The four lists of `columns` as arrays; the lists are emptied."""
    arrays = [np.array(column, dtype=dtype) for column, dtype in zip(columns, _COLUMN_DTYPES)]
    for column in columns:
        column.clear()
    return arrays


def _observation_parts(stream, patients: dict, variables: _SeenTexts):
    """(patient, variable, offset_minutes, value) of consecutive rows of a
    binary observations CSV stream, part by part, in file order.

    Patients and variables are numbered in `patients` and `variables` in
    order of first appearance; rows at or beyond minute 1440 are kept.
    The file is read in blocks of whole lines (`_LineBlocks`), each parsed
    with NumPy by `_parse_block`, which reads plain decimal values exactly
    without a Python float per row. From the first block that parser
    declines to the end of the file, rows go through `_row_loop`, one `csv`
    record at a time, which accepts all of CSV (quoted fields, CRLF line
    endings, empty lines) and raises every ParseError. Both give the same
    rows, bit for bit. A file without rows raises "no observations".
    """
    blocks = _LineBlocks(stream)
    lines_done, declined = 0, False
    for data in blocks:
        header = lines_done == 0
        if header:
            declined = not data.startswith(_OBSERVATIONS_HEADER_LINE)
            data = data[len(_OBSERVATIONS_HEADER_LINE):]
        if data and not declined:
            parts = _parse_block(data, patients, variables)
            declined = parts is None
        if declined:
            break
        if data:
            yield parts
            lines_done += parts[0].size
        lines_done += header
    if declined:
        rows = _csv_rows(
            blocks.rest(),
            OBSERVATIONS_HEADER if lines_done == 0 else None,
            "observations",
            line_no=lines_done + 1,
        )
        yield from _row_loop(rows, patients, variables.index)
    if not patients:
        raise CohortError("no observations")


def ingest_outcomes(stream):
    """Parse a binary outcomes CSV, exactly one row per patient_id, into
    ({patient_id: row, in file order}, event_hours, died)."""
    _check_stream(stream)
    rows: dict[str, int] = {}
    event_hours, died = [], []
    for line_no, row in _csv_rows(_text_lines(stream), OUTCOMES_HEADER, "outcomes"):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(line_no, f"expected 3 fields, got {len(row)}")
        pid, hours_s, flag_s = row
        if pid in rows:
            raise ParseError(line_no, f"duplicate patient_id {pid!r}")
        try:
            hours = float(hours_s)
        except ValueError:
            raise ParseError(line_no, f"non-numeric event_hours {hours_s!r}") from None
        if not (math.isfinite(hours) and hours > 0):
            raise ParseError(line_no, f"event_hours must be finite and > 0, got {hours} for {pid}")
        if flag_s not in ("0", "1"):
            raise ParseError(line_no, f"death_flag must be 0 or 1, got {flag_s!r}")
        rows[pid] = len(rows)
        event_hours.append(hours)
        died.append(flag_s == "1")

    if not rows:
        raise CohortError("no outcomes")
    return rows, np.array(event_hours, dtype=float), np.array(died, dtype=bool)


def _ingest_file(path, ingest):
    """`ingest` applied to the file at `path`; its errors name the file."""
    with open(path, "rb") as f:
        try:
            return ingest(f)
        except ParseError as exc:
            raise ParseError(exc.line_no, exc.message, path) from None
        except CohortError as exc:
            raise CohortError(f"{path}: {exc}") from None


def _paired_outcomes(ids, observations_path, outcomes_path):
    """(event_hours, died) of the patients `ids` of the observations file,
    read from the outcomes file and paired by id."""
    rows, event_hours, died = _ingest_file(outcomes_path, ingest_outcomes)
    order = np.array([rows.get(pid, -1) for pid in ids], dtype=np.int64)
    if len(rows) != len(ids) or (order < 0).any():
        missing = sorted(set(ids).symmetric_difference(rows))[:5]
        raise CohortError(
            f"{observations_path}, {outcomes_path}: "
            f"observations and outcomes cover different patients (e.g. {missing})"
        )
    return event_hours[order], died[order]


def _fold_range(path, start, stop, window_minutes, table) -> "WindowTables | None":
    """The whole lines of bytes [start, stop) of the observations file folded
    on their own, without outcomes; None if `_parse_block` declines a block."""
    tables, patients, variables = WindowTables(window_minutes, table), {}, _SeenTexts()
    with open(path, "rb") as f:
        f.seek(start)
        for data in _LineBlocks(f, stop - start):
            if (parts := _parse_block(data, patients, variables)) is None:
                return None
            tables.add(parts, variables.index)
    return tables.finish(list(patients), variables.index, None, None)


def _merge_ranges(folds) -> "WindowTables":
    """The folds of consecutive ranges, in file order, as one fold, bit for bit:
    codes renumbered by first appearance; worst by max, seen by or, n_rows by sum."""
    tables, patients, vocabulary = WindowTables(folds[0].window_minutes, folds[0].score_table), {}, {}
    for fold in folds:
        patient = np.array([patients.setdefault(pid, len(patients)) for pid in fold.patient_ids], dtype=np.int64)
        variable = np.array([vocabulary.setdefault(name, len(vocabulary)) for name in fold.vocabulary], dtype=np.int64)
        tables._grow(len(patients), vocabulary)
        cells = np.ix_(patient, np.arange(tables.worst.shape[1]), variable)   # each cell once: no max lost
        tables.worst[cells] = np.maximum(tables.worst[cells], fold.worst)
        tables.seen[np.ix_(patient, variable)] |= fold.seen
        tables.n_rows[patient] += fold.n_rows
    return tables.finish(list(patients), vocabulary, None, None)


def usable_cpus() -> int:
    """The CPUs this process may run on (1 without `os.sched_getaffinity`)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def map_in_children(fn, items) -> "list | None":
    """[fn(item) for item in items]: the first here, each other in a forked
    child that pickles its result and warnings back over a pipe; the children's
    warnings are shown here afterwards, in item order. None, with no fork, for
    fewer than 2 items or a second live thread; None too if a fork fails or a
    child exits without its result, as on an exception in fn: the caller then
    runs serially and raises the serial error. Every child is reaped on every path."""
    if len(items) < 2 or threading.active_count() > 1:
        return None
    children = []   # (pid, read end of its pipe) of each child not yet reaped
    try:
        for item in items[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:   # no process to spare: kill the children so far
                os.close(read)
                os.close(write)
                return None
            if pid == 0:   # the child exits here, whatever is raised
                try:
                    with open(write, "wb") as pipe, warnings.catch_warnings(record=True) as caught:
                        result = fn(item)   # its warnings pass the filters here, then go with it
                        warned = [(w.message, w.category, w.filename, w.lineno) for w in caught]
                        pickle.dump((result, warned), pipe, pickle.HIGHEST_PROTOCOL)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results, caught = [fn(items[0])], []
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status != 0 or not data:
                return None
            result, warned = pickle.loads(data)
            results.append(result)
            caught += warned
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for shown in caught:
        warnings.showwarning(*shown)
    return results


def _fold_in_ranges(path, window_minutes, table) -> "WindowTables | None":
    """The file's fold from n ranges cut at newlines, folded at once
    (`map_in_children`); None unless n = min(usable CPUs, bytes past the header
    // _RANGE_BYTES) >= 2, the file is regular and starts with the header, and
    every range was folded."""
    head, size = len(_OBSERVATIONS_HEADER_LINE), os.stat(path).st_size
    n = min(usable_cpus(), (size - head) // _RANGE_BYTES)
    if n < 2 or not os.path.isfile(path):
        return None
    with open(path, "rb") as f:
        if f.read(head) != _OBSERVATIONS_HEADER_LINE:
            return None
        # each cut is the first line start at or after its share: seek's position plus the line read
        cuts = [head] + [f.seek(head + i * (size - head) // n - 1) + len(f.readline()) for i in range(1, n)]
    ranges = list(zip(cuts, cuts[1:] + [size]))
    folds = map_in_children(lambda cut: _fold_range(path, *cut, window_minutes, table), ranges)
    return None if folds is None or any(fold is None for fold in folds) else _merge_ranges(folds)


def load_cohort(observations_path, outcomes_path, window_minutes: int, table) -> "WindowTables":
    """The cohort in an observations and an outcomes CSV file, folded into
    WindowTables of `window_minutes` windows, scored with `table` (a
    ScoreTable, or None for sample marks only).

    Each part of the observations file (`_observation_parts`) is folded in
    as soon as it is parsed, and then dropped, so memory is O(patients +
    one block), not O(rows); an unsorted file needs no sort, as max is
    order-free. Patients are numbered in order of first appearance, and
    their outcomes (`ingest_outcomes`) pair by id. A ParseError names the
    file and line; any other CohortError names the file or, for a mismatch
    between the two, both files. A regular file with 2 * _RANGE_BYTES past
    its header is folded in line-aligned ranges at once, one per usable CPU,
    here and in forked children, each holding one block's parse and its
    range's tables (`_fold_in_ranges`). A declined range sends the whole file
    through the serial fold, so the tables and every error are the same.
    """
    tables = _fold_in_ranges(observations_path, window_minutes, table)
    if tables is None:
        tables, patients, variables = WindowTables(window_minutes, table), {}, _SeenTexts()

        def fold(stream):
            for parts in _observation_parts(stream, patients, variables):
                tables.add(parts, variables.index)

        _ingest_file(observations_path, fold)
        tables.finish(list(patients), variables.index, None, None)
    ids = tables.patient_ids
    return tables.finish(ids, tables.vocabulary, *_paired_outcomes(ids, observations_path, outcomes_path))


# Texts `csv.writer` writes as they are: no delimiter, quote, space or line break.
_PLAIN_FIELD = re.compile(r"[A-Za-z0-9_.\-]+")


def _csv_fields(texts) -> list[str]:
    """Each text as `csv.writer` writes it among other fields of a row:
    quoted where the csv module's minimal quoting says so. Texts of ASCII
    letters, digits, "_", "-" and "." pass through unchanged; every other
    text is written by `csv.writer` itself."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    fields = []
    for text in texts:
        if _PLAIN_FIELD.fullmatch(text):
            fields.append(text)
            continue
        buffer.seek(0)
        buffer.truncate()
        writer.writerow((text, ""))
        fields.append(buffer.getvalue()[:-2])   # less the empty field's "," and the "\n"
    return fields


def write_observations(cohort: RawCohort, path) -> None:
    """The observations CSV: one row per observation, in cohort order, each
    value as its `repr`; byte for byte what `csv.writer` writes."""
    pids = np.array(_csv_fields(cohort.patient_ids), dtype=object)
    names = np.array(_csv_fields(cohort.vocabulary), dtype=object)
    rows = zip(
        pids[cohort.patient].tolist(),
        names[cohort.variable].tolist(),
        cohort.offset_minutes.tolist(),
        cohort.value.tolist(),
    )
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(OBSERVATIONS_HEADER) + "\n")
        f.writelines(f"{pid},{name},{offset},{value!r}\n" for pid, name, offset, value in rows)


def write_outcomes(cohort: RawCohort, path) -> None:
    """The outcomes CSV: one row per patient, in patient order."""
    rows = zip(_csv_fields(cohort.patient_ids), cohort.event_hours.tolist(), cohort.died.tolist())
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(OUTCOMES_HEADER) + "\n")
        f.writelines(f"{pid},{hours!r},{int(died)}\n" for pid, hours, died in rows)


class WindowTables:
    """What the model reads of a cohort's rows, per patient: the worst score
    of each variable in each first-day window, and which variables it has
    rows of.

    The one window rule: window t holds offsets in [window_minutes * t,
    window_minutes * (t + 1)) below minute 1440, so the last window may be
    shorter, and rows at or past minute 1440 are dropped. `worst[i, t, c]`
    is the max score of patient i's rows of variable `vocabulary[c]` in
    window t, -1 where there are none. A row is scored by a lookup in
    `score_table`'s `edge_table`; a variable the table has no bins for, and
    with no table every variable, scores 0, so `worst >= 0` marks a sample.
    `seen[i, c]` is whether patient i has a row of variable c at any
    offset, and `n_rows[i]` how many rows it has. `event_hours` and `died`
    are the outcomes, as in a RawCohort.

    Rows are folded in part by part (`add`), straight from the parsed
    blocks of a file (`load_cohort`) or from a RawCohort's chunks
    (`window_tables`). The tables grow, doubling, as parts bring new
    patients or variables, and `finish` cuts them to size and attaches the
    ids and outcomes. They hold O(patients) memory. A window size that is
    not an int (a bool is not) from 1 to 1440 minutes raises a ValueError.
    """

    def __init__(self, window_minutes: int, table=None, n_patients: int = 0):
        if type(window_minutes) is not int:
            raise ValueError(f"window_minutes must be an int, got {window_minutes!r}")
        if not 1 <= window_minutes <= FIRST_DAY_MINUTES:
            raise ValueError(f"window_minutes must lie in 1..{FIRST_DAY_MINUTES}, got {window_minutes}")
        self.window_minutes, self.score_table = window_minutes, table
        n_windows = -(-FIRST_DAY_MINUTES // window_minutes)
        self.worst = np.full((n_patients, n_windows, 0), -1, dtype=np.int64)
        self.seen = np.zeros((n_patients, 0), dtype=bool)
        self.n_rows = np.zeros(n_patients, dtype=np.int64)
        self.patient_ids: list[str] = []
        self.vocabulary: tuple[str, ...] = ()
        self.event_hours = self.died = None
        self._edges, self._lut = np.empty(0), np.zeros((0, 1), dtype=np.int64)

    def _grow(self, n_patients: int, vocabulary) -> None:
        """Room for `n_patients` and every variable of `vocabulary`, which
        extends the vocabulary seen so far."""
        rows, n_windows, columns = self.worst.shape
        if n_patients > rows or len(vocabulary) > columns:
            size = [have if need <= have else max(need, 2 * have)
                    for have, need in ((rows, n_patients), (columns, len(vocabulary)))]
            worst = np.full((size[0], n_windows, size[1]), -1, dtype=np.int64)
            worst[:rows, :, :columns] = self.worst
            seen = np.zeros(size, dtype=bool)
            seen[:rows, :columns] = self.seen
            n_rows = np.zeros(size[0], dtype=np.int64)
            n_rows[:rows] = self.n_rows
            self.worst, self.seen, self.n_rows = worst, seen, n_rows
        if len(vocabulary) > len(self.vocabulary):
            self.vocabulary = tuple(vocabulary)
            bins = {} if self.score_table is None else self.score_table.bins
            scored = [code for code, name in enumerate(self.vocabulary) if name in bins]
            self._edges, lut = self.score_table.edge_table([self.vocabulary[c] for c in scored]) if scored else (self._edges, 0)
            self._lut = np.zeros((len(self.vocabulary), self._edges.size + 1), dtype=np.int64)
            self._lut[scored] = lut

    def add(self, parts, vocabulary) -> None:
        """Fold the rows (patient, variable, offset_minutes, value) in, their
        variable codes indexing `vocabulary`. Max is order-free, so neither
        the order of the rows nor how they are cut into parts matters."""
        patient, variable, offset, value = parts
        low, high = int(patient.min()), int(patient.max()) + 1
        self._grow(high, vocabulary)
        self.n_rows[low:high] += np.bincount(patient - low, minlength=high - low)
        self.seen[patient, variable] = True
        early = offset < FIRST_DAY_MINUTES   # offsets are >= 0
        if not early.all():
            patient, variable, offset, value = (column[early] for column in (patient, variable, offset, value))
        n_windows, n_columns = self.worst.shape[1:]
        cell = patient * n_windows
        cell += offset // self.window_minutes
        cell *= n_columns
        cell += variable
        # the count of edges <= value: searchsorted(edges, value, "right") for finite values
        edge = np.zeros(value.size, dtype=np.min_scalar_type(self._edges.size))
        for bound in self._edges.tolist():
            edge += value >= bound
        score = self._lut[variable, edge]
        np.maximum.at(self.worst.ravel(), cell, score)

    def finish(self, patient_ids, vocabulary, event_hours, died) -> "WindowTables":
        """The tables cut to `patient_ids` and `vocabulary`, which may name
        patients and variables no row was folded for, with the outcomes."""
        n_patients, n_variables = len(patient_ids), len(vocabulary)
        self._grow(n_patients, vocabulary)
        self.worst = self.worst[:n_patients, :, :n_variables]
        self.seen, self.n_rows = self.seen[:n_patients, :n_variables], self.n_rows[:n_patients]
        self.patient_ids, self.event_hours, self.died = list(patient_ids), event_hours, died
        return self

    @property
    def n_patients(self) -> int:
        return len(self.patient_ids)

    @property
    def variables(self) -> list[str]:
        """Sorted names of the variables these patients have rows of, as
        `RawCohort.variables`."""
        return sorted(self.vocabulary[code] for code in np.flatnonzero(self.seen.any(axis=0)).tolist())

    @property
    def patients(self) -> dict[str, range]:
        """Each patient's rows, numbered from 0, in patient order: as
        `RawCohort.patients`, but the tables hold only how many there are."""
        return {pid: range(n) for pid, n in zip(self.patient_ids, self.n_rows.tolist())}

    def _columns(self, variable_names) -> dict:
        index = {name: code for code, name in enumerate(self.vocabulary)}
        return {j: index[name] for j, name in enumerate(variable_names) if name in index}

    def kept(self, required_variables) -> np.ndarray:
        """The patients `filter_cohort` keeps: event_hours >= MIN_STAY_HOURS,
        and a sample of every required variable in each full window of the
        first day, FIRST_DAY_MINUTES // window_minutes of them."""
        n_windows, required = FIRST_DAY_MINUTES // self.window_minutes, tuple(dict.fromkeys(required_variables))
        columns = self._columns(required)
        covered = np.zeros(self.n_patients, dtype=bool)
        if len(columns) == len(required):
            covered = (self.worst[:, :n_windows, list(columns.values())] >= 0).all(axis=(1, 2))
        return (self.event_hours >= MIN_STAY_HOURS) & covered

    def subset(self, keep) -> "WindowTables":
        """The patients where the bool mask `keep` is set, in the same order."""
        kept = copy.copy(self)
        kept.patient_ids = [pid for pid, k in zip(self.patient_ids, keep.tolist()) if k]
        for name in ("worst", "seen", "n_rows", "event_hours", "died"):
            setattr(kept, name, getattr(self, name)[keep])
        return kept

    def scores(self, variable_names, n_windows=None) -> np.ndarray:
        """(patients, n_windows, len(variable_names)) worst scores of the
        named variables in the first n_windows windows (all by default), -1
        where missing. A name the score table lacks raises, as in
        `ScoreTable.scores`."""
        if self.score_table is not None:
            self.score_table.require(variable_names)
        n_windows = self.worst.shape[1] if n_windows is None else n_windows
        out = np.full((self.n_patients, n_windows, len(variable_names)), -1, dtype=np.int64)
        for j, code in self._columns(variable_names).items():
            out[:, :, j] = self.worst[:, :n_windows, code]
        return out


def window_tables(cohort: RawCohort, window_minutes: int, table=None) -> WindowTables:
    """A RawCohort's rows folded into WindowTables of `window_minutes`
    windows, scored with `table` (a ScoreTable, or None for sample marks
    only), `WINDOW_CHUNK_ROWS` rows at a time: one pass for all variables,
    holding one chunk's arrays beside the tables. The one way from rows in
    memory to the tables the library reads."""
    tables = WindowTables(window_minutes, table, cohort.n_patients)
    columns = (cohort.patient, cohort.variable, cohort.offset_minutes, cohort.value)
    for start in range(0, cohort.patient.size, WINDOW_CHUNK_ROWS):
        tables.add([column[start : start + WINDOW_CHUNK_ROWS] for column in columns], cohort.vocabulary)
    return tables.finish(cohort.patient_ids, cohort.vocabulary, cohort.event_hours, cohort.died)


def filter_cohort(
    cohort: WindowTables, required_variables=DEFAULT_REQUIRED_VARIABLES, window_hours: int = 12
) -> WindowTables:
    """The tables of the patients with >= MIN_STAY_HOURS of follow-up and
    complete required coverage (`WindowTables.kept`). The tables must be
    folded in `window_hours` windows. A RawCohort is folded first, without a
    score table: this one statement serves the benchmark's set-up, which
    counts the kept patients and rows of its synthetic cohort, and goes once
    that set-up calls `window_tables`.
    """
    if isinstance(cohort, RawCohort):
        cohort = window_tables(cohort, 60 * window_hours)
    if cohort.window_minutes != 60 * window_hours:
        raise ValueError(f"tables of {cohort.window_minutes}-minute windows, not {window_hours} h")
    return cohort.subset(cohort.kept(required_variables))


# --------------------------------------------------------------------------
# Synthetic cohort generation
# --------------------------------------------------------------------------

def json_number(field: str, value, kind: type):
    """`kind(value)` when the JSON `value` is an integer, or for kind float
    any number; a ValueError naming `field` otherwise (a bool is neither):
    "`field` must be an integer, got 2.5", never a truncated value."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{field} must be {what}, got {json.dumps(value)}")
    return kind(value)


@dataclass(frozen=True)
class SynthConfig:
    n_patients: int
    n_variables: int
    prevalence_target: float
    missing_rate: float
    sampling_rate_per_hour: float
    seed: int

    def __post_init__(self):
        if self.n_patients < 1:
            raise CohortError("n_patients must be positive")
        if self.n_variables < 1:
            raise CohortError("n_variables must be positive")
        if not 0.0 < self.prevalence_target < 1.0:
            raise CohortError("prevalence_target must lie in (0, 1)")
        if not 0.0 <= self.missing_rate < 1.0:
            raise CohortError("missing_rate must lie in [0, 1)")
        if not (math.isfinite(self.sampling_rate_per_hour) and self.sampling_rate_per_hour > 0):
            raise CohortError("sampling_rate_per_hour must be finite and positive")
        if not 0 <= self.seed < 2**64:
            raise CohortError("seed must fit in 64 unsigned bits")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SynthConfig":
        """The config from a config's `synth` object: every field, as a JSON
        integer for an int field and any JSON number for a float field."""
        kinds = typing.get_type_hints(cls)
        keys, expected = set(obj), set(kinds)
        if keys != expected:
            extra = sorted(keys - expected)
            missing = sorted(expected - keys)
            raise CohortError(
                f"synthetic config must have exactly {sorted(expected)}; "
                f"missing {missing}, unexpected {extra}"
            )
        return cls(**{key: json_number(f"config key 'synth.{key}'", obj[key], kind) for key, kind in kinds.items()})


# Per-variable emission models: baseline, scale, noise sd, severity loading.
# Signs follow clinical direction (sicker = faster heart rate, lower pressure,
# lower GCS, higher temperature); baselines sit close to a score-bin boundary
# so severity shifts actually register in the discretized scores.
_VALUE_MODELS = {
    "heart_rate": (107.0, 16.0, 4.0, 0.92),
    "blood_pressure": (112.0, -15.0, 5.0, 0.82),
    "gcs": (14.2, -2.6, 0.5, 0.45),
    "temperature": (37.4, 1.0, 0.25, 0.88),
}
_EXTRA_VALUE_MODEL = (50.0, 10.0, 3.0, 0.5)

_SEVERITY_SLOPE = 2.0          # log-hazard per unit risk, hazard in 1/h
_TRAJECTORY_SD = 1.0           # sd of the per-patient deterioration slope
_TRAJECTORY_RISK_WEIGHT = 2.2  # the direction of travel outweighs the level
_AGE_RISK_WEIGHT = 0.18        # age joins acute severity in the hazard
_DISCHARGE_MIN_HOURS = 24.0
_DISCHARGE_SCALE_HOURS = 72.0  # mean extra stay beyond the first day


def synthetic_variable_names(n_variables: int) -> list[str]:
    canonical = ["heart_rate", "blood_pressure", "gcs", "temperature", "age"]
    names = canonical[:n_variables]
    names += [f"var_{i + 1}" for i in range(len(names), n_variables)]
    return names


def _death_by_probability(log_rate: float, tau_hours: float) -> float:
    # P(death before discharge and before tau) with discharge ~ 24h + Exp(scale)
    lam = math.exp(log_rate)
    mu = 1.0 / _DISCHARGE_SCALE_HOURS
    t0 = min(tau_hours, _DISCHARGE_MIN_HOURS)
    p = -math.expm1(-lam * t0)
    if tau_hours > _DISCHARGE_MIN_HOURS:
        span = tau_hours - _DISCHARGE_MIN_HOURS
        p += (lam / (lam + mu)) * math.exp(-lam * _DISCHARGE_MIN_HOURS) * -math.expm1(
            -(lam + mu) * span
        )
    return p


def _calibrate_intercept(prevalence_target: float, tau_hours: float) -> float:
    """Bisect the log-hazard intercept so the expected death fraction by tau
    matches the target, integrating over severity ~ N(0, 1)."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(101)
    weights = weights / math.sqrt(2.0 * math.pi)

    def expected_fraction(b0):
        return float(
            sum(
                w * _death_by_probability(b0 + _SEVERITY_SLOPE * x, tau_hours)
                for x, w in zip(nodes, weights)
            )
        )

    lo, hi = -20.0, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid   # lo and hi are adjacent floats: no later step moves the result
        if expected_fraction(mid) < prevalence_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _standard_draws(rng, n_patients, n_variables, n_samples, age):
    """The generator's random draws, as standard variates, patient by patient.

    Per patient, in this order: severity, slope and one z per variable
    (standard normal); the death and discharge times (standard
    exponential); then per variable an offset jitter per sample (uniform),
    a noise per sample (standard normal) and a keep draw per sample
    (uniform), except for the age variable, which takes one keep draw and
    nothing else. Returns (normal, exponential, jitter, noise, keep) with
    shapes (n, 2 + n_variables), (n, 2) and three times
    (n, n_variables, n_samples); the age variable's cells stay 0 but for its
    keep draw at sample 0.
    """
    normal = np.empty((n_patients, 2 + n_variables))
    exponential = np.empty((n_patients, 2))
    jitter, noise, keep = (np.zeros((n_patients, n_variables, n_samples)) for _ in range(3))
    draws = [(rng.standard_normal, normal), (rng.standard_exponential, exponential)]
    for j in range(n_variables):
        if j == age:
            draws.append((rng.random, keep[:, j, :1]))
        else:
            draws += [(rng.random, jitter[:, j]), (rng.standard_normal, noise[:, j]), (rng.random, keep[:, j])]
    for i in range(n_patients):
        for draw, out in draws:
            draw(out=out[i])
    return normal, exponential, jitter, noise, keep


def generate_synthetic_cohort(config: SynthConfig) -> RawCohort:
    """Generate a cohort that follows the model's own generative assumptions.

    Per patient: a latent severity vector drives both the observed physiology
    (with an upward drift across the first day for high-risk patients) and an
    exponential death time whose rate is the exponent of a linear function of
    severity. Discharge is drawn independently; event_hours records whichever
    comes first. Deterministic for a fixed config, independent of thread count.

    The seeded cohort is part of the contract: a config gives the same
    cohort, bit for bit, from one version to the next on the same NumPy.
    So the order and number of the random draws per patient, set out in
    `_standard_draws`, must not change, and each draw is scaled as NumPy's
    `Generator` scales it (`normal(0, s)` is `0.0 + s * g`,
    `exponential(s)` is `s * e`, `uniform(0, h)` is `0.0 + h * u`).

    Parameters
    ----------
    config : SynthConfig
        Cohort size, variable count, target death fraction by day 5,
        missing-sample probability, sampling rate, and RNG seed.
    """
    rng = np.random.default_rng(config.seed)
    variables = synthetic_variable_names(config.n_variables)
    age = variables.index("age") if "age" in variables else None
    intercept = _calibrate_intercept(
        config.prevalence_target, 24.0 * PREVALENCE_REFERENCE_DAY
    )
    interval = 60.0 / config.sampling_rate_per_hour
    n_samples = max(1, int(math.floor(FIRST_DAY_MINUTES / interval)))
    n_patients = config.n_patients
    normal, exponential, offsets, noise, keep = _standard_draws(
        rng, n_patients, config.n_variables, n_samples, age
    )

    # Severity follows a linear trajectory over the first day, and the
    # hazard weights the direction of travel above the level: a patient
    # deteriorating toward a given state is in more danger than one
    # improving through it.
    severity, slope, z = normal[:, 0], normal[:, 1] * _TRAJECTORY_SD, normal[:, 2:]
    course = (severity + _TRAJECTORY_RISK_WEIGHT * slope) / math.sqrt(
        1.0 + (_TRAJECTORY_RISK_WEIGHT * _TRAJECTORY_SD) ** 2
    )
    # Standard-normal risk: clinical course plus an age contribution.
    risk = course
    if age is not None:
        w = math.sqrt(1.0 - _AGE_RISK_WEIGHT**2)
        risk = w * course + _AGE_RISK_WEIGHT * z[:, age]
    # math.exp per patient: np.exp need not round as libm does.
    rate = np.array([math.exp(x) for x in (intercept + _SEVERITY_SLOPE * risk).tolist()])
    t_death = (1.0 / rate) * exponential[:, 0]
    t_discharge = _DISCHARGE_MIN_HOURS + _DISCHARGE_SCALE_HOURS * exponential[:, 1]
    width = len(str(n_patients))

    # Observations over (patient, variable, sample) cells, in place.
    offsets *= interval
    offsets += np.arange(n_samples) * interval
    models = [_VALUE_MODELS.get(var, _EXTRA_VALUE_MODEL) for var in variables]
    base, scale, noise_sd, loading = (np.array(column)[:, None] for column in zip(*models))
    specific = np.array([math.sqrt(1.0 - m[3] ** 2) for m in models])
    values = offsets / FIRST_DAY_MINUTES
    values *= slope[:, None, None]
    values += severity[:, None, None]
    values *= loading
    values += (specific * z)[:, :, None]
    values *= scale
    values += base
    noise *= noise_sd
    values += noise
    if "gcs" in variables:
        gcs = variables.index("gcs")
        values[:, gcs] = np.clip(np.rint(values[:, gcs]), 3.0, 15.0)
    keep = keep >= config.missing_rate
    if age is not None:
        values[:, age, 0] = np.clip(np.rint(62.0 + 14.0 * z[:, age]), 18.0, 100.0)
        keep[:, age, 1:] = False

    # C order is the order the rows were drawn in, patient by patient and
    # variable by variable, so a stable sort leaves ties in variable order.
    patient = np.repeat(np.arange(n_patients), keep.sum(axis=(1, 2)))
    variable = np.broadcast_to(np.arange(len(variables))[:, None], keep.shape)[keep]
    offsets = offsets[keep].astype(np.int64)  # whole minutes, truncated
    values = values[keep]
    del noise, keep   # with offsets and values rebound, no cell array outlives this line
    order = np.lexsort((offsets, patient))
    return RawCohort(
        patient_ids=[f"p{i:0{width}d}" for i in range(1, n_patients + 1)],
        vocabulary=tuple(variables),
        patient=patient[order],
        variable=variable[order],
        offset_minutes=offsets[order],
        value=values[order],
        event_hours=np.minimum(t_death, t_discharge),
        died=t_death <= t_discharge,
    )
