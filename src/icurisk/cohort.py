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
# Rows of a CSV file laid out at once (`_lines`): a few MB of bytes and masks.
_LINE_ROWS = 1 << 13
# Rows of a cohort that warrant a range of their own (`write_observations`).
_WRITE_RANGE_ROWS = 1 << 17

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
    lines, BLOCK_BYTES at a time, cut after the last newline, into one
    buffer that every block reuses. Each block is (data, lo, hi): its lines
    are bytes [lo, hi) of `data`, with _PAD bytes before them and, after
    them, the next line's start, a newline and _MAX_FIELD_BYTES zero bytes,
    so that they are parsed in place (`_line_fields`) until the next block
    is read. A last line without its newline takes that newline. After a
    block is declined, `rest()` gives that block and everything after it as
    text lines, for `_csv_rows`.
    """

    def __init__(self, stream, size=math.inf):
        _check_stream(stream)
        self._stream, self._left = stream, size
        self._rest = b"", _PAD

    def __iter__(self):
        data, end = bytearray(), _PAD   # the bytes read so far end at `end`
        while True:
            want = min(BLOCK_BYTES, self._left)
            if len(data) < end + want + len(_TAIL):
                data = data[:end] + bytearray(2 * (want + len(_TAIL)))
            read = self._stream.readinto(memoryview(data)[end : end + want])
            self._left -= read
            end += read
            data[end : end + len(_TAIL)] = _TAIL
            if read:
                hi = data.rfind(b"\n", _PAD, end) + 1   # 0 before a whole line
            else:
                hi = end + 1 if end > _PAD else 0   # a last line takes the tail's newline
            if hi:
                self._rest = data, end
                yield data, _PAD, hi
            if not read:
                return
            if hi > _PAD:   # the next line's start begins the next block
                data[_PAD : _PAD + end - hi] = data[hi:end]
                end -= hi - _PAD

    def rest(self):
        data, end = self._rest
        return _text_lines(self._stream, bytes(data[_PAD:end]))


_OBSERVATIONS_HEADER_LINE = ",".join(OBSERVATIONS_HEADER).encode() + b"\n"
_OUTCOMES_HEADER_LINE = ",".join(OUTCOMES_HEADER).encode() + b"\n"
# The vectorised parser leaves rows with a longer field to the row loop,
# which also enforces csv's field size limit.
_MAX_FIELD_BYTES = 64
_MAX_WORDS = _MAX_FIELD_BYTES // 8
# Bytes a block's lines have before them (`_LineBlocks`): room for the 3
# words that end at a number field of up to 19 bytes (`_number_words`).
# After them come a newline, for a last line without one, and room for the
# words of a field that starts in the last line (`_field_words`).
_PAD = 24
_TAIL = b"\n" + bytes(_MAX_FIELD_BYTES)
_MIX = np.uint64(0x9E3779B97F4A7C15)   # odd multiplier of the text hash


def _each_byte(byte):
    return np.uint64(int.from_bytes(bytes([byte]) * 8, "little"))


# Word-wise constants of the digit and decimal parsers. Blocks are ASCII, so
# no byte has its high bit set, and adding 0x76 or 0x7f to one carries into
# none; a byte minus "0" is a digit's value, and 0x1e for a ".".
_ZEROS, _ONES = _each_byte(ord("0")), _each_byte(1)
_DOT_DIGIT = np.uint64(ord(".") ^ ord("0"))
_DOT_DIGITS = _each_byte(ord(".") ^ ord("0"))
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
# (divisor, multiply, shift, mask, lane bits): a lane below 10**8, 10**4
# or 100 to its quotient and remainder by 10**4, 100 or 10 (`_ascii_digits`).
_SWAR_SPLITS = tuple(
    tuple(np.uint64(n) for n in split)
    for split in (
        (10000, 109951163, 40, 0, 32),
        (100, 10486, 20, 0x0000007F0000007F, 16),
        (10, 103, 10, 0x000F000F000F000F, 8),
    )
)
_POW10 = np.array([10**n for n in range(20)], dtype=np.uint64)
_POW10_LONG = np.array([float(10**n) for n in range(21)], dtype=np.longdouble)   # exact as float64 too
# Indexed [j, n] for a field of n bytes: how many of its bytes lie in word j
# counted from its start (`_field_words`) or from its end (`_number_words`),
# and a mask that keeps them: the low bytes of a word, or the high ones.
_IN_WORD = np.clip(np.arange(_MAX_FIELD_BYTES + 1) - 8 * np.arange(_MAX_WORDS)[:, None], 0, 8)
_KEEP_LOW = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)[_IN_WORD]
_KEEP_HIGH = np.array([((1 << 8 * n) - 1) << (64 - 8 * n) for n in range(9)], dtype=np.uint64)[_IN_WORD]
_KEEP_LAST = _KEEP_HIGH & _ONES   # the same bytes as bool: 1, not 0xFF
# The top byte of a word with 1 in byte p alone, times _AFTER_DOT[i], is
# 7 - p + 8i: the bytes after byte p of word i counted from a field's end.
_AFTER_DOT = np.array([int.from_bytes(bytes(q + 8 * i for q in range(8)), "little") for i in range(3)], dtype=np.uint64)
# Rows `_values` hands `_plain_decimals` at a time: few enough that its
# temporaries stay small and in cache.
_DECIMAL_ROWS = 1 << 14
# Where np.longdouble has a 64-bit significand or more (x86 extended, IEEE
# quad), w / 10**k rounds once for every uint64 w; elsewhere, double-double
# included (its exponent is a double's), no row takes the exact decimal path.
_EXACT_QUOTIENTS = np.finfo(np.longdouble).nmant >= 63 and np.finfo(np.longdouble).nexp > 11


def _line_fields(data, lo, hi, n_fields):
    """(buf, end, length) of the lines of n_fields comma-separated fields in
    bytes [lo, hi) of `data`, which hold _PAD bytes before them and
    _MAX_FIELD_BYTES bytes after them (`_LineBlocks`): `buf`, those bytes as
    uint8, from _PAD before `lo`, and (lines, n_fields) arrays of the byte
    after each field, counted from `lo`, and of its length. None when
    the lines hold a `"`, a carriage return, a NUL or a non-ASCII byte, a
    line without exactly n_fields - 1 commas (empty lines and quoted fields
    among them), or a field over _MAX_FIELD_BYTES.
    """
    if hi <= lo or any(data.find(c, lo, hi) >= 0 for c in (b'"', b"\r", b"\0")):
        return None
    buf = np.frombuffer(data, dtype=np.uint8, offset=lo - _PAD)
    text = buf[_PAD : _PAD + hi - lo]
    if text.max() >= 0x80:
        return None
    separator = np.flatnonzero(text <= ord(","))
    kind = text[separator]
    pattern = np.array([ord(",")] * (n_fields - 1) + [ord("\n")], dtype=np.uint8)
    for _ in range(2):
        if kind.size % n_fields == 0 and (kind.reshape(-1, n_fields) == pattern).all():
            break
        # the other bytes up to "," (a "+" or a space in a value) separate nothing
        keep = (kind == ord(",")) | (kind == ord("\n"))
        separator, kind = separator[keep], kind[keep]
    else:
        return None
    length = np.empty_like(separator)
    length[0] = separator[0]
    np.subtract(separator[1:], separator[:-1], out=length[1:])
    length[1:] -= 1
    if int(length.max()) > _MAX_FIELD_BYTES:
        return None
    return buf, separator.reshape(-1, n_fields), length.reshape(-1, n_fields)


def _field_words(buf, start, length):
    """Each row's field of `length` bytes from byte `start` of a block
    (`_line_fields`), zero-padded to whole 8-byte words: a (rows, n) '<u8'
    array."""
    n = max(1, -(-int(length.max()) // 8))
    spans = np.ndarray((buf.size - _PAD - 8 * n + 1,), dtype=f"V{8 * n}", buffer=buf, offset=_PAD, strides=(1,))
    out = spans[start].view("<u8").reshape(start.size, n)
    for j in range(n):
        out[:, j] &= _KEEP_LOW[j].take(length)
    return out


def _number_words(buf, end, size):
    """The last `size` (at most 24) bytes of each field ending before byte
    `end` of a block, each minus "0" (a digit's value), at the end of n
    '<u8' words and 0 before them: an (n, fields) array, so that each word
    is contiguous. Digits are right-aligned: word j holds the digits of
    10**(8 * (n - 1 - j)) whatever the field's size."""
    n = max(1, -(-int(size.max()) // 8))
    spans = np.ndarray((buf.size - _PAD + 1,), dtype=f"V{8 * n}", buffer=buf, offset=_PAD - 8 * n, strides=(1,))
    words = spans[end].view("<u8").reshape(end.size, n).T.copy()
    words ^= _ZEROS
    for j in range(n):
        words[j] &= _KEEP_HIGH[n - 1 - j].take(size)
    return words


def _as_strings(fields):
    """`_field_words` output as one bytes string per row."""
    return fields.view(f"S{8 * fields.shape[1]}").ravel()


def _texts(ids) -> list[str]:
    """Ids as str: `_field_words` output, decoded in one pass (a block's
    texts hold no newline), or an object array of str."""
    if ids.dtype == object:
        return ids.tolist()
    return b"\n".join(_as_strings(ids).tolist()).decode("ascii").split("\n") if len(ids) else []


def _widened(words, n):
    """`_field_words` output with zero words up to n words a row."""
    out = np.zeros((words.shape[0], n), dtype=np.uint64)
    out[:, : words.shape[1]] = words
    return out


def _text_keys(words):
    """A 64-bit hash of each row's text (`_field_words` output), the same for
    any number of zero words after it: word j weighs _MIX**(_MAX_WORDS - 1 - j)."""
    weight = [np.uint64(pow(int(_MIX), _MAX_WORDS - 1 - j, 1 << 64)) for j in range(words.shape[1])]
    keys = words[:, 0] * weight[0]
    for j in range(1, words.shape[1]):
        keys += words[:, j] * weight[j]
    return keys


def _first_appearance(words):
    """(rank, first) of the rows' texts (`_field_words` output): rank[i]
    numbers row i's text in order of first appearance, and first[r] is the
    first row of text r."""
    _, first, inverse = np.unique(_text_keys(words), return_index=True, return_inverse=True)
    if not np.array_equal(words, words[first[inverse]]):
        # two texts share a hash: tell them apart by the text itself
        _, first, inverse = np.unique(_as_strings(words), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse.ravel()], first[order]


def _codes(words, index):
    """The code in `index` of each row's text (`_field_words` output).
    `index` maps text to code and numbers the texts it lacks in order of
    first appearance."""
    rank, first = _first_appearance(words)
    texts = _as_strings(words[first]).tolist()
    return np.array([index.setdefault(text.decode("ascii"), len(index)) for text in texts], dtype=np.int64)[rank]


class _SeenTexts:
    """`_codes` for a column with few distinct texts, such as the variable
    names: `index` maps text to code. Each text numbered so far also sits in
    a table of slots addressed by the top bits of its hash key, with its
    code, byte length and words. A block's row finds its code in its slot
    and a comparison of words confirms it; only the rest, new texts and
    texts that lost their slot to another, go through `_codes`."""

    def __init__(self):
        self.index: dict[str, int] = {}
        self._words = np.empty((0, 1), dtype=np.uint64)   # per code, its text's words
        self._lengths = np.empty(0, dtype=np.int64)
        self._shift = np.uint64(63)   # 64 - log2 of the slot count
        self._slot_code = np.zeros(2, dtype=np.int64)
        self._slot_length = np.full(2, -1, dtype=np.int64)   # -1: no text
        self._slot_words = np.zeros((1, 2), dtype=np.uint64)   # one row per word

    def codes(self, words, length):
        """`_codes(words, self.index)`, given each row's byte length."""
        slot = (_text_keys(words) >> self._shift).view(np.int64)
        codes = self._slot_code.take(slot)
        seen = self._slot_length.take(slot) == length
        for j in range(min(words.shape[1], self._slot_words.shape[0])):
            seen &= self._slot_words[j].take(slot) == words[:, j]
        if not seen.all():
            rows = np.flatnonzero(~seen)
            known = len(self.index)
            codes[rows] = _codes(words[rows], self.index)
            if len(self.index) > known:
                self._remember(words[rows], length[rows], codes[rows] - known)
        return codes

    def _remember(self, words, length, new):
        """Add the texts numbered `new` >= 0 (first rows with each) and lay
        out the slots again: the fewest, from twice the texts on, that give
        every text a slot of its own, or 2**16 slots."""
        _, first = np.unique(new, return_index=True)
        first = first[new[first] >= 0]
        n = max(words.shape[1], self._words.shape[1])
        self._words = np.concatenate((_widened(self._words, n), _widened(words[first], n)))
        self._lengths = np.concatenate((self._lengths, length[first]))
        keys = _text_keys(self._words)
        for bits in range(min(16, max(1, (2 * keys.size - 1).bit_length())), 17):
            slots = np.sort(keys >> np.uint64(64 - bits))
            if (slots[1:] != slots[:-1]).all():
                break
        self._shift = np.uint64(64 - bits)
        slots = (keys >> self._shift).view(np.int64)
        self._slot_code = np.zeros(1 << bits, dtype=np.int64)
        self._slot_code[slots] = np.arange(keys.size)
        self._slot_length = np.full(1 << bits, -1, dtype=np.int64)
        self._slot_length[slots] = self._lengths
        self._slot_words = np.zeros((n, 1 << bits), dtype=np.uint64)
        self._slot_words[:, slots] = self._words.T


# Table rows past which a fold numbers its patients and merges their rows
# once the rows have doubled since it last did: patients split across
# blocks, or an unsorted file, cannot grow the tables beyond twice this or
# twice the patients, plus one block's runs.
_MERGE_ROWS = 1 << 15


class _RowIds:
    """The patient id of each row of a fold's tables, in row order. A block
    gives each run of equal ids a row of its own (`runs`), so a patient may
    have several rows until `merge` numbers the patients in order of first
    appearance and folds each one's rows into one. Ids are the words of
    `_field_words`; the row loop's are text, one row per patient it meets."""

    def __init__(self):
        self.words = []      # per block, the words of its runs' ids
        self.size = 0        # rows numbered by blocks
        self.index = None    # {id: row} of the row loop's patients, once it runs
        self.merged = 0      # rows after the last merge

    def __len__(self):
        return self.size + len(self.index or ())

    def runs(self, ids):
        """The table row of each of a block's rows, whose ids are `ids`
        (`_field_words` output): a new row at each change of id."""
        change = np.empty(ids.shape[0], dtype=bool)
        change[0] = True
        np.not_equal(ids[1:, 0], ids[:-1, 0], out=change[1:])
        for j in range(1, ids.shape[1]):
            change[1:] |= ids[1:, j] != ids[:-1, j]
        row = np.cumsum(change, dtype=np.int64)
        row += self.size - 1
        self.words.append(ids[change])
        self.size = int(row[-1]) + 1
        return row

    def numbering(self):
        """(patient of each row, the patients' ids in order of first
        appearance: words, or an object array of str after the row loop)."""
        n = max((words.shape[1] for words in self.words), default=1)
        words = np.concatenate([_widened(words, n) for words in self.words] or [np.zeros((0, n), dtype=np.uint64)])
        if self.index is None:
            rank, first = _first_appearance(words)
            return rank, words[first]
        patients: dict[str, int] = {}
        rank = [patients.setdefault(pid, len(patients)) for pid in _texts(words) + list(self.index)]
        return np.array(rank, dtype=np.int64), np.array(list(patients), dtype=object)

    def merge(self, tables):
        """Number the patients (`numbering`) and fold each one's rows of
        `tables` into one; their ids."""
        rank, ids = self.numbering()
        tables._merge_rows(rank, len(ids))
        if self.index is None:
            self.words, self.size, self.merged = [ids], len(ids), len(ids)
        return ids


def _digits(words, scratch=None):
    """The number that each field of `_number_words` output writes in
    digits, as uint64, exact up to 19 digits; and whether its bytes are all
    digits. `words` is overwritten, and `scratch`, an array of its shape,
    if given.

    Eight digits at a time, on all words at once: the SWAR ("SIMD within a
    register") steps add up the digits of a word in pairs, fours and
    eights. All arithmetic stays in uint64 with np.uint64 scalars, as NumPy
    1 makes a float64 of uint64 mixed with int64.
    """
    over_nine = np.add(words, _ABOVE_NINE, out=scratch)
    for multiply, shift, mask in _SWAR_STEPS:
        words *= multiply
        words >>= shift
        if mask:
            words &= mask
    number, over = words[0], over_nine[0]
    for j in range(1, len(words)):
        number = number * _POW10[8] + words[j]
        over |= over_nine[j]
    return number, (over & _HIGH_BITS) == 0


def _offsets(buf, end, length):
    """Offsets of fields of 1 to 18 plain digits, or None."""
    if length.min() < 1 or length.max() > 18:
        return None
    offset, digits = _digits(_number_words(buf, end, length))
    return offset.view(np.int64) if digits.all() else None


def _plain_decimals(buf, start, end):
    """Each field that is a plain decimal (an optional "-", then 1 to 19
    digits with at most one "." before, among or after them) as `float`
    reads it: (values, indices of the other rows, whose values are unset).

    The digits make an exact uint64 mantissa w, with k of them after the
    point, and w / 10**k goes to float64 through `_quotients`; a row whose
    quotient is not certain is left out too.
    """
    negative = buf[_PAD:][start] == ord("-")
    size = end - start
    size -= negative
    size[size > 19] = 0                         # too long for a uint64: not plain
    words = _number_words(buf, end, size)
    dots = words ^ _DOT_DIGITS
    dots += _LOW_BITS
    np.invert(dots, out=dots)
    dots &= _HIGH_BITS
    dots >>= _SEVEN                             # 1 in each byte that holds a "."
    # With one "." among the words, the products' sum has its place in the
    # top byte; their count is the byte sum of the words' sum.
    places = dots * _AFTER_DOT[len(words) - 1 :: -1, None]
    after, n_dots = places[0], dots[0].copy()
    for j in range(1, len(words)):
        after += places[j]
        n_dots += dots[j]
    after >>= _TOP_BYTE                         # digits after the "."
    n_dots *= _ONES
    n_dots >>= _TOP_BYTE                        # the count of "."s
    dots *= _DOT_DIGIT
    words -= dots                               # a "." is read as a 0 digit
    mantissa, plain = _digits(words, dots)
    del words, dots, places
    plain &= n_dots <= 1
    has_dot = n_dots.astype(bool)
    plain &= size > has_dot
    after = after.view(np.int64)                # k, 0 without a "."
    # With the "." read as 0, mantissa = a * 10**(k + 1) + b for the digits
    # a before it and the k digits b after it; the true mantissa is a * 10**k + b.
    whole, part = np.divmod(mantissa, _POW10.take(after + has_dot, mode="clip"))
    whole *= _POW10.take(after, mode="clip")
    whole += part
    quotient = whole.astype(np.longdouble)
    del whole, part, mantissa
    value, certain = _quotients(quotient, after)
    plain &= certain
    np.negative(value, out=value, where=negative)
    return value, np.flatnonzero(~plain)


def _quotients(quotient, after):
    """(float64 of each quotient / 10**after, whether it is certainly the
    correctly rounded one) for `quotient` an np.longdouble array of
    integers below 2**64, which this overwrites, and `after` in 0..20.

    The quotient is rounded once, in np.longdouble, where both are exact
    (_EXACT_QUOTIENTS). Rounding it to float64 is a second rounding, which
    errs only when the quotient lies on a float64 midpoint: those rows are
    not certain.
    """
    quotient /= _POW10_LONG.take(after, mode="clip")
    value = quotient.astype(np.float64)
    quotient -= value
    # Exact for a 64-bit significand (11 significant bits at most); with a
    # longer one, rounding can only make more rows look like midpoints.
    error = quotient.astype(np.float64)
    # On a midpoint, value + 2 * error is the float64 next to value; off
    # one, it lies between the two and rounds to one of them.
    error *= 2
    return value, (error == 0) | ((value + error) - value != error)


def _nearest_decimals(value, places):
    """(nearest, back, certain, halfway): nearest = rint(value * 10**places),
    the nearest multiple of 10**-places to each positive float64 `value`, as
    uint64; whether nearest / 10**places reads back as `value`; whether both
    are certain; and whether value * 10**places lies so near a half-integer
    that nearest is not. That product is rounded once, in np.longdouble, so
    `halfway` holds only within a few of its units in the last place of a
    half-integer."""
    scaled = value.astype(np.longdouble)
    scaled *= _POW10_LONG.take(places)
    nearest = np.rint(scaled)
    halfway = np.longdouble(0.5) - np.abs(scaled - nearest) <= scaled * np.longdouble(2.0**-62)
    digits = nearest.astype(np.uint64)
    back, exact = _quotients(nearest, places)
    return digits, back == value, ~halfway & exact, halfway


def _shortest_decimals(values):
    """`repr` of each float64 as parts of its fixed notation: (whole,
    fraction, places, other), where |value| is written as the digits of
    `whole`, ".", and `fraction` zero-padded to `places` digits, except for
    the rows in bool mask `other`, whose text only `repr` can give.

    Integral values below 1e16 are their integer with ".0". A non-integral
    value v in [1e-4, 2**52) is written with the fewest places k for which
    the nearest multiple of 10**-k reads back as v (shortest round trip, as
    `repr` has it; Steele & White 1990, Adams 2018): 16 significant digits
    first, 17 where those do not read back, and where they do, fewer while
    they still do, trailing zeros stripped on the way. A row is left to
    `repr` if any step is not certain (`_nearest_decimals`), except a step
    down to a value's half-step (2.25 at one place), which cannot read back;
    and so is every other value (exponent form in repr, or no np.longdouble
    to round in).
    """
    size = np.abs(values)
    whole, fraction = np.zeros(size.size, dtype=np.uint64), np.zeros(size.size, dtype=np.uint64)
    places = np.ones(size.size, dtype=np.int64)
    other = np.ones(size.size, dtype=bool)
    if not _EXACT_QUOTIENTS:
        return whole, fraction, places, other

    def found(rows, digits, at):
        whole[rows], fraction[rows] = np.divmod(digits, _POW10.take(np.minimum(at, 19)))
        places[rows] = at
        other[rows] = False

    integral = size < 1e16   # False for NaN
    integral[integral] = size[integral] == np.floor(size[integral])
    found(np.flatnonzero(integral), size[integral].astype(np.uint64) * _POW10[1], 1)
    rows = np.flatnonzero((size >= 1e-4) & (size < 2.0**52) & ~integral)
    value = size[rows]
    at = np.maximum(15 - np.floor(np.log10(value)).astype(np.int64), 1)   # 16 digits
    nearest, back, certain, _ = _nearest_decimals(value, at)
    up = np.flatnonzero(certain & ~back)
    digits, back_up, certain_up, _ = _nearest_decimals(value[up], at[up] + 1)
    ok = back_up & certain_up
    found(rows[up[ok]], digits[ok], at[up[ok]] + 1)
    down = certain & back
    rows, value, at, digits = rows[down], value[down], at[down], nearest[down]
    while rows.size:
        # a decimal that reads back with trailing zeros does so with fewer places
        zeros = np.flatnonzero(digits % _POW10[1] == 0)
        for n in (16, 8, 4, 2, 1):
            strip = zeros[digits[zeros] % _POW10[n] == 0]
            digits[strip] //= _POW10[n]
            at[strip] -= n
        nearest, back, certain, halfway = _nearest_decimals(value, np.maximum(at - 1, 1))
        # One place is the fewest a non-integral value can have. At 15
        # significant digits or fewer, the decimals a half-step either side
        # of a value are each more than an ulp from it: neither reads back.
        fewer = (at > 1) & ~halfway
        done = ~fewer | (certain & ~back)
        found(rows[done], digits[done], at[done])
        down = fewer & certain & back
        rows, value, at, digits = rows[down], value[down], at[down] - 1, nearest[down]
    return whole, fraction, places, other


def _values(buf, start, end):
    """`float` of each field, or None if one is rejected or not finite.

    Plain decimals are read by `_plain_decimals`; every other row is cast
    with NumPy's bytes-to-float64 `astype`, which reads what `float` does.
    """
    value = np.empty(start.size)
    if _EXACT_QUOTIENTS:
        other = []
        for at in range(0, start.size, _DECIMAL_ROWS):
            rows = slice(at, at + _DECIMAL_ROWS)
            value[rows], left = _plain_decimals(buf, start[rows], end[rows])
            other.append(left + at)
        other = np.concatenate(other)
    else:
        other = np.arange(start.size)
    if other.size:
        try:
            value[other] = _as_strings(_field_words(buf, start[other], end[other] - start[other])).astype(np.float64)
        except ValueError:
            return None
        if not np.isfinite(value[other]).all():
            return None
    return value


def _parse_block(data, lo, hi, patients: _RowIds, variables: _SeenTexts):
    """(patient, variable, offset_minutes, value) of the rows in bytes [lo,
    hi) of `data` (`_LineBlocks`), whole lines of the observations file
    after its header, each run of equal patient ids a row of `patients`;
    None when a row needs the general parser.

    A block is declined when `_line_fields` declines it (a `"`, a carriage
    return, a NUL or a non-ASCII byte, a line without exactly three commas,
    a field over _MAX_FIELD_BYTES), or for an offset that is not 1 to 18
    plain digits, or a value that `float` would reject or make non-finite.
    Every row of an accepted block parses to what the row loop would give
    it. Offsets and plain decimal values (-?digits[.digits], 1 to 19
    digits) are parsed with integer arithmetic on 8-byte words; other
    values (exponents, a "+", "_", spaces, "nan", longer digit strings) and
    the rare decimal whose quotient lands on a float64 midpoint go through
    NumPy's bytes-to-float64 `astype`, as `float` would read them.
    """
    if (fields := _line_fields(data, lo, hi, 4)) is None:
        return None
    buf, end, length = fields
    offset = _offsets(buf, end[:, 2], length[:, 2])
    value = None if offset is None else _values(buf, end[:, 3] - length[:, 3], end[:, 3])
    if value is None:
        return None
    # Nothing is declined past this point, so the indexes only gain texts of accepted rows.
    patient = patients.runs(_field_words(buf, end[:, 0] - length[:, 0], length[:, 0]))
    variable = variables.codes(_field_words(buf, end[:, 1] - length[:, 1], length[:, 1]), length[:, 1])
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


def _row_loop(rows, patients: _RowIds, variable_code):
    """The general parser: one `csv` record at a time, each patient a row of
    `patients` of its own. Yields the columns of every _ROW_LOOP_CHUNK rows,
    then of the rest."""
    index, first = patients.index, patients.size
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
        patient.append(index.setdefault(pid, first + len(index)))
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


def _observation_parts(stream, patients: _RowIds, variables: _SeenTexts):
    """(patient, variable, offset_minutes, value) of consecutive rows of a
    binary observations CSV stream, part by part, in file order.

    Patients are rows of `patients` (`_RowIds.numbering` numbers them),
    and variables are numbered in `variables` in order of first appearance;
    rows at or beyond minute 1440 are kept. The file is read in blocks of
    whole lines (`_LineBlocks`), each parsed with NumPy by `_parse_block`,
    which reads plain decimal values exactly without a Python float per
    row. From the first block that parser declines to the end of the file,
    rows go through `_row_loop`, one `csv` record at a time, which accepts
    all of CSV (quoted fields, CRLF line endings, empty lines) and raises
    every ParseError. Both give the same rows, bit for bit. A file without
    rows raises "no observations".
    """
    blocks = _LineBlocks(stream)
    lines_done, declined = 0, False
    for data, lo, hi in blocks:
        header = lines_done == 0
        if header:
            declined = not data.startswith(_OBSERVATIONS_HEADER_LINE, lo)
            lo += len(_OBSERVATIONS_HEADER_LINE)
        if lo < hi and not declined:
            parts = _parse_block(data, lo, hi, patients, variables)
            declined = parts is None
        if declined:
            break
        if lo < hi:
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
        patients.index = {}
        yield from _row_loop(rows, patients, variables.index)
    if not len(patients):
        raise CohortError("no observations")


def _outcome_columns(data):
    """(ids, event_hours, died) of a whole outcomes file, parsed as a block
    (`_line_fields`): ids as `_field_words`, hours by `_values`, the flag
    byte. None unless every row is as the row loop accepts it and the ids'
    hash keys are distinct, which no duplicate id passes."""
    lo, hi = len(_OUTCOMES_HEADER_LINE), len(data) + (not data.endswith(b"\n"))
    if not data.startswith(_OUTCOMES_HEADER_LINE) or (fields := _line_fields(data + _TAIL, lo, hi, 3)) is None:
        return None
    buf, end, length = fields
    event_hours = _values(buf, end[:, 1] - length[:, 1], end[:, 1])
    flag = buf[_PAD:][end[:, 2] - 1]
    died = flag == ord("1")
    if event_hours is None or not (event_hours > 0).all() or not ((length[:, 2] == 1) & (died | (flag == ord("0")))).all():
        return None
    ids = _field_words(buf, end[:, 0] - length[:, 0], length[:, 0])
    keys = np.sort(_text_keys(ids))
    return None if (keys[1:] == keys[:-1]).any() else (ids, event_hours, died)


def ingest_outcomes(stream):
    """Parse a binary outcomes CSV, exactly one row per patient_id, into
    (ids, event_hours, died), in file order: ids as `_field_words` output,
    or, from the `csv` row loop, an object array of str.

    The file is read whole and parsed as one block (`_outcome_columns`);
    a file that parser declines (a quote, CR, non-ASCII byte, empty line,
    a flag other than 0 or 1, an hour that is not finite and > 0, a
    duplicate id) goes through the row loop, which raises every error."""
    _check_stream(stream)
    data = stream.read()
    if (columns := _outcome_columns(data)) is not None:
        return columns
    rows: dict[str, int] = {}
    event_hours, died = [], []
    for line_no, row in _csv_rows(_text_lines(stream, data), OUTCOMES_HEADER, "outcomes"):
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
    return np.array(list(rows), dtype=object), np.array(event_hours, dtype=float), np.array(died, dtype=bool)


def _ingest_file(path, ingest):
    """`ingest` applied to the file at `path`; its errors name the file."""
    with open(path, "rb") as f:
        try:
            return ingest(f)
        except ParseError as exc:
            raise ParseError(exc.line_no, exc.message, path) from None
        except CohortError as exc:
            raise CohortError(f"{path}: {exc}") from None


def _outcome_rows(ids, outcome_ids):
    """The row of `outcome_ids` that holds each of the distinct `ids`, or
    None if the two hold different ids. Words on both sides (the block
    parsers', whose outcome keys are distinct) pair by sorted hash key and a
    comparison of words; text on either side pairs through a dict."""
    if len(ids) != len(outcome_ids):
        return None
    if ids.dtype == object or outcome_ids.dtype == object:
        rows = {pid: row for row, pid in enumerate(_texts(outcome_ids))}
        row = np.array([rows.get(pid, -1) for pid in _texts(ids)], dtype=np.int64)
        return None if (row < 0).any() else row
    n = max(ids.shape[1], outcome_ids.shape[1])
    ids, outcome_ids = _widened(ids, n), _widened(outcome_ids, n)
    keys = _text_keys(outcome_ids)
    order = np.argsort(keys)
    row = order.take(np.searchsorted(keys, _text_keys(ids), sorter=order), mode="clip")
    return row if np.array_equal(outcome_ids[row], ids) else None


def _paired_outcomes(ids, observations_path, outcomes_path):
    """(event_hours, died) of the patients `ids` (`_RowIds.numbering`) of
    the observations file, read from the outcomes file and paired by id."""
    outcome_ids, event_hours, died = _ingest_file(outcomes_path, ingest_outcomes)
    row = _outcome_rows(ids, outcome_ids)
    if row is None:
        missing = sorted(set(_texts(ids)).symmetric_difference(_texts(outcome_ids)))[:5]
        raise CohortError(
            f"{observations_path}, {outcomes_path}: "
            f"observations and outcomes cover different patients (e.g. {missing})"
        )
    return event_hours[row], died[row]


class _Fold:
    """Observation rows folded into window tables as they are parsed, with
    the ids of the tables' rows (`_RowIds`) and the variable names."""

    def __init__(self, window_minutes, table):
        self.tables = WindowTables(window_minutes, table)
        self.patients, self.variables = _RowIds(), _SeenTexts()

    def add(self, parts):
        """Fold a part in; merge each patient's rows if blocks have doubled
        the rows past _MERGE_ROWS since the last merge."""
        self.tables.add(parts, self.variables.index)
        patients = self.patients
        if patients.index is None and patients.size > max(2 * patients.merged, _MERGE_ROWS):
            patients.merge(self.tables)

    def finish(self, observations_path, outcomes_path) -> "WindowTables":
        """The tables, one row per patient in order of first appearance,
        with the patients' outcomes paired by id."""
        ids = self.patients.merge(self.tables)
        event_hours, died = _paired_outcomes(ids, observations_path, outcomes_path)
        return self.tables.finish(_texts(ids), self.variables.index, event_hours, died)


def _fold_range(path, start, stop, window_minutes, table) -> "_Fold | None":
    """The whole lines of bytes [start, stop) of the observations file folded
    on their own, without outcomes; None if `_parse_block` declines a block."""
    fold = _Fold(window_minutes, table)
    with open(path, "rb") as f:
        f.seek(start)
        for data, lo, hi in _LineBlocks(f, stop - start):
            if (parts := _parse_block(data, lo, hi, fold.patients, fold.variables)) is None:
                return None
            fold.add(parts)
    fold.tables._cut(fold.patients.size, fold.variables.index)
    return fold


def _merge_ranges(folds) -> "_Fold":
    """The folds of consecutive ranges, in file order, as one fold, bit for
    bit: their rows one after another, with the variables numbered again by
    first appearance. `_Fold.finish` merges each patient's rows."""
    merged = _Fold(folds[0].tables.window_minutes, folds[0].tables.score_table)
    vocabulary = merged.variables.index
    for name in (name for fold in folds for name in fold.variables.index):
        vocabulary.setdefault(name, len(vocabulary))
    tables = merged.tables
    tables._grow(sum(fold.patients.size for fold in folds), vocabulary)
    at = 0
    for fold in folds:
        rows = slice(at, at + fold.patients.size)
        columns = np.array([vocabulary[name] for name in fold.variables.index], dtype=np.intp)
        tables.worst[rows, :, columns] = fold.tables.worst
        tables.seen[rows, columns] = fold.tables.seen
        tables.n_rows[rows] = fold.tables.n_rows
        merged.patients.words += fold.patients.words
        at = rows.stop
    merged.patients.size = at
    return merged


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


def _fold_in_ranges(path, window_minutes, table) -> "_Fold | None":
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
    fold = _fold_in_ranges(observations_path, window_minutes, table)
    if fold is None:
        fold = _Fold(window_minutes, table)

        def parse(stream):
            for parts in _observation_parts(stream, fold.patients, fold.variables):
                fold.add(parts)

        _ingest_file(observations_path, parse)
    return fold.finish(observations_path, outcomes_path)


# Texts `csv.writer` writes as they are among other fields: no delimiter,
# quote, space or line break (an empty text included).
_PLAIN_FIELD = re.compile(r"[A-Za-z0-9_.\-]*")


def _csv_fields(texts) -> list[str]:
    """Each text as `csv.writer` writes it among other fields of a row:
    quoted where the csv module's minimal quoting says so. Texts of ASCII
    letters, digits, "_", "-" and "." pass through unchanged, all checked
    at once when all are; every other text is written by `csv.writer`
    itself."""
    texts = list(texts)
    if _PLAIN_FIELD.fullmatch("".join(texts)):
        return texts
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


def _ascii_digits(numbers, n_words):
    """The last 8 * n_words decimal digits of each uint64 number, zero-padded,
    as ASCII: a (rows, 8 * n_words) uint8 array.

    The reverse of `_digits`, 8 digits a word: each step splits every lane
    of a word into its quotient and remainder by 10**4, 100 and 10, and
    moves the remainder into the lane's upper half, so the first digit
    ends in the lowest byte. Multiply-and-shift divides exactly for the
    lanes' ranges."""
    out = np.empty((numbers.size, n_words), dtype="<u8")
    rest = numbers
    for j in range(n_words - 1, -1, -1):
        rest, word = np.divmod(rest, _POW10[8]) if j else (None, rest.astype(np.uint64))
        for divisor, multiply, shift, mask, lane in _SWAR_SPLITS:
            quotient = (word * multiply) >> shift
            if mask:
                quotient &= mask
            word -= quotient * divisor
            word <<= lane
            word |= quotient
        word |= _ZEROS
        out[:, j] = word
    return out.view(np.uint8)


def _number_piece(numbers, count=None, keep=None):
    """uint64 numbers as a piece of lines (`_joined`): their last `count`
    digits (default: all, at least one), in rows where `keep` is True."""
    if count is None:
        count = np.maximum(np.searchsorted(_POW10, numbers, side="right"), 1)
    if keep is not None:
        count = count * keep
    n_words = max(1, -(-int(count.max(initial=1)) // 8))
    mask = np.empty((numbers.size, n_words), dtype="<u8")
    for j in range(n_words):
        mask[:, j] = _KEEP_LAST[n_words - 1 - j].take(count)
    return _ascii_digits(numbers, n_words), mask.view(np.bool_)


def _text_pieces(texts):
    """Texts as UTF-8, one row each: a one-piece list (`_joined`)."""
    texts = list(texts)
    try:   # ASCII texts, a byte a character, encoded by NumPy without a bytes object each
        return _byte_pieces(np.array(texts, dtype=bytes), np.fromiter(map(len, texts), np.int64, len(texts)))
    except UnicodeEncodeError:
        return _byte_pieces([text.encode() for text in texts])


def _byte_pieces(encoded, length=None):
    """Bytes strings, a list or an "S" array with their `length`, one row
    each: a one-piece list (`_joined`)."""
    if length is None:
        length = np.fromiter(map(len, encoded), np.int64, len(encoded))
    width = int(length.max(initial=0))
    data = np.asarray(encoded, dtype=f"S{max(width, 1)}").view(np.uint8).reshape(len(length), max(width, 1))
    return [(data[:, :width], np.arange(width) < length[:, None])]


def _value_pieces(values):
    """float64 values as their `repr`: pieces of lines (`_joined`)."""
    whole, fraction, places, other = _shortest_decimals(values)
    [(texts, kept)] = _text_pieces([repr(value) for value in values[other].tolist()])
    written = np.zeros((values.size, texts.shape[1]), dtype=np.uint8)
    written[other] = texts
    fallback = np.zeros(written.shape, dtype=bool)
    fallback[other] = kept
    decimal = ~other
    return [
        (np.full((values.size, 1), ord("-"), dtype=np.uint8), (decimal & np.signbit(values))[:, None]),
        _number_piece(whole, keep=decimal),
        (np.full((values.size, 1), ord("."), dtype=np.uint8), decimal[:, None]),
        _number_piece(fraction, places, keep=decimal),
        (written, fallback),
    ]


def _value_table(values):
    """float64 values as their `repr`, one row each: a one-piece list
    (`_joined`) of the texts, laid out _LINE_ROWS values at a time."""
    lines = _lines(lambda rows: [*_value_pieces(values[rows]), _NEWLINE], 0, values.size)
    return _byte_pieces(b"".join(lines).split(b"\n")[:-1])


def _rows(pieces, index):
    """The rows `index` (an index array or a slice) of a table's pieces."""
    return [(data[index], mask[index]) for data, mask in pieces]


def _constant(text):
    """The same bytes in every line: a piece (`_joined`)."""
    return np.frombuffer(text, dtype=np.uint8)[None, :], None


_COMMA, _NEWLINE = _constant(b","), _constant(b"\n")


def _joined(n, pieces) -> np.ndarray:
    """The bytes of n lines laid out in pieces, as a uint8 array: a piece
    is a (data, mask) pair of a (rows, width) uint8 array of bytes,
    fixed-width with one row per line or one row for all, and a (rows,
    width) bool mask of the bytes each line keeps (None: all). Each line is
    the kept bytes of its pieces, in order; the lines are compressed out of
    the byte matrix at once."""
    data = np.concatenate([np.broadcast_to(d, (n, d.shape[1])) for d, _ in pieces], axis=1)
    mask = np.concatenate([np.broadcast_to(True if m is None else m, (n, d.shape[1])) for d, m in pieces], axis=1)
    return data[mask]


def _lines(line, start, stop):
    """The lines of rows [start, stop) laid out by `line(rows)`, a list of
    pieces for a slice of rows, as uint8 arrays of their bytes (`_joined`),
    _LINE_ROWS rows at a time."""
    for at in range(start, stop, _LINE_ROWS):
        rows = slice(at, min(at + _LINE_ROWS, stop))
        yield _joined(rows.stop - rows.start, line(rows))


def write_observations(cohort: RawCohort, path) -> None:
    """The observations CSV: one row per observation, in cohort order, each
    value as its `repr`; byte for byte what `csv.writer` writes.

    Lines are laid out as bytes (`_lines`), values by `_shortest_decimals`.
    A cohort of 2 * _WRITE_RANGE_ROWS rows or more is cut into n = min(usable
    CPUs, rows // _WRITE_RANGE_ROWS) contiguous ranges, laid out at once here
    and in forked children (`map_in_children`) and written in order; with
    fewer, or if a child fails, the rows are laid out serially, to the same
    bytes.
    """
    pids, names = _text_pieces(_csv_fields(cohort.patient_ids)), _text_pieces(_csv_fields(cohort.vocabulary))

    def line(rows):
        return [
            *_rows(pids, cohort.patient[rows]), _COMMA,
            *_rows(names, cohort.variable[rows]), _COMMA,
            _number_piece(cohort.offset_minutes[rows].view(np.uint64)), _COMMA,
            *_value_pieces(cohort.value[rows]), _NEWLINE,
        ]

    n_rows = cohort.patient.size
    n = max(1, min(usable_cpus(), n_rows // _WRITE_RANGE_ROWS))
    cuts = [n_rows * i // n for i in range(n + 1)]
    ranges = map_in_children(lambda cut: list(_lines(line, *cut)), list(zip(cuts, cuts[1:])))
    with open(path, "wb") as f:
        f.write(_OBSERVATIONS_HEADER_LINE)
        f.writelines(_lines(line, 0, n_rows) if ranges is None else itertools.chain(*ranges))


def write_outcomes(cohort: RawCohort, path) -> None:
    """The outcomes CSV: one row per patient, in patient order."""
    pids = _text_pieces(_csv_fields(cohort.patient_ids))

    def line(rows):
        return [
            *_rows(pids, rows), _COMMA,
            *_value_pieces(cohort.event_hours[rows]), _COMMA,
            _number_piece(cohort.died[rows].astype(np.uint64)), _NEWLINE,
        ]

    with open(path, "wb") as f:
        f.write(_OUTCOMES_HEADER_LINE)
        f.writelines(_lines(line, 0, cohort.n_patients))


def write_predictions(path, patient_ids, eta_by_day) -> None:
    """predictions.csv, one `patient_id,target_day,repr(eta)` line per patient and day, laid out
    as bytes (`_lines`); each day's distinct etas, told apart by bit pattern (0.0 and -0.0
    too), are formatted once."""
    pids = _text_pieces(_csv_fields(patient_ids))
    with open(path, "wb") as f:
        f.write(b"patient_id,target_day,eta\n")
        for day, eta in eta_by_day.items():
            bits, text_of = np.unique(np.asarray(eta, dtype=np.float64).view(np.uint64), return_inverse=True)
            etas, day_field = _value_table(bits.view(np.float64)), _constant(f",{day},".encode())

            def line(rows):
                return [*_rows(pids, rows), day_field, *_rows(etas, text_of[rows]), _NEWLINE]

            f.writelines(_lines(line, 0, len(patient_ids)))


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

    def _cut(self, n_rows: int, vocabulary) -> None:
        """The tables cut to their first n_rows rows and to `vocabulary`."""
        self._grow(n_rows, vocabulary)
        self.worst = self.worst[:n_rows, :, : len(vocabulary)]
        self.seen, self.n_rows = self.seen[:n_rows, : len(vocabulary)], self.n_rows[:n_rows]

    def _merge_rows(self, patient, n_patients: int) -> None:
        """Fold row i into row patient[i] of n_patients, where every patient
        has a row: worst by max, seen by or, n_rows by sum. Rows already in
        patient order, as a sorted file's are, are not sorted again."""
        order = None if (patient[1:] >= patient[:-1]).all() else np.argsort(patient, kind="stable")
        grouped = patient if order is None else patient[order]
        starts = np.flatnonzero(np.diff(grouped, prepend=-1))
        for name, merge in (("worst", np.maximum), ("seen", np.logical_or), ("n_rows", np.add)):
            rows = getattr(self, name)[: patient.size]
            rows = rows if order is None else rows[order]
            setattr(self, name, merge.reduceat(rows, starts) if n_patients else rows)

    def finish(self, patient_ids, vocabulary, event_hours, died) -> "WindowTables":
        """The tables cut to `patient_ids` and `vocabulary`, which may name
        patients and variables no row was folded for, with the outcomes."""
        self._cut(len(patient_ids), vocabulary)
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
    cohort: WindowTables, required_variables=DEFAULT_REQUIRED_VARIABLES, window_hours: int | None = None
) -> WindowTables:
    """The tables of the patients with >= MIN_STAY_HOURS of follow-up and
    complete required coverage (`WindowTables.kept`); a `window_hours` that
    is given must be the tables' size. A RawCohort is folded first, in
    `window_hours` windows without a score table: this one statement serves
    the benchmark's set-up, which counts the kept patients and rows of its
    synthetic cohort, and goes once that set-up calls `window_tables`.
    """
    if isinstance(cohort, RawCohort):
        if window_hours is None:
            raise ValueError("filter_cohort of a RawCohort needs window_hours to fold it in")
        cohort = window_tables(cohort, 60 * window_hours)
    if window_hours is not None and cohort.window_minutes != 60 * window_hours:
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
    # One sort key, patient then offset. Offsets are below 1440, or below
    # one sampling interval for rates under one a day; only intervals near
    # 2**63 / patients minutes (rates near 1e-16 an hour) overflow the key.
    stride = int(offsets.max(initial=0)) + 1
    if n_patients * stride < 2**63:
        order = np.argsort(patient * stride + offsets, kind="stable")
    else:
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
