import contextlib
import gc
import io
import os
import pickle
import re
import signal
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from icurisk import cohort as cohort_module
from icurisk.cohort import (
    DEFAULT_REQUIRED_VARIABLES,
    CohortError,
    ParseError,
    RawCohort,
    SynthConfig,
    WindowTables,
    filter_cohort,
    generate_synthetic_cohort,
    ingest_outcomes,
    load_cohort,
    window_tables,
    write_observations,
    write_outcomes,
)
from icurisk.features import build_feature_matrix, load_default_score_table
from conftest import (
    assert_same_tables,
    cohort_from_rows,
    count_calls,
    no_child_left,
    parse_observations,
    rows_cohort,
    write_cohort_files,
)
from oracles import cohort_rows, filter_ids


def traced_peak(run):
    """The tracemalloc peak of `run()`."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def obs_stream(*rows):
    body = "patient_id,variable,offset_minutes,value\n" + "\n".join(rows) + "\n"
    return io.BytesIO(body.encode())


def out_stream(*rows):
    body = "patient_id,event_hours,death_flag\n" + "\n".join(rows) + "\n"
    return io.BytesIO(body.encode())


def same_cohort(a, b) -> bool:
    return (
        a.patient_ids == b.patient_ids
        and cohort_rows(a) == cohort_rows(b)
        and a.event_hours.tobytes() == b.event_hours.tobytes()
        and np.array_equal(a.died, b.died)
    )


def death_fraction_by(cohort, day) -> float:
    """Fraction of patients dead by midnight of the given day since admission."""
    return float(np.mean(cohort.died & (cohort.event_hours <= 24.0 * day)))


class TestIngestObservations:
    def test_single_row_maps_fields(self):
        parsed = parse_observations(obs_stream("p1,heart_rate,30,112"))
        assert parsed["patient_ids"] == ["p1"]
        assert parsed["vocabulary"] == ("heart_rate",)
        assert parsed["patient"].tolist() == [0]
        assert parsed["variable"].tolist() == [0]
        assert parsed["offset_minutes"].tolist() == [30]
        assert parsed["value"].tolist() == [112.0]

    def test_non_numeric_offset_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_observations(obs_stream("p1,heart_rate,abc,112"))

    def test_rows_sorted_by_offset(self):
        parsed = parse_observations(
            obs_stream("p1,heart_rate,90,80", "p1,heart_rate,30,70")
        )
        assert parsed["offset_minutes"].tolist() == [30, 90]
        assert parsed["value"].tolist() == [70.0, 80.0]

    def test_rows_grouped_by_patient_in_first_appearance_order(self):
        parsed = parse_observations(
            obs_stream(
                "p2,gcs,50,9",
                "p1,heart_rate,40,70",
                "p2,heart_rate,10,80",
                "p2,gcs,10,12",
                "p1,gcs,40,15",
            )
        )
        assert parsed["patient_ids"] == ["p2", "p1"]
        assert parsed["vocabulary"] == ("gcs", "heart_rate")
        assert parsed["patient"].tolist() == [0, 0, 0, 1, 1]
        assert parsed["offset_minutes"].tolist() == [10, 10, 50, 40, 40]
        # equal offsets keep file order
        assert parsed["value"].tolist() == [80.0, 12.0, 9.0, 70.0, 15.0]

    def test_beyond_first_day_retained_and_flagged(self):
        # the row is kept, and the window rule is what leaves it out
        columns = parse_observations(obs_stream("p1,heart_rate,1440,80"))
        assert columns["offset_minutes"].tolist() == [1440]
        cohort = RawCohort(**columns, event_hours=[30.0], died=[False])
        tables = window_tables(cohort, 720)
        assert tables.seen.tolist() == [[True]] and (tables.worst == -1).all()

    def test_negative_offset_names_line(self):
        with pytest.raises(ParseError, match="line 3: offset_minutes must be >= 0"):
            parse_observations(obs_stream("p1,heart_rate,30,112", "p1,heart_rate,-5,112"))

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="4 fields"):
            parse_observations(obs_stream("p1,heart_rate,30"))

    def test_non_numeric_value(self):
        with pytest.raises(ParseError, match="value"):
            parse_observations(obs_stream("p1,heart_rate,30,high"))

    def test_duplicate_header_row(self):
        with pytest.raises(ParseError, match="duplicate header"):
            parse_observations(
                obs_stream("p1,heart_rate,30,112", "patient_id,variable,offset_minutes,value")
            )

    def test_empty_file(self):
        with pytest.raises(CohortError, match="no observations"):
            parse_observations(io.BytesIO(b""))

    def test_header_only_file(self):
        with pytest.raises(CohortError, match="no observations"):
            parse_observations(io.BytesIO(b"patient_id,variable,offset_minutes,value\n"))

    def test_non_finite_value_rejected(self):
        with pytest.raises(ParseError, match="line 2: non-finite"):
            parse_observations(obs_stream("p1,heart_rate,30,nan"))

    @pytest.mark.parametrize(
        "ingest, stream",
        [(parse_observations, obs_stream("p1,heart_rate,30,112")), (ingest_outcomes, out_stream("p1,10,0"))],
        ids=["observations", "outcomes"],
    )
    def test_text_stream_rejected_and_left_open(self, ingest, stream):
        text = io.StringIO(stream.getvalue().decode(), newline="")
        with pytest.raises(TypeError, match="binary stream"):
            ingest(text)
        assert not text.closed and text.tell() == 0

    def test_stream_stays_open_after_parse_error(self):
        stream = obs_stream("p1,heart_rate,abc,112")
        with pytest.raises(ParseError):
            parse_observations(stream)
        assert not stream.closed

    def test_path_rejected(self):
        with pytest.raises(TypeError, match="file-like"):
            parse_observations("observations.csv")

    def test_invalid_utf8_names_line(self):
        stream = io.BytesIO(
            b"patient_id,variable,offset_minutes,value\np1,hr,5,1\np1,hr,5,\xff2\np1,hr,6,x\n"
        )
        with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8 byte 0xff$"):
            parse_observations(stream)

    def test_invalid_utf8_in_header_names_line_1(self):
        with pytest.raises(ParseError, match="^line 1: invalid UTF-8"):
            parse_observations(io.BytesIO(b"patient_id\xc3,variable\n"))

    def test_invalid_utf8_after_quoted_newline_counts_records(self):
        stream = io.BytesIO(obs_stream('"p\n1",hr,5,1', "p2,hr,5,?").getvalue().replace(b"?", b"\xfe"))
        with pytest.raises(ParseError, match="^line 3: invalid UTF-8 byte 0xfe"):
            parse_observations(stream)

    def test_plain_file_never_reaches_row_loop(self, monkeypatch):
        monkeypatch.setattr(cohort_module, "BLOCK_BYTES", 16)
        monkeypatch.setattr(cohort_module, "_row_loop", None)   # calling it would fail
        parsed = parse_observations(obs_stream("p1,heart_rate,30,112", "p1,gcs,45,14.5"))
        assert parsed["patient_ids"] == ["p1"]
        assert parsed["value"].tolist() == [112.0, 14.5]

    def test_quoted_and_crlf_files_parse_alike(self):
        plain = parse_observations(obs_stream("p1,heart_rate,30,112", "p2,gcs,5,14"))
        quoted = parse_observations(
            io.BytesIO(b'patient_id,variable,offset_minutes,value\r\n"p1",heart_rate,30,112\r\n'
                       b'p2,"gcs",5,14\r\n')
        )
        assert quoted["patient_ids"] == plain["patient_ids"]
        assert quoted["vocabulary"] == plain["vocabulary"]
        for name in ("patient", "variable", "offset_minutes", "value"):
            assert np.array_equal(quoted[name], plain[name])

    @pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "ranges"])
    def test_fold_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch, cpus):
        # The fold holds per-patient tables and the parse of one block, so
        # for 2,000 patients its peak is the same at 200,000 and 400,000
        # rows, below 16 B a row (half of what holding the four columns
        # took), and below 4 MiB: a block's parse takes a few times
        # BLOCK_BYTES. Both files (6 and 12 MB) take the same path: serial
        # with one usable CPU, in two ranges with two, where this process
        # folds one range and merges (a child's memory is not traced here).
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(cohort_module, "_RANGE_BYTES", 1 << 20)
        table = load_default_score_table()
        rng = np.random.default_rng(2)
        names = ("heart_rate", "blood_pressure", "gcs", "temperature", "age")
        obs, out = tmp_path / "observations.csv", tmp_path / "outcomes.csv"
        out.write_text("patient_id,event_hours,death_flag\n" + "".join(f"p{i:04d},48.0,0\n" for i in range(2000)))
        peaks = []
        for n in (200_000, 400_000):
            per_patient = n // 2000
            values = (100 + 20 * rng.standard_normal(n)).tolist()
            with open(obs, "w", encoding="utf-8") as f:
                f.write("patient_id,variable,offset_minutes,value\n")
                f.writelines(
                    f"p{i // per_patient:04d},{names[i % 5]},{(i % per_patient) * 1400 // per_patient},{v!r}\n"
                    for i, v in enumerate(values)
                )
            del values
            peaks.append(traced_peak(lambda: load_cohort(obs, out, 720, table)))
        fold_small, fold_large = peaks
        assert abs(fold_large - fold_small) <= 0.05 * fold_small
        assert fold_small < 16 * 200_000 and fold_large < 16 * 400_000
        assert max(fold_small, fold_large) < 4 << 20

    def test_written_values_are_read_as_plain_decimals(self, small_cohort, tmp_path, monkeypatch):
        # Values that miss the exact decimal parse are still read right, by
        # `astype`, so only a count shows a parse that misses them all.
        path = tmp_path / "observations.csv"
        write_observations(small_cohort, path)
        rows, left = [], []
        plain_decimals = cohort_module._plain_decimals

        def counting(buf, start, length):
            value, other = plain_decimals(buf, start, length)
            rows.append(start.size)
            left.append(other.size)
            return value, other

        monkeypatch.setattr(cohort_module, "_plain_decimals", counting)
        with open(path, "rb") as f:
            parsed = parse_observations(f)
        assert sum(rows) == parsed["value"].size   # every row was parsed in blocks
        assert sum(left) <= 0.01 * sum(rows)


class TestIngestOutcomes:
    def test_direct_mapping(self):
        ids, event_hours, died = ingest_outcomes(out_stream("p1,132.5,1", "p0,40,0"))
        assert cohort_module._texts(ids) == ["p1", "p0"]
        assert event_hours.dtype == np.float64 and event_hours.tolist() == [132.5, 40.0]
        assert died.dtype == bool and died.tolist() == [True, False]

    def test_duplicate_patient(self):
        with pytest.raises(ParseError, match="duplicate"):
            ingest_outcomes(out_stream("p1,132.5,1", "p1,10,0"))

    def test_negative_hours(self):
        with pytest.raises(ParseError):
            ingest_outcomes(out_stream("p2,-4,0"))
        for hours, shown in (("-4", "-4.0"), ("0", "0.0"), ("nan", "nan"), ("inf", "inf"), ("-inf", "-inf")):
            message = f"^line 3: event_hours must be finite and > 0, got {shown} for p2$"
            with pytest.raises(ParseError, match=message):
                ingest_outcomes(out_stream("p1,10,1", f"p2,{hours},0"))

    def test_bad_flag(self):
        with pytest.raises(ParseError, match="death_flag"):
            ingest_outcomes(out_stream("p1,10,2"))

    def test_invalid_utf8_names_line(self):
        with pytest.raises(ParseError, match="^line 2: invalid UTF-8 byte 0xff"):
            ingest_outcomes(io.BytesIO(b"patient_id,event_hours,death_flag\np\xff1,10,1\n"))


class TestLoadCohort:
    def test_parse_errors_name_the_file(self, tmp_path):
        obs, out = tmp_path / "obs.csv", tmp_path / "out.csv"
        obs.write_bytes(obs_stream("p1,heart_rate,30,112", "p1,heart_rate,31,x").getvalue())
        out.write_bytes(out_stream("p1,30,0").getvalue())
        with pytest.raises(ParseError, match=f"^{obs}: line 3: non-numeric value 'x'$") as info:
            load_cohort(obs, out, 720, None)
        assert info.value.line_no == 3 and info.value.path == obs
        out.write_bytes(out_stream("p1,30,2").getvalue())
        obs.write_bytes(obs_stream("p1,heart_rate,30,112").getvalue())
        with pytest.raises(ParseError, match=f"^{out}: line 2: death_flag"):
            load_cohort(obs, out, 720, None)

    def test_field_over_csv_limit_names_file_and_line(self, tmp_path):
        obs, out = tmp_path / "obs.csv", tmp_path / "out.csv"
        long_id = '"' + "p" * 140_000 + '"'
        obs.write_bytes(obs_stream("p1,heart_rate,30,112", f"{long_id},heart_rate,31,90").getvalue())
        out.write_bytes(out_stream("p1,30,0").getvalue())
        message = "field larger than field limit (131072)"
        with pytest.raises(ParseError, match=rf"^{obs}: line 3: {re.escape(message)}$"):
            load_cohort(obs, out, 720, None)
        with pytest.raises(ParseError, match=rf"^line 2: {re.escape(message)}$"):
            ingest_outcomes(out_stream(f"{long_id},30,0"))

    def test_cohort_errors_name_the_files(self, tmp_path):
        obs, out = tmp_path / "obs.csv", tmp_path / "out.csv"
        obs.write_bytes(b"patient_id,variable,offset_minutes,value\n")
        out.write_bytes(out_stream("p1,30,0").getvalue())
        with pytest.raises(CohortError, match=f"^{obs}: no observations$"):
            load_cohort(obs, out, 720, None)
        obs.write_bytes(obs_stream("p2,heart_rate,30,112").getvalue())
        with pytest.raises(CohortError, match=f"^{obs}, {out}: observations and outcomes cover"):
            load_cohort(obs, out, 720, None)
        # as many patients on each side, but not the same ones
        out.write_bytes(out_stream("p1,30,0", "p2,30,0").getvalue())
        obs.write_bytes(obs_stream("p2,heart_rate,30,112", "p3,heart_rate,30,112").getvalue())
        mismatch = rf"^{obs}, {out}: observations and outcomes cover different patients"
        with pytest.raises(CohortError, match=rf"{mismatch} \(e.g. \['p1', 'p3'\]\)$"):
            load_cohort(obs, out, 720, None)
        # a patient with outcomes but no observations
        out.write_bytes(out_stream("p2,30,0", "p3,30,0", "p4,30,0").getvalue())
        with pytest.raises(CohortError, match=rf"{mismatch} \(e.g. \['p4'\]\)$"):
            load_cohort(obs, out, 720, None)

    def test_outcomes_pair_by_id_from_either_parser(self, tmp_path):
        # Block-parsed ids pair by sorted hash key, row-loop ids (CRLF or a
        # quoted id, in either file) through a dict: the same pairs, or the
        # same message for extra and missing patients.
        obs, out = tmp_path / "obs.csv", tmp_path / "out.csv"
        rows = ["p1,10.5,1", "p2,20.5,0", "p3,30.5,1"]
        for newline in (b"\n", b"\r\n"):
            obs.write_bytes(obs_stream("p3,heart_rate,30,100", "p1,gcs,5,9", "p2,gcs,5,9").getvalue().replace(b"\n", newline))
            for body in (rows, rows[::-1], ['"p1",10.5,1', *rows[1:]]):
                for out_newline in (b"\n", b"\r\n"):
                    out.write_bytes(out_stream(*body).getvalue().replace(b"\n", out_newline))
                    tables = load_cohort(obs, out, 720, None)
                    assert tables.patient_ids == ["p3", "p1", "p2"]
                    assert tables.event_hours.tolist() == [30.5, 10.5, 20.5]
                    assert tables.died.tolist() == [True, True, False]
            mismatch = rf"^{obs}, {out}: observations and outcomes cover different patients"
            for body, shown in ((["p1,10,1", "p2,20,0", "p4,5,0"], "['p3', 'p4']"), ([*rows, "p5,5,0"], "['p5']"),
                                (rows[:2], "['p3']"), (['"p1",10,1', "p2,20,0", "p4,5,0"], "['p3', 'p4']")):
                out.write_bytes(out_stream(*body).getvalue())
                with pytest.raises(CohortError, match=rf"{mismatch} \(e.g. {re.escape(shown)}\)$"):
                    load_cohort(obs, out, 720, None)

    def test_outcomes_align_by_id_not_by_row(self, tmp_path):
        obs, out = tmp_path / "obs.csv", tmp_path / "out.csv"
        rows = [
            f"{pid},{var},{offset},100"
            for pid in ("p2", "p1", "p3")
            for var in ("heart_rate", "blood_pressure", "gcs")
            for offset in ((0,) if pid == "p1" else (0, 720))   # p1 misses the second window
        ]
        obs.write_bytes(obs_stream(*rows).getvalue())
        out.write_bytes(out_stream("p3,80.5,0", "p1,30.25,1", "p2,50.75,1").getvalue())
        tables = load_cohort(obs, out, 720, None)
        assert tables.patient_ids == ["p2", "p1", "p3"]   # observations' first-appearance order
        assert tables.event_hours.tolist() == [50.75, 30.25, 80.5]
        assert tables.died.tolist() == [True, True, False]

        kept = filter_cohort(tables)
        assert kept.patient_ids == ["p2", "p3"]
        assert kept.event_hours.tolist() == [50.75, 80.5]
        assert kept.died.tolist() == [True, False]

        # written back in patient order, not in the outcomes file's order
        cohort = rows_cohort(obs, out)
        write_outcomes(cohort, out)
        assert out.read_text() == "patient_id,event_hours,death_flag\np2,50.75,1\np1,30.25,1\np3,80.5,0\n"
        assert_same_tables(load_cohort(obs, out, 720, None), tables)


class TestRangeFold:
    """`_fold_range` and `_merge_ranges` in this process: the merge of
    line-aligned ranges equals the serial fold."""

    LINES = [
        "p1,heart_rate,30,112",
        "p1,gcs,40,14",               # a cut after this line: p1 straddles it
        "p1,heart_rate,800,131.5",
        "p2,heart_rate,10,70",
        "p2,temperature,5,38.5",      # a variable first seen in a later range
        "p1,blood_pressure,1500,80",  # unsorted: p1 again, after p2, past minute 1440
        "p3,gcs,700,9",
    ]

    def test_merged_ranges_equal_the_serial_fold(self, tmp_path):
        table = load_default_score_table()
        obs, out = tmp_path / "obs.csv", tmp_path / "out.csv"
        obs.write_bytes(obs_stream(*self.LINES).getvalue())
        out.write_bytes(out_stream("p3,30,0", "p2,50,1", "p1,20,0").getvalue())
        data = obs.read_bytes()
        starts = [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]   # the header's end first
        # ranges of 2, 0 (an empty one), 1, 3 and 1 lines
        cuts = [starts[0], starts[2], starts[2], starts[3], starts[6], len(data)]
        folds = [cohort_module._fold_range(obs, a, b, 720, table) for a, b in zip(cuts, cuts[1:])]
        ids = [cohort_module._texts(fold.patients.numbering()[1]) for fold in folds]
        assert ids == [["p1"], [], ["p1"], ["p2", "p1"], ["p3"]]
        assert folds[1].tables.worst.shape == (0, 2, 0)
        serial = load_cohort(obs, out, 720, table)
        assert serial.patient_ids == ["p1", "p2", "p3"]
        assert serial.vocabulary == ("heart_rate", "gcs", "temperature", "blood_pressure")
        assert_same_tables(cohort_module._merge_ranges(folds).finish(obs, out), serial)

    def test_declined_block_declines_its_range(self, tmp_path):
        obs = tmp_path / "obs.csv"
        obs.write_bytes(obs_stream("p1,heart_rate,30,112", '"p2",gcs,40,14').getvalue())
        head = len(b"patient_id,variable,offset_minutes,value\n")
        cut = head + len(b"p1,heart_rate,30,112\n")
        assert cohort_module._fold_range(obs, head, cut, 720, None) is not None
        assert cohort_module._fold_range(obs, cut, obs.stat().st_size, 720, None) is None


class TestRangesInChildren:
    """`load_cohort` of a file of about 7 kB cut into ranges of at least
    1,000 bytes, one per usable CPU: 3 of them, so 2 forked children."""

    TABLE = load_default_score_table()

    @pytest.fixture
    def ranges(self, monkeypatch, tmp_path):
        """(write, load, forks): write the observations lines, and outcomes
        for their patients; load them with `cpus` usable CPUs, or with
        nothing patched for None; the live count of forks."""
        obs, out = tmp_path / "obs.csv", tmp_path / "out.csv"
        forks = count_calls(monkeypatch, os, "fork")

        def write(lines):
            obs.write_bytes(obs_stream(*lines).getvalue())
            ids = dict.fromkeys(line.split(",")[0].strip('"') for line in lines)
            out.write_bytes(out_stream(*(f"{pid},30,0" for pid in ids)).getvalue())
            return obs

        def load(cpus=3):
            with monkeypatch.context() as mp, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if cpus:
                    mp.setattr(cohort_module, "_RANGE_BYTES", 1000)
                    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
                try:
                    return load_cohort(obs, out, 720, self.TABLE)
                finally:
                    gc.collect()
                    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
                    no_child_left()

        return write, load, forks

    LINES = [f"p{i // 9},{('heart_rate', 'gcs', 'blood_pressure')[i % 3]},{i % 9 * 170},{60 + i % 70}.5"
             for i in range(300)]

    def test_ranges_give_the_serial_tables(self, ranges):
        write, load, forks = ranges
        assert write(self.LINES).stat().st_size // 1000 >= 3
        serial = load(None)
        assert forks["fork"] == 0
        assert_same_tables(load(), serial)
        assert forks["fork"] == 2

    @pytest.mark.parametrize("odd", ['"p98",gcs,5,9', "p98,gcs,5,9\r"], ids=["quoted", "crlf"])
    @pytest.mark.parametrize("bad", [False, True], ids=["valid", "error"])
    def test_declined_last_range_gives_the_serial_result(self, ranges, odd, bad):
        write, load, forks = ranges
        lines = self.LINES + [odd] + ["p99,heart_rate,30,x"] * bad + self.LINES[:5]
        write(lines)
        if not bad:
            assert_same_tables(load(), load(None))
            assert forks["fork"] == 2
            return
        with pytest.raises(ParseError) as serial:
            load(None)
        with pytest.raises(ParseError) as in_ranges:
            load()
        assert forks["fork"] == 2
        assert (in_ranges.value.path, in_ranges.value.line_no, in_ranges.value.message) == (
            serial.value.path, serial.value.line_no, serial.value.message)
        assert serial.value.line_no == 303 and serial.value.message == "non-numeric value 'x'"

    def test_file_without_the_header_line_gives_the_serial_error(self, ranges):
        write, load, forks = ranges
        obs = write(self.LINES)
        obs.write_bytes(obs.read_bytes().replace(b"offset_minutes", b"offset", 1))
        with pytest.raises(ParseError, match=f"^{obs}: line 1: expected header patient_id,variable,"):
            load()
        assert forks["fork"] == 0

    @staticmethod
    def fold_range_in_parent_or_child(monkeypatch, in_parent, in_child):
        """`_fold_range` calls `in_parent` here and `in_child` in a forked
        child, then folds as before."""
        parent, fold_range = os.getpid(), cohort_module._fold_range

        def fold(*args):
            (in_parent if os.getpid() == parent else in_child)()
            return fold_range(*args)

        monkeypatch.setattr(cohort_module, "_fold_range", fold)

    @pytest.mark.parametrize("how", ["exit", "torn"])
    def test_child_without_its_fold_gives_the_serial_tables(self, ranges, monkeypatch, how):
        # a child exits 0 before it sends anything, or fails halfway through sending
        write, load, forks = ranges
        write(self.LINES)
        serial = load(None)
        if how == "exit":
            self.fold_range_in_parent_or_child(monkeypatch, lambda: None, lambda: os._exit(0))
        else:
            def torn(fold, pipe, protocol):   # only a child sends a fold
                pipe.write(pickle.dumps(fold, protocol)[:100])
                raise OSError("connection lost")

            monkeypatch.setattr(pickle, "dump", torn)
        assert_same_tables(load(), serial)
        assert forks["fork"] == 2

    def test_failed_fork_gives_the_serial_tables(self, ranges, monkeypatch):
        write, load, forks = ranges
        write(self.LINES)
        serial = load(None)
        fork, calls = os.fork, []

        def second_fails():   # the first child is forked, then no process is to be had
            calls.append(len(calls))
            if len(calls) == 2:
                raise BlockingIOError("Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", second_fails)
        assert_same_tables(load(), serial)
        assert len(calls) == 2

    def test_interrupt_leaves_no_child(self, ranges, monkeypatch):
        write, load, forks = ranges
        write(self.LINES)

        def interrupt():
            raise KeyboardInterrupt

        self.fold_range_in_parent_or_child(monkeypatch, interrupt, lambda: None)
        with pytest.raises(KeyboardInterrupt):
            load()
        assert forks["fork"] == 2

    def test_one_usable_cpu_or_a_second_thread_never_forks(self, ranges, monkeypatch):
        write, load, forks = ranges
        write(self.LINES)
        serial = load(None)
        assert_same_tables(load(cpus=1), serial)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert_same_tables(load(), serial)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks["fork"] == 0


class TestWriteInRanges:
    """`write_observations` of the 600-patient cohort (about 52,000 rows)
    cut into ranges of at least 20,000 rows, one per usable CPU."""

    COLUMNS = ("patient", "variable", "offset_minutes", "value", "event_hours", "died")

    @pytest.fixture
    def write(self, monkeypatch, tmp_path, small_cohort):
        """(write, forks): write(cpus) writes the cohort with `cpus` usable
        CPUs and returns the file's bytes; the live count of forks."""
        forks = count_calls(monkeypatch, os, "fork")

        def write(cpus):
            before = [getattr(small_cohort, name).copy() for name in self.COLUMNS]
            path = tmp_path / "observations.csv"
            with monkeypatch.context() as mp:
                mp.setattr(cohort_module, "_WRITE_RANGE_ROWS", 20_000)
                mp.setattr(cohort_module, "usable_cpus", lambda: cpus)
                try:
                    write_observations(small_cohort, path)
                finally:
                    no_child_left()
            for name, column in zip(self.COLUMNS, before):   # the writer left the cohort as it was
                assert getattr(small_cohort, name).tobytes() == column.tobytes(), name
            return path.read_bytes()

        return write, forks

    def test_ranges_write_the_serial_bytes(self, write):
        write, forks = write
        serial = write(1)
        assert forks["fork"] == 0
        assert write(2) == serial
        assert forks["fork"] == 1
        assert write(3) == serial   # 52,000 // 20,000: still 2 ranges
        assert forks["fork"] == 2

    @pytest.mark.parametrize("how", ["exit", "raise"])
    def test_failing_child_writes_serially(self, write, monkeypatch, how):
        write, forks = write
        serial = write(1)
        parent, lines = os.getpid(), cohort_module._lines

        def failing(*args):
            if os.getpid() != parent:
                if how == "exit":
                    os._exit(0)
                raise OSError("no space left on device")
            return lines(*args)

        monkeypatch.setattr(cohort_module, "_lines", failing)
        assert write(2) == serial
        assert forks["fork"] == 1

    def test_serial_writer_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cohort_module, "usable_cpus", lambda: 1)
        monkeypatch.setattr(cohort_module, "_LINE_ROWS", 1 << 12)
        peaks = []
        for n_patients in (200, 800):   # about 17,000 and 70,000 rows
            cohort = generate_synthetic_cohort(SynthConfig(n_patients, 5, 0.35, 0.1, 1.0, 3))
            peaks.append(traced_peak(lambda: write_observations(cohort, tmp_path / "observations.csv")))
        small, large = peaks
        assert large <= 1.1 * small and large < 4 << 20


@contextlib.contextmanager
def time_limit(seconds):
    """A TimeoutError in this thread if the block takes `seconds` or more."""
    def expire(signum, frame):
        raise TimeoutError(f"no result in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
class TestPipeInput:
    """`load_cohort` of a named pipe fed by a writer thread: the pipe can be
    read once, so it takes the one-CPU fold, even with ranges asked for."""

    TABLE = load_default_score_table()

    @pytest.mark.parametrize("odd", [[], ['"p98",gcs,5,9']], ids=["plain", "quoted"])
    def test_pipe_gives_the_regular_files_tables(self, monkeypatch, tmp_path, odd):
        # a quoted id mid-file sends the rest through the row loop, after
        # the blocks before it (`_LineBlocks.rest` and `_Prepended`)
        lines = TestRangesInChildren.LINES + odd + TestRangesInChildren.LINES[:5]
        obs, out, pipe = tmp_path / "obs.csv", tmp_path / "out.csv", tmp_path / "obs.pipe"
        obs.write_bytes(obs_stream(*lines).getvalue())
        ids = dict.fromkeys(line.split(",")[0].strip('"') for line in lines)
        out.write_bytes(out_stream(*(f"{pid},30,0" for pid in ids)).getvalue())
        monkeypatch.setattr(cohort_module, "BLOCK_BYTES", 512)   # blocks before the quoted id
        expected = load_cohort(obs, out, 720, self.TABLE)
        os.mkfifo(pipe)
        forks = count_calls(monkeypatch, os, "fork")
        monkeypatch.setattr(cohort_module, "_RANGE_BYTES", 1000)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
        monkeypatch.setattr(threading, "active_count", lambda: 1)   # the writer is not what gates the ranges
        row_loop = count_calls(monkeypatch, cohort_module, "_row_loop")
        writer = threading.Thread(target=pipe.write_bytes, args=(obs.read_bytes(),), daemon=True)
        writer.start()
        try:
            with time_limit(30):
                piped = load_cohort(pipe, out, 720, self.TABLE)
        finally:
            if writer.is_alive():   # the pipe was never opened for reading: let the writer go
                os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert_same_tables(piped, expected)
        assert forks["fork"] == 0
        assert row_loop["_row_loop"] == len(odd)


def heart_rate_cohort(patient_ids=("p1",), **columns):
    """RawCohort of heart-rate rows; the columns default to one valid row,
    and each patient to a 30-hour stay that ended alive."""
    fields = dict(
        patient=[0], variable=[0], offset_minutes=[0], value=[80.0],
        event_hours=[30.0] * len(patient_ids), died=[False] * len(patient_ids),
    ) | columns
    return RawCohort(patient_ids=list(patient_ids), vocabulary=("heart_rate",), **fields)


class TestRawCohort:
    def test_mismatched_ids_rejected(self):
        # one patient id, but outcomes for two patients, or for none
        for event_hours, died in (([30.0, 40.0], [False, True]), ([], np.array([], dtype=bool))):
            with pytest.raises(CohortError, match="one entry per patient"):
                RawCohort(
                    patient_ids=["p1"],
                    vocabulary=(),
                    patient=[],
                    variable=[],
                    offset_minutes=[],
                    value=[],
                    event_hours=event_hours,
                    died=died,
                )

    def test_unsorted_observations_rejected(self):
        with pytest.raises(CohortError, match="sorted"):
            heart_rate_cohort(
                patient=[0, 0], variable=[0, 0], offset_minutes=[90, 30], value=[80.0, 70.0]
            )

    @pytest.mark.parametrize(
        "patient, offset_minutes, at",
        [([0, 0, 1], [5, 0, 0], "p1"), ([0, 1, 0], [0, 0, 5], "p1"), ([0, 1, 1], [0, 9, 3], "p2")],
    )
    def test_unsorted_rows_named_in_message(self, patient, offset_minutes, at):
        with pytest.raises(CohortError) as err:
            heart_rate_cohort(
                ("p1", "p2"),
                patient=patient,
                variable=[0, 0, 0],
                offset_minutes=offset_minutes,
                value=[80.0, 80.0, 80.0],
            )
        assert str(err.value) == f"observations are not sorted by patient, then offset (at {at})"

    def test_rows_not_grouped_by_patient_rejected(self):
        with pytest.raises(CohortError, match="sorted"):
            heart_rate_cohort(
                ("p1", "p2"),
                patient=[0, 1, 0],
                variable=[0, 0, 0],
                offset_minutes=[0, 0, 5],
                value=[80.0, 80.0, 80.0],
            )

    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(offset_minutes=[-1]), "offset_minutes must be >= 0"),
            (dict(value=[np.inf]), "non-finite"),
            (dict(variable=[1]), "out of range"),
            (dict(patient=[1]), "out of range"),
            (dict(value=[1.0, 2.0]), "equal length"),
            (dict(event_hours=[30.0, 30.0]), "one entry per patient"),
            (dict(died=[False, True]), "one entry per patient"),
            (dict(event_hours=[[30.0]]), "one entry per patient"),
            (dict(event_hours=[np.nan]), r"event_hours must be finite and > 0, got nan for p1$"),
            (dict(event_hours=[np.inf]), r"event_hours must be finite and > 0, got inf for p1$"),
            (dict(event_hours=[0.0]), r"event_hours must be finite and > 0, got 0.0 for p1$"),
            (dict(event_hours=[-2.5]), r"event_hours must be finite and > 0, got -2.5 for p1$"),
            (dict(died=[1]), "died must be bool"),
            (dict(died=[0.5]), "died must be bool"),
            (dict(died=["yes"]), "died must be bool"),
        ],
    )
    def test_invalid_rows_rejected(self, bad, message):
        with pytest.raises(CohortError, match=message):
            heart_rate_cohort(**bad)

    def test_repeated_variable_name_rejected(self):
        # window tables keep one column per code, so two codes of one name would split its rows
        with pytest.raises(CohortError, match="vocabulary names must be distinct"):
            RawCohort(["p1"], ("gcs", "gcs"), [0, 0], [0, 1], [5, 6], [9.0, 8.0], [30.0], [False])

    def test_patients_map_ids_to_their_rows(self):
        cohort = cohort_from_rows(
            [("a", "gcs", 5, 9.0), ("c", "gcs", 1, 9.0), ("a", "gcs", 2, 9.0)],
            {"a": (30.0, False), "b": (30.0, False), "c": (30.0, False)},
        )
        assert cohort.patients == {"a": range(0, 2), "b": range(2, 2), "c": range(2, 3)}
        assert cohort.offset_minutes[cohort.patients["a"]].tolist() == [2, 5]

    def test_variables_are_those_with_rows(self):
        cohort = cohort_from_rows(
            [("a", "gcs", 5, 9.0), ("b", "age", 0, 60.0), ("a", "heart_rate", 2, 80.0)],
            {"a": (30.0, False), "b": (30.0, False)},
        )
        assert cohort.variables == ["age", "gcs", "heart_rate"]
        kept = filter_cohort(window_tables(cohort, 1440), ("gcs",), 24)
        assert kept.patient_ids == ["a"]
        assert kept.variables == ["gcs", "heart_rate"]
        assert kept.vocabulary == cohort.vocabulary  # codes keep their meaning
        assert kept.patients == {"a": range(2)}


@pytest.fixture(scope="module")
def cohort_4k():
    return generate_synthetic_cohort(SynthConfig(4000, 5, 0.15, 0.1, 1.0, 3))


class TestFilter:
    def _tables(self, event_hours=48.0, offsets=(0, 700, 720, 1400)):
        rows = [
            ("p1", var, off, 100.0)
            for var in ("heart_rate", "blood_pressure", "gcs")
            for off in offsets
        ]
        return window_tables(cohort_from_rows(rows, {"p1": (event_hours, False)}), 720)

    def test_complete_patient_kept(self):
        assert filter_cohort(self._tables()).n_patients == 1

    def test_short_stay_dropped(self):
        assert filter_cohort(self._tables(event_hours=20.0)).n_patients == 0

    def test_stay_of_exactly_the_minimum_kept(self):
        assert filter_cohort(self._tables(event_hours=24.0)).n_patients == 1
        assert filter_cohort(self._tables(event_hours=np.nextafter(24.0, 0))).n_patients == 0

    def test_missing_required_window_dropped(self):
        # no samples in the second 12h window
        assert filter_cohort(self._tables(offsets=(0, 300, 700))).n_patients == 0

    def test_tables_of_other_windows_rejected(self):
        with pytest.raises(ValueError, match="tables of 720-minute windows, not 8 h"):
            filter_cohort(self._tables(), window_hours=8)

    def test_tables_filtered_in_their_own_windows(self, small_cohort):
        tables = window_tables(small_cohort, 360, load_default_score_table())
        assert_same_tables(filter_cohort(tables), filter_cohort(tables, window_hours=6))

    def test_rows_need_the_window_size(self, small_cohort):
        with pytest.raises(ValueError, match="^filter_cohort of a RawCohort needs window_hours to fold it in$"):
            filter_cohort(small_cohort)

    def test_each_row_is_placed_once(self, monkeypatch, small_cohort):
        assert small_cohort.value.size < cohort_module.WINDOW_CHUNK_ROWS
        table = load_default_score_table()
        calls = count_calls(monkeypatch, cohort_module.WindowTables, "add")
        kept = filter_cohort(window_tables(small_cohort, 720, table), ("heart_rate", "blood_pressure", "gcs"))
        assert calls == {"add": 1}
        assert len(kept.variables) == 5
        build_feature_matrix(kept, kept.variables)
        assert calls == {"add": 1}

    def test_chunks_do_not_change_the_filter(self, monkeypatch, small_cohort):
        required = ("heart_rate", "blood_pressure", "gcs")
        expected = filter_ids(small_cohort, required, 8)
        assert 0 < len(expected) < small_cohort.n_patients
        monkeypatch.setattr(cohort_module, "WINDOW_CHUNK_ROWS", 1000)
        assert filter_cohort(window_tables(small_cohort, 480), required, 8).patient_ids == expected

    def test_fold_holds_one_chunk(self, cohort_4k):
        # An unchunked pass holds about 40 B per placed row; the chunked one
        # holds that for one chunk, plus the (patient, window, variable) table.
        table = load_default_score_table()
        column_bytes = sum(a.nbytes for a in (cohort_4k.patient, cohort_4k.variable,
                                              cohort_4k.offset_minutes, cohort_4k.value))
        tracemalloc.start()
        try:
            window_tables(cohort_4k, 720, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < column_bytes / 2
        assert cohort_4k.value.size > 4 * cohort_module.WINDOW_CHUNK_ROWS

    def test_fold_filter_and_features_memory_is_linear_in_rows(self, cohort_4k):
        # The tables are O(patients); the fold places one chunk of rows at a time.
        table = load_default_score_table()
        tracemalloc.start()
        try:
            kept = filter_cohort(window_tables(cohort_4k, 720, table))
            build_feature_matrix(kept, kept.variables)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept.n_patients > 3000
        assert peak < 60 * cohort_4k.value.size

    def test_synthetic_cohort_filter_gives_the_kept_patients_and_rows(self):
        # The benchmark's set-up filters its synthetic cohort and records
        # the kept patients and their rows, past minute 1440 included.
        cohort = generate_synthetic_cohort(SynthConfig(500, 5, 0.15, 0.1, 1.0, 47))
        kept = filter_cohort(cohort, window_hours=12)
        ids = filter_ids(cohort, DEFAULT_REQUIRED_VARIABLES, 12)
        assert 0 < kept.n_patients == len(ids) < cohort.n_patients
        assert kept.patient_ids == ids
        rows = cohort_rows(cohort)
        assert sum(len(r) for r in kept.patients.values()) == sum(len(rows[pid]) for pid in ids)
        # rows past the first day count, though no window holds them
        late = cohort_from_rows(
            [("p1", var, off, 100.0) for var in DEFAULT_REQUIRED_VARIABLES for off in (0, 720, 1440, 2000)],
            {"p1": (48.0, False)},
        )
        assert filter_cohort(late, window_hours=12).patients == {"p1": range(12)}


class TestWindowTables:
    @pytest.mark.parametrize("minutes", [0, -5, 1441])
    def test_window_size_outside_the_first_day_rejected(self, minutes, small_cohort, tmp_path):
        message = rf"^window_minutes must lie in 1\.\.1440, got {minutes}$"
        with pytest.raises(ValueError, match=message):
            WindowTables(minutes)
        with pytest.raises(ValueError, match=message):
            window_tables(small_cohort, minutes)
        obs, out = tmp_path / "obs.csv", tmp_path / "out.csv"
        obs.write_bytes(obs_stream("p1,heart_rate,30,112").getvalue())
        out.write_bytes(out_stream("p1,30,0").getvalue())
        with pytest.raises(ValueError, match=message):
            load_cohort(obs, out, minutes, None)

    @pytest.mark.parametrize("minutes", [True, 720.0])
    def test_window_size_that_is_not_an_int_rejected(self, minutes, small_cohort):
        # a bool is no window size, and the feature spec's hours are window_minutes // 60
        message = rf"^window_minutes must be an int, got {minutes!r}$"
        with pytest.raises(ValueError, match=message):
            WindowTables(minutes)
        with pytest.raises(ValueError, match=message):
            window_tables(small_cohort, minutes)


class TestSynthConfig:
    def test_exact_fields_required(self):
        with pytest.raises(CohortError, match="exactly"):
            SynthConfig.from_json_obj({"n_patients": 10})

    def test_range_validation(self):
        with pytest.raises(CohortError):
            SynthConfig(10, 3, 1.5, 0.1, 1.0, 0)
        with pytest.raises(CohortError):
            SynthConfig(10, 3, 0.2, 1.0, 1.0, 0)
        with pytest.raises(CohortError):
            SynthConfig(0, 3, 0.2, 0.1, 1.0, 0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf"), 0.0])
    def test_sampling_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(CohortError, match="^sampling_rate_per_hour must be finite and positive$"):
            SynthConfig(10, 3, 0.2, 0.1, rate, 0)


class TestGenerator:
    CFG = SynthConfig(
        n_patients=150,
        n_variables=5,
        prevalence_target=0.15,
        missing_rate=0.2,
        sampling_rate_per_hour=1.0,
        seed=99,
    )

    def test_same_seed_identical(self):
        a = generate_synthetic_cohort(self.CFG)
        b = generate_synthetic_cohort(self.CFG)
        assert same_cohort(a, b)

    def test_different_seed_differs(self):
        other = SynthConfig(150, 5, 0.15, 0.2, 1.0, 100)
        a = generate_synthetic_cohort(other)
        assert not same_cohort(a, generate_synthetic_cohort(self.CFG))

    def test_zero_missing_rate_keeps_every_sample(self):
        cfg = SynthConfig(20, 4, 0.15, 0.0, 1.0, 7)
        cohort = generate_synthetic_cohort(cfg)
        for rows in cohort.patients.values():
            assert len(rows) == 4 * 24  # 4 time-series variables, hourly

    def test_outcomes_positive_and_invariants_hold(self):
        cohort = generate_synthetic_cohort(self.CFG)
        assert cohort.event_hours.shape == cohort.died.shape == (cohort.n_patients,)
        assert cohort.died.dtype == bool and cohort.died.any() and not cohort.died.all()
        assert np.all(cohort.event_hours > 0)
        assert set(cohort.patients) == set(cohort.patient_ids)

    def test_round_trip_through_csv(self, tmp_path):
        cohort = generate_synthetic_cohort(self.CFG)
        obs_path, out_path = write_cohort_files(cohort, tmp_path)
        with open(obs_path, "rb") as f:
            parsed = RawCohort(**parse_observations(f), event_hours=cohort.event_hours, died=cohort.died)
        assert same_cohort(parsed, cohort)
        assert same_cohort(rows_cohort(obs_path, out_path), cohort)
        table = load_default_score_table()
        expected = window_tables(rows_cohort(obs_path, out_path), 720, table)
        assert_same_tables(load_cohort(obs_path, out_path, 720, table), expected)

    def test_memory_is_linear_in_rows(self):
        # The (patient, variable, sample) arrays, then the columns and their sorted copies.
        cfg = SynthConfig(4000, 5, 0.15, 0.1, 1.0, 3)
        tracemalloc.start()
        try:
            cohort = generate_synthetic_cohort(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 250 * cohort.value.size

    @pytest.mark.slow
    def test_realized_prevalence_over_seeds(self):
        # Monte-Carlo check of the generator calibration at day 5.
        fractions = []
        for seed in range(20):
            cfg = SynthConfig(4000, 5, 0.15, 0.1, 1.0, seed)
            fractions.append(death_fraction_by(generate_synthetic_cohort(cfg), 5))
        fractions = np.array(fractions)
        assert np.all(fractions >= 0.10) and np.all(fractions <= 0.20)
        assert abs(fractions.mean() - 0.15) < 0.02
