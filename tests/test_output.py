"""Artifact writer tests: formatting, column union, atomicity, memory.

The columnar CSV writer is checked byte for byte against the csv.writer
row oracle in tests/oracles.py, on both sides of its chunk edges.
"""
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from kpzlab.output import (_CHUNK_ROWS, fmt_value, rows_to_columns,
                           sha256_text, write_csv, write_json, _atomic_write)
from oracles import csv_writer_rows, read_strict_json


def test_fmt_value_round_trips():
    assert fmt_value(0.1) == "0.1"
    assert fmt_value(1 / 3) == repr(1 / 3)
    assert float(fmt_value(np.float64(2.5e-17))) == 2.5e-17
    assert fmt_value(True) == "true" and fmt_value(np.bool_(False)) == "false"
    assert fmt_value(np.int64(7)) == "7"
    assert fmt_value("label") == "label"


def test_write_csv_unions_columns(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, rows_to_columns([{"a": 1, "b": 2.0}, {"a": 3, "c": "x"}]))
    lines = p.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2.0,"
    assert lines[2] == "3,,x"


def test_write_csv_accepts_generator(tmp_path):
    p = tmp_path / "g.csv"
    write_csv(p, rows_to_columns({"k": i} for i in range(3)))
    assert p.read_text().splitlines() == ["k", "0", "1", "2"]


def _same_as_oracle(tmp_path, columns, rows):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(got, columns)
    csv_writer_rows(want, rows)
    assert got.read_bytes() == want.read_bytes()


TEXT = ["plain", "a,b", 'say "hi"', "cr\rin", "lf\nin", "crlf\r\n", "",
        "Grüße, ∂f/∂z", " padded ", '"', ","]


def test_text_cells_are_quoted_like_csv(tmp_path):
    rows = [{"check": f"c{i}", "passed": i % 2 == 0, "detail": text}
            for i, text in enumerate(TEXT)]
    _same_as_oracle(tmp_path, rows_to_columns(rows), rows)
    # quoting reaches column names and scalar columns, too
    cols = {"name, quoted": np.arange(3), 'q"': "x,y", "n": 2.5}
    _same_as_oracle(tmp_path, cols,
                    [{"name, quoted": i, 'q"': "x,y", "n": 2.5}
                     for i in range(3)])


def test_numeric_arrays_format_like_fmt_value(tmp_path):
    floats = np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308,
                       1 / 3])
    n = floats.size
    ints = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1]
                    + [7] * (n - 4), dtype=np.int64)
    f32 = np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 1e-45, 3e38, 1 / 3],
                   dtype=np.float32)
    cols = {"f": floats, "f32": f32, "i": ints,
            "u": np.arange(n, dtype=np.uint64) + np.uint64(2**63),
            "b": np.arange(n) % 3 == 0, "s": np.float64(2.5),
            "k": np.int64(-4), "flag": np.bool_(True)}
    rows = [{k: (v[i] if np.ndim(v) else v) for k, v in cols.items()}
            for i in range(n)]
    _same_as_oracle(tmp_path, cols, rows)


def test_ragged_rows_fill_the_union(tmp_path):
    rows = [{"a": 1}, {"b": "x", "a": 2.5}, {}, {"c": None, "b": ""},
            {"a": np.float64(-0.0), "d": np.bool_(False)}]
    cols = rows_to_columns(rows)
    assert list(cols) == ["a", "b", "c", "d"]
    _same_as_oracle(tmp_path, cols, rows)


@pytest.mark.parametrize("rows", [[{"k": 1}, {}, {"k": "z"}],
                                  [{"": ""}], [{"k": ""}, {"k": ""}]],
                         ids=["filled", "empty-name", "all-empty"])
def test_single_column_empty_cell_is_quoted(tmp_path, rows):
    _same_as_oracle(tmp_path, rows_to_columns(rows), rows)
    assert b'""\r\n' in (tmp_path / "got.csv").read_bytes()


def test_write_csv_scalar_columns_repeat_and_lengths_must_agree(tmp_path):
    p = tmp_path / "s.csv"
    write_csv(p, {"seed": 3, "x": np.array([-1, 0, 1]), "t": "late"})
    assert p.read_bytes() == b"seed,x,t\r\n3,-1,late\r\n3,0,late\r\n" \
        b"3,1,late\r\n"
    write_csv(p, {"a": 1, "b": 0.5})
    assert p.read_bytes() == b"a,b\r\n1,0.5\r\n"
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "bad.csv", {"a": [1, 2], "b": np.zeros(3)})
    assert not (tmp_path / "bad.csv").exists()


def _mixed_table(n):
    """Float and int arrays, lists, scalars and quoted text, n rows."""
    return {"value": np.linspace(-1.0, 1.0, n) / 3, "x": np.arange(n) - n // 2,
            "label": [TEXT[i % len(TEXT)] for i in range(n)],
            "passed": [i % 3 == 0 for i in range(n)],
            "seed": 7, "epsilon": 0.1, "note": 'a "b", c'}


@pytest.mark.parametrize("n", [_CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                               2 * _CHUNK_ROWS + 1])
@pytest.mark.parametrize("table", [_mixed_table, lambda n: {"": [""] * n}],
                         ids=["mixed", "lone-empty"])
def test_chunk_edges_match_the_row_writer(tmp_path, n, table):
    cols = table(n)
    seqs = {k for k, v in cols.items() if isinstance(v, (list, np.ndarray))}
    rows = [{k: (v[i] if k in seqs else v) for k, v in cols.items()}
            for i in range(n)]
    _same_as_oracle(tmp_path, cols, rows)


@pytest.mark.parametrize("n", [_CHUNK_ROWS // 3, _CHUNK_ROWS + 1])
def test_nd_array_columns_read_row_major(tmp_path, n):
    # a lattice's columns: broadcast coordinate views and a 2-D height
    # array, read row-major across chunk edges, with its size as length
    cols = {"t": 5, "x1": np.broadcast_to(np.arange(3)[:, None], (3, n)),
            "x2": np.broadcast_to(np.arange(n), (3, n)),
            "value": np.arange(3.0 * n).reshape(3, n) / 7}
    write_csv(tmp_path / "nd.csv", cols)
    write_csv(tmp_path / "flat.csv", {k: np.ravel(v) if k != "t" else v
                                      for k, v in cols.items()})
    assert (tmp_path / "nd.csv").read_bytes() == \
        (tmp_path / "flat.csv").read_bytes()
    with pytest.raises(ValueError, match="differ in length"):
        write_csv(tmp_path / "bad.csv", {"a": np.zeros((2, 3)), "b": [0, 1]})


def _write_csv_peak(path, n):
    """tracemalloc peak of write_csv on an n-row simulate-like table."""
    cols = {"d": 1, "t": 400, "epsilon": 0.1, "x1": np.arange(n) - n // 2,
            "value": np.linspace(0.0, 1.0, n)}
    tracemalloc.start()
    try:
        write_csv(path, cols)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_memory_does_not_grow_with_rows(tmp_path):
    # only one chunk of rows exists as Python objects and text at a time
    small = _write_csv_peak(tmp_path / "small.csv", 1 << 16)
    large = _write_csv_peak(tmp_path / "large.csv", 1 << 20)
    assert large < 2 * small, (small, large)


def test_write_json_handles_numpy(tmp_path):
    p = tmp_path / "t.json"
    write_json(p, {"f": np.float64(0.5), "i": np.int32(2),
                   "b": np.bool_(True), "arr": np.arange(3)})
    doc = json.loads(p.read_text())
    assert doc == {"f": 0.5, "i": 2, "b": True, "arr": [0, 1, 2]}


def test_write_json_finite_documents_keep_their_bytes(tmp_path):
    # a document with no non-finite float is written as json.dump writes it
    doc = {"b": [1, 2.5, (0.1, -3e-300)], "a": {"x": None, "y": "text",
                                                "z": True, "w": 1 / 3}}
    p = tmp_path / "t.json"
    write_json(p, doc)
    assert p.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_write_json_nulls_non_finite_values(tmp_path, capsys):
    p = tmp_path / "t.json"
    write_json(p, {"report": {"s": np.float64(np.inf), "ok": 1.0,
                              "v": [0.0, math.nan], "a": np.array([-np.inf])},
                   "flag": False})
    doc = read_strict_json(p)
    assert doc["report"] == {"s": None, "ok": 1.0, "v": [0.0, None],
                             "a": [None]}
    assert doc["nonfinite"] == ["report.s", "report.v[1]", "report.a[0]"]
    err = capsys.readouterr().err
    assert "report.s, report.v[1], report.a[0]" in err


def test_atomic_write_leaves_no_temp_on_failure(tmp_path):
    target = tmp_path / "out.txt"

    def boom(fh):
        fh.write("partial")
        raise RuntimeError("disk on fire")

    with pytest.raises(RuntimeError):
        _atomic_write(str(target), boom)
    assert not target.exists()
    assert os.listdir(tmp_path) == []


def test_sha256_text_known_value():
    # sha256 of the empty string, a fixed reference
    assert sha256_text("") == ("e3b0c44298fc1c149afbf4c8996fb924"
                               "27ae41e4649b934ca495991b7852b855")
